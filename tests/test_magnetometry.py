import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rubymag.cavity import dbm_to_watts, single_spin_coupling
from rubymag.cli import _sensitivity_budget
from rubymag.config import parse_config
from rubymag import constants as CONST
from rubymag.errors import ZeroSignal
from rubymag.magnetometry import (bias_sweep_trace, dispersive_slope,
                                  phase_noise_budget, render_eta_table_csv,
                                  render_sweep_csv, sensitivity,
                                  spin_frequency_vs_field, thermal_limit)
from rubymag.spins import build_hamiltonian, eigensolve
from timeseries import (amplitude_density, noise_floor, simulate_timeseries,
                        tone_rms)

TWO_PI = 2.0 * math.pi
DEFAULTS = parse_config({})
D, G_PAR, G_PERP = (DEFAULTS["spin"][key]
                    for key in ("d_ghz", "g_par", "g_perp"))
G_S = single_spin_coupling(52.2e-9, TWO_PI * 11.4e9)
MODEL = {**DEFAULTS.model(), "g_s": G_S, "g_eff": TWO_PI * 3.5e6}
OMEGA_D, POWER = TWO_PI * 11.4e9, dbm_to_watts(11.0)

# bias field placing the +3/2 <-> +1/2 transition on the drive frequency
_SLOPE = G_PAR * CONST.mu_B / CONST.hbar          # rad/s per tesla
B_CENTER = (2.0 * abs(D) - OMEGA_D) / _SLOPE


# ---------------------------------------------------------------------------
# dispersive_slope


def test_slope_flat_trace_zero():
    x = np.linspace(0.0, 1e-3, 21)
    slopes, m_max = dispersive_slope(x, np.full(21, 0.7))
    assert np.allclose(slopes, 0.0, atol=1e-9)
    assert m_max == pytest.approx(0.0, abs=1e-9)


def test_slope_exact_line():
    x = np.linspace(0.0, 1e-3, 21)
    a = 2994.0
    slopes, m_max = dispersive_slope(x, a * x)
    assert np.allclose(slopes, a, rtol=1e-9)
    assert m_max == pytest.approx(a, rel=1e-9)


def test_slope_quadratic_trace():
    x = np.linspace(-1.0, 1.0, 41)
    slopes, m_max = dispersive_slope(x, x ** 2)
    interior = slice(2, -2)
    assert np.allclose(slopes[interior], 2 * x[interior], atol=1e-9)
    assert m_max == pytest.approx(2.0, rel=1e-6)


def polyfit_slopes(axis, values, window=5):
    """Per-window np.polyfit reference for dispersive_slope."""
    n = axis.size
    out = np.empty(n)
    for i in range(n):
        lo = max(0, min(i - window // 2, n - window))
        sel = slice(lo, lo + window)
        out[i] = np.polyfit(axis[sel] - axis[i], values[sel], 2)[1]
    return out


@pytest.mark.parametrize("n", [5, 6, 21, 201])
@pytest.mark.parametrize("kind", ["uniform", "non-uniform", "decreasing"])
def test_slope_matches_polyfit_windows(n, kind):
    """nT steps on the irregular axes: unscaled windows lose the slope."""
    rng = np.random.default_rng(n)
    if kind == "uniform":
        x = np.linspace(29e-4, 33e-4, n)
    else:
        x = 29e-4 + np.cumsum(rng.uniform(0.1, 2.0, n)) * 1e-9
        if kind == "decreasing":
            x = x[::-1].copy()
    y = np.sin(2e4 * x) * 1e-2 + 1e-4 * rng.standard_normal(n)
    slopes, m_max = dispersive_slope(x, y)
    want = polyfit_slopes(x, y)
    scale = np.max(np.abs(want))
    assert np.allclose(slopes, want, rtol=0.0, atol=1e-10 * scale)
    assert m_max == pytest.approx(scale, rel=1e-10)


def test_slope_too_few_points():
    with pytest.raises(ValueError, match="at least five sweep points"):
        dispersive_slope([0, 1, 2, 3], [0] * 4)


# ---------------------------------------------------------------------------
# spectral read-out of the simulated time series


def test_spectrum_pure_tone_rms():
    fs, n = 1000.0, 4000
    t = np.arange(n) / fs
    samples = 1.0 * np.sin(TWO_PI * 50.0 * t)     # peak 1 V at a bin center
    freqs, asd = amplitude_density(samples, fs=fs)
    assert tone_rms(freqs, asd, 50.0) == pytest.approx(0.7071, rel=0.01)


def test_noise_floor_trimmed_mean_excludes_tones():
    freqs = np.linspace(0.0, 500.0, 501)
    asd = np.ones(501)
    asd[50] = 100.0                                # tone at 50 Hz
    asd[49] = asd[51] = 10.0                       # leakage skirt
    floor = noise_floor(freqs, asd, band=(10.0, 400.0), tone_freqs=(50.0,))
    assert floor == pytest.approx(1.0, rel=1e-6)
    with pytest.raises(ValueError):
        noise_floor(freqs, asd, band=(600.0, 700.0))


# ---------------------------------------------------------------------------
# sensitivity and limits


def test_sensitivity_paper_value():
    eta = sensitivity(26e-9, 0.646e-3, 242e-9)
    assert eta == pytest.approx(9.7e-12, rel=0.02)


def test_sensitivity_alternate_calibration():
    eta = sensitivity(26e-9, 0.646e-3, 216e-9)
    assert eta == pytest.approx(8.7e-12, rel=0.02)


def test_sensitivity_trivial_and_errors():
    assert sensitivity(0.0, 1e-3, 1e-9) == 0.0
    with pytest.raises(ZeroSignal):
        sensitivity(1e-9, 0.0, 1e-9)
    with pytest.raises(ZeroSignal):
        sensitivity(1e-9, 1e-3, 0.0)


def test_sensitivity_homogeneity():
    base = sensitivity(26e-9, 0.646e-3, 242e-9)
    assert sensitivity(26e-9, 2 * 0.646e-3, 242e-9) \
        == pytest.approx(base / 2.0, rel=1e-12)


def test_thermal_limit_paper_value():
    eta_th = thermal_limit(21.0, 293.0, 2994.0)
    assert eta_th == pytest.approx(1.19e-12, rel=0.02)
    assert eta_th == pytest.approx(1.1e-12, rel=0.10)


def test_thermal_limit_trivial_cases():
    assert thermal_limit(21.0, 0.0, 2994.0) == 0.0
    base = thermal_limit(21.0, 293.0, 2994.0)
    assert thermal_limit(21.0, 293.0, 2 * 2994.0) \
        == pytest.approx(base / 2.0, rel=1e-12)
    with pytest.raises(ValueError, match="M_max must be positive"):
        thermal_limit(21.0, 293.0, 0.0)


def test_phase_noise_budget_paper_values():
    e_p, phi_required = phase_noise_budget(26e-9, 13e-9, -129.5, -6.0)
    assert e_p == pytest.approx(math.sqrt(507) * 1e-9, rel=1e-12)
    assert e_p == pytest.approx(22e-9, abs=0.6e-9)
    assert phi_required == pytest.approx(-140.0, abs=0.5)


def test_phase_noise_budget_degenerate_and_errors():
    assert phase_noise_budget(13e-9, 13e-9, -129.5, -6.0) == (0.0, None)
    with pytest.raises(ValueError, match="need e_total >= e_th >= 0"):
        phase_noise_budget(10e-9, 13e-9, -129.5, -6.0)
    # e_th = 0 would put the requirement at -inf dBc/Hz
    with pytest.raises(ValueError, match="e_th > 0 if"):
        phase_noise_budget(13e-9, 0.0, -129.5, -6.0)
    assert phase_noise_budget(0.0, 0.0, -129.5, -6.0) == (0.0, None)


# ---------------------------------------------------------------------------
# forward simulation


def _eigensolve_gap(b_signed):
    """+3/2 <-> +1/2 gap from the eigensolver, field along -z when B < 0."""
    energies, states = eigensolve(build_hamiltonian(
        D, G_PAR, G_PERP, abs(b_signed), math.pi if b_signed < 0 else 0.0))
    by_basis = {int(np.argmax(np.abs(states[:, i]))): i for i in range(4)}
    return abs(energies[by_basis[0]] - energies[by_basis[1]])


def test_spin_frequency_matches_eigensolve_oracle():
    """The closed form equals the eigensolver gap across the level crossing
    at 2|D| hbar / (g_par mu_B) ~ 0.41 T and for fields along -z."""
    kink = 2.0 * abs(D) / _SLOPE
    b = np.concatenate([np.linspace(0.0, 0.6, 61), [kink - 1e-3, kink + 1e-3],
                        -np.linspace(1e-4, 0.6, 31)])
    oracle = np.array([_eigensolve_gap(float(x)) for x in b])
    got = spin_frequency_vs_field(D, G_PAR, b)
    assert np.allclose(got, oracle, rtol=1e-12, atol=0.0)


def test_spin_frequency_linearized_matches_eigensolve():
    """At low field the closed form, linear in B, equals the eigensolver."""
    b = np.linspace(1e-3, 5e-3, 9)
    exact = np.array([_eigensolve_gap(float(x)) for x in b])
    linear = spin_frequency_vs_field(D, G_PAR, b)
    assert np.allclose(exact, linear, rtol=1e-4)


def test_bias_sweep_dispersive_zero_crossing_and_slope():
    b = np.linspace(B_CENTER - 2e-4, B_CENTER + 2e-4, 201)
    v = bias_sweep_trace(spin_frequency_vs_field(D, G_PAR, b), MODEL,
                         OMEGA_D, POWER, 21.0)
    # dispersive channel crosses zero near line center
    center = v.imag[90:111]
    assert center.min() < 0.0 < center.max()
    _, m_max = dispersive_slope(b, v.imag)
    assert 500.0 < m_max < 10000.0


def test_bias_sweep_rejects_zero_spin_rates():
    omega_s = spin_frequency_vs_field(
        D, G_PAR, np.linspace(B_CENTER - 2e-4, B_CENTER + 2e-4, 11))
    with pytest.raises(ValueError, match="kappa_s must be positive"):
        bias_sweep_trace(omega_s, {**MODEL, "kappa_s": 0.0}, OMEGA_D, POWER,
                         21.0)
    with pytest.raises(ValueError, match="kappa_th must be positive when"):
        bias_sweep_trace(omega_s, {**MODEL, "kappa_th": 0.0}, OMEGA_D, POWER,
                         21.0)


def test_stacked_sweeps_equal_single_sweeps():
    """Stacked sweeps, with non-idealities, across drive powers and bias
    spans, give each row's own slopes bit for bit."""
    model = {**MODEL, "o_r": -0.004, "o_i": 0.06, "A": 0.002, "b": 5e-10,
             "psi": 0.1, "tau": -8e-9, "omega_s_off": -3e6,
             "omega_d_off": -2e5}
    powers = [dbm_to_watts(p) for p in (-3.0, 5.0, 17.0)]
    for half_width in (2.5e-5, 5e-4, 3e-3):
        b_centres = B_CENTER + np.linspace(-4e-4, 4e-4, 5)
        axes = np.array([np.linspace(b0 - half_width, b0 + half_width, 21)
                         for b0 in b_centres])
        omega_s = spin_frequency_vs_field(D, G_PAR, axes)
        v = np.stack([bias_sweep_trace(omega_s, model, OMEGA_D, power,
                                       chain_gain_db=21.0).imag
                      for power in powers], axis=1)
        got, m_max = dispersive_slope(axes[:, None], v)
        assert got.shape == (5, 3, 21)
        assert m_max == np.max(np.abs(got))
        for j, power in enumerate(powers):
            for i, axis in enumerate(axes):
                row = bias_sweep_trace(
                    spin_frequency_vs_field(D, G_PAR, axis), model, OMEGA_D,
                    power, chain_gain_db=21.0)
                slopes, _ = dispersive_slope(axis, row.imag)
                assert np.array_equal(got[i, j], slopes), (half_width, i, j)


def test_stacked_sweeps_check_axes_and_drive():
    """A stacked axis too narrow to resolve at its bias is refused by
    dispersive_slope, and a stacked sweep checks its drive."""
    axes = np.linspace(1e3 - 1e-15, 1e3 + 1e-15, 21)[None]
    with pytest.raises(ValueError, match="monotone"):
        dispersive_slope(axes[:, None], np.zeros((1, 2, 21)))
    with pytest.raises(ValueError, match="kappa_th must be positive when"):
        bias_sweep_trace(spin_frequency_vs_field(
            D, G_PAR, np.linspace(B_CENTER - 1e-4, B_CENTER + 1e-4,
                             21)[None].repeat(3, axis=0)),
            {**MODEL, "kappa_th": 0.0}, OMEGA_D, POWER, 21.0)


def _exact_slope(axis, values, i):
    """The quadratic least-squares slope of dispersive_slope's window at
    point i, from the normal equations solved exactly in Fractions."""
    lo = min(max(i - 2, 0), axis.size - 5)
    x = [Fraction(b) - Fraction(axis[i]) for b in axis[lo:lo + 5]]
    y = [Fraction(v) for v in values[lo:lo + 5]]
    m = [[sum(u ** (r + c) for u in x) for c in range(3)]
         + [sum(u ** r * v for u, v in zip(x, y))] for r in range(3)]
    for c in range(3):
        for r in range(c + 1, 3):
            m[r] = [e - m[r][c] / m[c][c] * f for e, f in zip(m[r], m[c])]
    c2 = m[2][3] / m[2][2]
    return (m[1][3] - m[1][2] * c2) / m[1][1]


def test_slope_matches_exact_least_squares():
    """Every slope of the three benchmark configs' sensitivity sweeps, edge
    windows included, within 2e-13 of the exact least-squares slope."""
    path = Path(__file__).parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    for seed in (1, 2, 3):
        cfg = parse_config(inputs.cli_inputs(seed)["config"], {})
        b, v, _ = _sensitivity_budget(cfg, cfg.model())
        slopes, _ = dispersive_slope(b, v.imag)
        for i in range(b.size):
            exact = _exact_slope(b, v.imag, i)
            error = float(abs(Fraction(slopes[i]) - exact) / abs(exact))
            assert error <= 2e-13, (seed, i)


def test_timeseries_constant_without_test_field_or_noise():
    ts = simulate_timeseries(D, G_PAR, MODEL, OMEGA_D, POWER, B_CENTER,
                             0.0, TWO_PI * 10.0, 21.0, 0.0,
                             fs=500.0, duration=0.5, seed=0)
    assert np.allclose(ts.real, ts.real[0], atol=1e-15)
    assert np.allclose(ts.imag, ts.imag[0], atol=1e-15)


def test_timeseries_determinism():
    b_test, w_test = 242e-9, TWO_PI * 10.0
    a, b = (simulate_timeseries(D, G_PAR, MODEL, OMEGA_D, POWER, B_CENTER,
                                b_test, w_test, 21.0, 26e-9, fs=500.0,
                                duration=0.5, seed=9) for _ in range(2))
    assert np.array_equal(a.imag, b.imag)


def test_timeseries_noise_draw_order():
    """Noise is sigma = floor sqrt(fs / 2) times the first standard-normal
    draw of default_rng(seed) on .real, then the second on .imag."""
    b_test, w_test = 242e-9, TWO_PI * 10.0
    floor_v, fs, seed = 26e-9, 500.0, 9
    clean, noisy = (simulate_timeseries(D, G_PAR, MODEL, OMEGA_D, POWER,
                                        B_CENTER, b_test, w_test, 21.0, f,
                                        fs=fs, duration=0.5, seed=seed)
                     for f in (0.0, floor_v))
    sigma = floor_v * math.sqrt(fs / 2.0)
    rng = np.random.default_rng(seed)
    real = clean.real + sigma * rng.standard_normal(clean.size)
    imag = clean.imag + sigma * rng.standard_normal(clean.size)
    assert noisy.real.tobytes() == real.tobytes()
    assert noisy.imag.tobytes() == imag.tobytes()


def _slope_at_bias(bias_b):
    b = np.linspace(bias_b - 5e-5, bias_b + 5e-5, 101)
    v = bias_sweep_trace(spin_frequency_vs_field(D, G_PAR, b), MODEL,
                         OMEGA_D, POWER, 21.0)
    slopes, _ = dispersive_slope(b, v.imag)
    return abs(slopes[50])


def test_timeseries_tone_matches_slope_prediction():
    b_test, w_test = 242e-9, TWO_PI * 10.0
    ts = simulate_timeseries(D, G_PAR, MODEL, OMEGA_D, POWER, B_CENTER,
                             b_test, w_test, 21.0, 0.0, fs=2000.0,
                             duration=4.0, seed=0)
    freqs, asd = amplitude_density(ts.imag - np.mean(ts.imag), fs=2000.0)
    v_m = tone_rms(freqs, asd, 10.0)
    predicted = _slope_at_bias(B_CENTER) * b_test
    assert v_m == pytest.approx(predicted, rel=0.02)


def test_timeseries_tone_linearity():
    def tone(b_test):
        ts = simulate_timeseries(D, G_PAR, MODEL, OMEGA_D, POWER, B_CENTER,
                                 b_test, TWO_PI * 10.0, 21.0, 0.0, fs=2000.0,
                                 duration=4.0, seed=0)
        freqs, asd = amplitude_density(ts.imag - np.mean(ts.imag),
                                        fs=2000.0)
        return tone_rms(freqs, asd, 10.0)
    assert tone(484e-9) == pytest.approx(2.0 * tone(242e-9), rel=0.01)


def test_end_to_end_sensitivity_consistency():
    """Spectral eta on simulated data matches noise_floor / M within 5%."""
    b_test, w_test = 242e-9, TWO_PI * 10.0
    floor_v = 26e-9
    m_slope = _slope_at_bias(B_CENTER)
    predicted_eta = floor_v / m_slope
    for seed in range(10):
        ts = simulate_timeseries(D, G_PAR, MODEL, OMEGA_D, POWER, B_CENTER,
                                 b_test, w_test, 21.0, floor_v, fs=2000.0,
                                 duration=4.0, seed=seed)
        freqs, asd = amplitude_density(
            ts.imag - np.mean(ts.imag), fs=2000.0)
        v_m = tone_rms(freqs, asd, 10.0)
        e_n = noise_floor(freqs, asd, band=(50.0, 900.0), tone_freqs=(10.0,))
        eta = sensitivity(e_n, v_m, b_test)
        assert eta == pytest.approx(predicted_eta, rel=0.05), seed


def test_gain_covariance_leaves_eta_invariant():
    """Scaling the chain gain scales V_m and e_n together; eta is unchanged."""
    b_test, w_test = 242e-9, TWO_PI * 10.0
    def eta_at_gain(gain_db):
        scale = 10.0 ** ((gain_db - 21.0) / 20.0)
        ts = simulate_timeseries(D, G_PAR, MODEL, OMEGA_D, POWER, B_CENTER,
                                 b_test, w_test, gain_db, 26e-9 * scale,
                                 fs=2000.0, duration=2.0, seed=4)
        freqs, asd = amplitude_density(
            ts.imag - np.mean(ts.imag), fs=2000.0)
        v_m = tone_rms(freqs, asd, 10.0)
        e_n = noise_floor(freqs, asd, band=(50.0, 900.0), tone_freqs=(10.0,))
        return sensitivity(e_n, v_m, b_test)
    assert eta_at_gain(41.0) == pytest.approx(eta_at_gain(21.0), rel=1e-12)


# ---------------------------------------------------------------------------
# CSV outputs


def test_sweep_csv(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text(render_sweep_csv(path, np.array([1e-3, 2e-3, 3e-3]),
                                     np.array([0.1 - 0.1j, 0.2, 0.3 + 0.1j])))
    lines = path.read_text().splitlines()
    assert lines[0] == "b_tesla,absorptive_v,dispersive_v"
    assert [float(x) for x in lines[2].split(",")] == [2e-3, 0.2, 0.0]


def test_eta_table_csv(tmp_path):
    path = tmp_path / "eta.csv"
    path.write_text(render_eta_table_csv(path, np.array([31e-4]),
                                         np.array([11.0]),
                                         np.array([[9.7e-12]])))
    lines = path.read_text().splitlines()
    assert lines[0] == "b_gauss,p_dbm,eta_t_per_rthz"
    row = lines[1].split(",")
    assert float(row[0]) == pytest.approx(31.0)
    assert float(row[2]) == pytest.approx(9.7e-12)
