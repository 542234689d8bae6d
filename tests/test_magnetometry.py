import math
from dataclasses import replace

import numpy as np
import pytest

from rubymag.cavity import (CavityParams, DriveParams, EnsembleParams,
                            NonIdealityParams, dbm_to_watts,
                            single_spin_coupling)
from rubymag.constants import CONST
from rubymag.errors import (EmptyTable, NegativeRadicand, TooFewPoints,
                            TooFewSamples, UndersampledTestTone, ZeroKappaTh,
                            ZeroSignal, ZeroSlope, ZeroSpinLinewidth)
from rubymag.magnetometry import (SensitivityConfig, SweepTrace, ToneSpec,
                                  amplitude_spectrum, bias_sweep_trace,
                                  dispersive_slope, noise_floor, optimize_grid,
                                  phase_noise_budget, sensitivity,
                                  simulate_timeseries, spin_frequency_vs_field,
                                  thermal_limit, tone_rms, write_eta_table_csv,
                                  write_sweep_csv)
from rubymag.spins import (FieldVector, SpinSystem, build_hamiltonian,
                           eigensolve)

TWO_PI = 2.0 * math.pi
SYS = SpinSystem()
CAV = CavityParams()
G_S = single_spin_coupling(52.2e-9, TWO_PI * 11.4e9)
ENS = EnsembleParams(g_s=G_S, N=(TWO_PI * 3.5e6 / G_S) ** 2)
DRIVE = DriveParams(omega_d=TWO_PI * 11.4e9, power=dbm_to_watts(11.0))
NI = NonIdealityParams()

# bias field placing the +3/2 <-> +1/2 transition on the drive frequency
_SLOPE = SYS.g_par * CONST.mu_B / CONST.hbar          # rad/s per tesla
B_CENTER = (2.0 * abs(SYS.D) - DRIVE.omega_d) / _SLOPE


# ---------------------------------------------------------------------------
# types


def test_sweep_trace_validation():
    with pytest.raises(ValueError):
        SweepTrace(axis=[0.0, 2.0, 1.0], absorptive=[0, 0, 0],
                   dispersive=[0, 0, 0])
    with pytest.raises(ValueError):
        SweepTrace(axis=[0.0, 1.0], absorptive=[0, 0, 0], dispersive=[0, 0])
    trace = SweepTrace(axis=[3.0, 2.0, 1.0], absorptive=[1, 2, 3],
                       dispersive=[4, 5, 6])
    assert trace.axis[0] == 3.0


def test_config_validation():
    with pytest.raises(ValueError):
        ToneSpec(amplitude_rms=-1e-9, frequency=TWO_PI * 10)
    cfg = SensitivityConfig()
    assert cfg.G_db == 21.0 and cfg.T == 293.0
    assert cfg.ell_db == -6.0


# ---------------------------------------------------------------------------
# dispersive_slope


def test_slope_flat_trace_zero():
    x = np.linspace(0.0, 1e-3, 21)
    trace = SweepTrace(axis=x, absorptive=np.zeros(21),
                       dispersive=np.full(21, 0.7))
    slopes, m_max = dispersive_slope(trace)
    assert np.allclose(slopes, 0.0, atol=1e-9)
    assert m_max == pytest.approx(0.0, abs=1e-9)


def test_slope_exact_line():
    x = np.linspace(0.0, 1e-3, 21)
    a = 2994.0
    trace = SweepTrace(axis=x, absorptive=np.zeros(21), dispersive=a * x)
    slopes, m_max = dispersive_slope(trace)
    assert np.allclose(slopes, a, rtol=1e-9)
    assert m_max == pytest.approx(a, rel=1e-9)


def test_slope_quadratic_trace():
    x = np.linspace(-1.0, 1.0, 41)
    trace = SweepTrace(axis=x, absorptive=np.zeros(41), dispersive=x ** 2)
    slopes, m_max = dispersive_slope(trace)
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
    trace = SweepTrace(axis=x, absorptive=np.zeros(n), dispersive=y)
    slopes, m_max = dispersive_slope(trace)
    want = polyfit_slopes(x, y)
    scale = np.max(np.abs(want))
    assert np.allclose(slopes, want, rtol=0.0, atol=1e-10 * scale)
    assert m_max == pytest.approx(scale, rel=1e-10)


def test_slope_too_few_points():
    with pytest.raises(TooFewPoints):
        dispersive_slope(SweepTrace(axis=[0, 1, 2, 3], absorptive=[0] * 4,
                                    dispersive=[0] * 4))


# ---------------------------------------------------------------------------
# amplitude_spectrum and estimators


def test_spectrum_zero_input():
    freqs, asd = amplitude_spectrum(np.zeros(1024), fs=1e3)
    assert np.allclose(asd, 0.0, atol=0)
    assert freqs[0] == 0.0


def test_spectrum_white_noise_density():
    rng = np.random.default_rng(12)
    samples = rng.standard_normal(16384)
    freqs, asd = amplitude_spectrum(samples, fs=1e3)
    expected = math.sqrt(2.0 / 1e3)          # 0.0447 V/sqrt(Hz)
    assert np.mean(asd[1:-1]) == pytest.approx(expected, rel=0.05)


def test_spectrum_pure_tone_rms():
    fs, n = 1000.0, 4000
    t = np.arange(n) / fs
    samples = 1.0 * np.sin(TWO_PI * 50.0 * t)     # peak 1 V at a bin center
    freqs, asd = amplitude_spectrum(samples, fs=fs)
    assert tone_rms(freqs, asd, 50.0) == pytest.approx(0.7071, rel=0.01)


def test_spectrum_validation():
    with pytest.raises(TooFewSamples):
        amplitude_spectrum(np.zeros(8), fs=1e3)
    with pytest.raises(ValueError):
        amplitude_spectrum(np.zeros(64), fs=0.0)


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
    eta_th = thermal_limit(SensitivityConfig(), 2994.0)
    assert eta_th == pytest.approx(1.19e-12, rel=0.02)
    assert eta_th == pytest.approx(1.1e-12, rel=0.10)


def test_thermal_limit_trivial_cases():
    assert thermal_limit(SensitivityConfig(T=0.0), 2994.0) == 0.0
    base = thermal_limit(SensitivityConfig(), 2994.0)
    assert thermal_limit(SensitivityConfig(), 2 * 2994.0) \
        == pytest.approx(base / 2.0, rel=1e-12)
    with pytest.raises(ZeroSlope):
        thermal_limit(SensitivityConfig(), 0.0)


def test_phase_noise_budget_paper_values():
    budget = phase_noise_budget(26e-9, 13e-9, -129.5, SensitivityConfig())
    assert budget.e_p == pytest.approx(math.sqrt(507) * 1e-9, rel=1e-12)
    assert budget.e_p == pytest.approx(22e-9, abs=0.6e-9)
    assert budget.phi_required_dbc == pytest.approx(-140.0, abs=0.5)
    assert not budget.unbounded


def test_phase_noise_budget_degenerate_and_errors():
    budget = phase_noise_budget(13e-9, 13e-9, -129.5, SensitivityConfig())
    assert budget.e_p == 0.0
    assert budget.unbounded
    with pytest.raises(NegativeRadicand):
        phase_noise_budget(10e-9, 13e-9, -129.5, SensitivityConfig())


# ---------------------------------------------------------------------------
# optimize_grid


def test_optimize_additive_table():
    b = np.array([1.0, 2.0, 3.0])
    p = np.array([10.0, 20.0])
    eta = b[:, None] + p[None, :]
    eta_mag, eta_mw, arg_p, arg_b = optimize_grid(eta)
    assert np.allclose(eta_mag, b + 10.0)
    assert np.allclose(eta_mw, 1.0 + p)
    assert np.all(arg_p == 0)
    assert np.all(arg_b == 0)


def test_optimize_matches_brute_force_on_random_tables():
    rng = np.random.default_rng(3)
    for _ in range(20):
        eta = rng.uniform(1.0, 10.0, size=rng.integers(2, 8, size=2))
        eta_mag, eta_mw, arg_p, arg_b = optimize_grid(eta)
        for i in range(eta.shape[0]):
            assert eta_mag[i] == min(eta[i, :])
            assert eta[i, arg_p[i]] == eta_mag[i]
        for j in range(eta.shape[1]):
            assert eta_mw[j] == min(eta[:, j])
            assert eta[arg_b[j], j] == eta_mw[j]


def test_optimize_constant_table_and_ties():
    eta = np.full((3, 4), 2.5)
    eta_mag, eta_mw, arg_p, arg_b = optimize_grid(eta)
    assert np.allclose(eta_mag, 2.5) and np.allclose(eta_mw, 2.5)
    assert np.all(arg_p == 0) and np.all(arg_b == 0)   # ties -> lower index
    with pytest.raises(EmptyTable):
        optimize_grid(np.zeros((0, 3)))
    with pytest.raises(EmptyTable):
        optimize_grid(np.zeros(5))


# ---------------------------------------------------------------------------
# forward simulation


def _eigensolve_gap(b_signed):
    """+3/2 <-> +1/2 gap from the eigensolver, field along -z when B < 0."""
    fld = FieldVector(abs(b_signed), math.pi if b_signed < 0 else 0.0)
    sol = eigensolve(build_hamiltonian(SYS, fld))
    by_basis = {int(np.argmax(np.abs(sol.states[:, i]))): i for i in range(4)}
    return abs(sol.energies[by_basis[0]] - sol.energies[by_basis[1]])


def test_spin_frequency_matches_eigensolve_oracle():
    """The closed form equals the eigensolver gap across the level crossing
    at 2|D| hbar / (g_par mu_B) ~ 0.41 T and for fields along -z."""
    kink = 2.0 * abs(SYS.D) / _SLOPE
    b = np.concatenate([np.linspace(0.0, 0.6, 61), [kink - 1e-3, kink + 1e-3],
                        -np.linspace(1e-4, 0.6, 31)])
    oracle = np.array([_eigensolve_gap(float(x)) for x in b])
    got = spin_frequency_vs_field(SYS, b)
    assert np.allclose(got, oracle, rtol=1e-12, atol=0.0)


def test_spin_frequency_linearized_matches_eigensolve():
    """At low field the closed form, linear in B, equals the eigensolver."""
    b = np.linspace(1e-3, 5e-3, 9)
    exact = np.array([_eigensolve_gap(float(x)) for x in b])
    linear = spin_frequency_vs_field(SYS, b)
    assert np.allclose(exact, linear, rtol=1e-4)


def test_spin_frequency_interpolated_path_consistent():
    """A dense field array gives the same values as a sparse one."""
    b = np.linspace(2e-3, 4e-3, 500)
    dense = spin_frequency_vs_field(SYS, b)
    sparse = spin_frequency_vs_field(SYS, b[::100])
    assert np.allclose(dense[::100], sparse, rtol=1e-6)


def test_bias_sweep_dispersive_zero_crossing_and_slope():
    b = np.linspace(B_CENTER - 2e-4, B_CENTER + 2e-4, 201)
    trace = bias_sweep_trace(SYS, CAV, ENS, NI, DRIVE, b)
    # dispersive channel crosses zero near line center
    center = trace.dispersive[90:111]
    assert center.min() < 0.0 < center.max()
    _, m_max = dispersive_slope(trace)
    assert 500.0 < m_max < 10000.0


def test_bias_sweep_rejects_zero_spin_rates():
    b = np.linspace(B_CENTER - 2e-4, B_CENTER + 2e-4, 11)
    with pytest.raises(ZeroSpinLinewidth):
        bias_sweep_trace(SYS, CAV, replace(ENS, kappa_s=0.0), NI, DRIVE, b)
    with pytest.raises(ZeroKappaTh):
        bias_sweep_trace(SYS, CAV, replace(ENS, kappa_th=0.0), NI, DRIVE, b)


def test_timeseries_constant_without_test_field_or_noise():
    ts = simulate_timeseries(SYS, CAV, ENS, NI, DRIVE, B_CENTER,
                             ToneSpec(0.0, TWO_PI * 10.0), 21.0, 0.0,
                             fs=500.0, duration=0.5, seed=0)
    assert np.allclose(ts.absorptive, ts.absorptive[0], atol=1e-15)
    assert np.allclose(ts.dispersive, ts.dispersive[0], atol=1e-15)


def test_timeseries_determinism_and_undersampling():
    spec = ToneSpec(242e-9, TWO_PI * 10.0)
    a = simulate_timeseries(SYS, CAV, ENS, NI, DRIVE, B_CENTER, spec, 21.0,
                            26e-9, fs=500.0, duration=0.5, seed=9)
    b = simulate_timeseries(SYS, CAV, ENS, NI, DRIVE, B_CENTER, spec, 21.0,
                            26e-9, fs=500.0, duration=0.5, seed=9)
    assert np.array_equal(a.dispersive, b.dispersive)
    with pytest.raises(UndersampledTestTone):
        simulate_timeseries(SYS, CAV, ENS, NI, DRIVE, B_CENTER, spec, 21.0,
                            0.0, fs=15.0, duration=1.0)


def _slope_at_bias(bias_b):
    b = np.linspace(bias_b - 5e-5, bias_b + 5e-5, 101)
    trace = bias_sweep_trace(SYS, CAV, ENS, NI, DRIVE, b)
    slopes, _ = dispersive_slope(trace)
    return abs(slopes[50])


def test_timeseries_tone_matches_slope_prediction():
    spec = ToneSpec(242e-9, TWO_PI * 10.0)
    ts = simulate_timeseries(SYS, CAV, ENS, NI, DRIVE, B_CENTER, spec, 21.0,
                             0.0, fs=2000.0, duration=4.0, seed=0)
    freqs, asd = amplitude_spectrum(ts.dispersive - np.mean(ts.dispersive),
                                    fs=ts.sample_rate)
    v_m = tone_rms(freqs, asd, 10.0)
    predicted = _slope_at_bias(B_CENTER) * spec.amplitude_rms
    assert v_m == pytest.approx(predicted, rel=0.02)


def test_timeseries_tone_linearity():
    base = ToneSpec(242e-9, TWO_PI * 10.0)
    double = ToneSpec(484e-9, TWO_PI * 10.0)
    def tone(spec):
        ts = simulate_timeseries(SYS, CAV, ENS, NI, DRIVE, B_CENTER, spec,
                                 21.0, 0.0, fs=2000.0, duration=4.0, seed=0)
        freqs, asd = amplitude_spectrum(ts.dispersive - np.mean(ts.dispersive),
                                        fs=ts.sample_rate)
        return tone_rms(freqs, asd, 10.0)
    assert tone(double) == pytest.approx(2.0 * tone(base), rel=0.01)


def test_end_to_end_sensitivity_consistency():
    """Spectral eta on simulated data matches noise_floor / M within 5%."""
    spec = ToneSpec(242e-9, TWO_PI * 10.0)
    floor_v = 26e-9
    m_slope = _slope_at_bias(B_CENTER)
    predicted_eta = floor_v / m_slope
    for seed in range(10):
        ts = simulate_timeseries(SYS, CAV, ENS, NI, DRIVE, B_CENTER, spec,
                                 21.0, floor_v, fs=2000.0, duration=4.0,
                                 seed=seed)
        freqs, asd = amplitude_spectrum(
            ts.dispersive - np.mean(ts.dispersive), fs=ts.sample_rate)
        v_m = tone_rms(freqs, asd, 10.0)
        e_n = noise_floor(freqs, asd, band=(50.0, 900.0), tone_freqs=(10.0,))
        eta = sensitivity(e_n, v_m, spec.amplitude_rms)
        assert eta == pytest.approx(predicted_eta, rel=0.05), seed


def test_gain_covariance_leaves_eta_invariant():
    """Scaling the chain gain scales V_m and e_n together; eta is unchanged."""
    spec = ToneSpec(242e-9, TWO_PI * 10.0)
    def eta_at_gain(gain_db):
        scale = 10.0 ** ((gain_db - 21.0) / 20.0)
        ts = simulate_timeseries(SYS, CAV, ENS, NI, DRIVE, B_CENTER, spec,
                                 gain_db, 26e-9 * scale, fs=2000.0,
                                 duration=2.0, seed=4)
        freqs, asd = amplitude_spectrum(
            ts.dispersive - np.mean(ts.dispersive), fs=ts.sample_rate)
        v_m = tone_rms(freqs, asd, 10.0)
        e_n = noise_floor(freqs, asd, band=(50.0, 900.0), tone_freqs=(10.0,))
        return sensitivity(e_n, v_m, spec.amplitude_rms)
    assert eta_at_gain(41.0) == pytest.approx(eta_at_gain(21.0), rel=1e-12)


# ---------------------------------------------------------------------------
# CSV outputs


def test_sweep_csv(tmp_path):
    trace = SweepTrace(axis=[1e-3, 2e-3, 3e-3], absorptive=[0.1, 0.2, 0.3],
                       dispersive=[-0.1, 0.0, 0.1])
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "b_tesla,absorptive_v,dispersive_v"
    assert [float(x) for x in lines[2].split(",")] == [2e-3, 0.2, 0.0]


def test_eta_table_csv(tmp_path):
    path = tmp_path / "eta.csv"
    write_eta_table_csv(path, np.array([31e-4]), np.array([11.0]),
                        np.array([[9.7e-12]]))
    lines = path.read_text().splitlines()
    assert lines[0] == "b_gauss,p_dbm,eta_t_per_rthz"
    row = lines[1].split(",")
    assert float(row[0]) == pytest.approx(31.0)
    assert float(row[2]) == pytest.approx(9.7e-12)
