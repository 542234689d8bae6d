"""Acceptance criteria, one test per criterion, at the stated tolerances.

Criterion 13 uses wide-swept synthetic grids (omega_s +-50 MHz across the
cavity, omega_d +-5 MHz) so that the broad spin line is actually sampled;
see the repository notes for the identifiability analysis behind that choice.
Criterion 16's second (near-detuned) clause checks the dispersive repulsion of
the dip from omega_s against its closed form.  A pull toward omega_s larger
than kappa_c cannot coexist with criterion 04: the shift g_eff^2 Delta /
(Delta^2 + kappa_s^2/4 + ...) points away from omega_s and never exceeds
g_eff^2 / kappa_s = xi kappa_c / 4, about 0.44 kappa_c at xi = 1.77.
"""

import itertools
import math
from importlib import resources

import numpy as np
import pytest

from rubymag.calibration import solenoid_axial_field
from rubymag.cavity import (cooperativity, dbm_to_watts,
                            kappa_th_threshold_power, single_spin_coupling,
                            watts_to_dbm)
from rubymag import constants as CONST
from rubymag.config import parse_config
from rubymag.fitting import (fit_crossing, relaxation_times,
                             simulate_crossing)
from rubymag.iqnoise import (decompose_gamma, noise_contribution_split,
                             read_spectrum_csv)
from rubymag.magnetometry import (bias_sweep_trace, dispersive_slope,
                                  phase_noise_budget, sensitivity,
                                  spin_frequency_vs_field, thermal_limit)
from rubymag.spins import (build_hamiltonian, eigensolve, energy_level_sweep,
                           transition)
from rubymag.thermal import (boltzmann_populations, polarization,
                             total_interrogated_spins)
from oracle import (analytic_energies_axial, dip_trajectory,
                    field_from_slope, normalize_grid,
                    optical_power_equivalent, reflection, reflection_of_lines)
from timeseries import (amplitude_density, noise_floor, simulate_timeseries,
                        tone_rms)

TWO_PI = 2.0 * math.pi
DEFAULTS = parse_config({})
D, G_PAR, G_PERP = (DEFAULTS["spin"][key]
                    for key in ("d_ghz", "g_par", "g_perp"))
G_S = single_spin_coupling(52.2e-9, TWO_PI * 11.4e9)
# the paper's fitted g_eff = 2 pi x 3.5 MHz with the modal-volume g_s
PHYS = {**DEFAULTS.model(), "g_s": G_S, "g_eff": TWO_PI * 3.5e6}
OMEGA_C = PHYS["omega_c"]
KAPPA_C = PHYS["kappa_c0"] + PHYS["kappa_c1"]


def test_criterion_01_boltzmann_populations():
    populations = boltzmann_populations(D, 293.0)
    assert populations[0] == pytest.approx(0.25024, abs=1e-5)
    assert populations[1] == pytest.approx(0.25024, abs=1e-5)
    assert populations[2] == pytest.approx(0.24976, abs=1e-5)
    assert populations[3] == pytest.approx(0.24976, abs=1e-5)
    assert polarization(populations) == pytest.approx(4.7e-4, abs=1e-5)


def test_criterion_02_interrogated_spins():
    m = DEFAULTS["material"]
    n_total = total_interrogated_spins(
        m["v_cav_mm3"], m["v_cell_nm3"], m["alpha_cr"], m["m_al2o3_g_per_mol"],
        m["m_cr2o3_g_per_mol"], m["n_cell"])
    assert n_total == pytest.approx(8e17, rel=0.05)
    populations = boltzmann_populations(D, 293.0)
    assert polarization(populations) * n_total \
        == pytest.approx(3.5e14, rel=0.15)


def test_criterion_03_coupling_consistency():
    g_s = single_spin_coupling(52.2e-9, TWO_PI * 11.4e9)
    assert g_s * math.sqrt(3.5e14) == pytest.approx(TWO_PI * 3.5e6, rel=0.10)


def test_criterion_04_cooperativity():
    assert cooperativity(PHYS) == pytest.approx(1.8, abs=0.05)


def test_criterion_05_threshold_power():
    p = kappa_th_threshold_power(T1=2.6e-6, T2=5.5e-9, g_s=G_S,
                                 omega_d=TWO_PI * 11.4e9,
                                 kappa_c=TWO_PI * 660e3)
    assert watts_to_dbm(p) == pytest.approx(2.0, abs=0.5)


def test_criterion_06_relaxation_times():
    t1, t2 = relaxation_times(PHYS)
    # stated values are the computed times rounded to two significant figures
    assert float(f"{t2:.2g}") == 7.6e-9
    assert float(f"{t1:.2g}") == 1.3e-6
    assert t2 == pytest.approx(7.6e-9, rel=0.02)
    assert t1 == pytest.approx(1.3e-6, rel=0.021)


def test_criterion_07_sensitivity():
    eta = sensitivity(26e-9, 0.646e-3, 242e-9)
    assert eta == pytest.approx(9.7e-12, rel=0.02)


def test_criterion_08_thermal_limit():
    # the paper's chain gain of 21 dB at 293 K
    eta_th = thermal_limit(21.0, 293.0, 2994.0)
    assert eta_th == pytest.approx(1.1e-12, rel=0.10)


def test_criterion_09_phase_noise_budget():
    # the paper's phase-noise margin of -6 dB
    e_p, phi_required = phase_noise_budget(26e-9, 13e-9, -129.5, -6.0)
    assert e_p == pytest.approx(math.sqrt(26.0 ** 2 - 13.0 ** 2) * 1e-9,
                                rel=1e-12)
    assert phi_required == pytest.approx(-140.0, abs=0.5)
    # the quadrature formula above evaluates to 22.517 nV, 0.017 nV outside
    # the stated 22 +- 0.5 band; asserted as stated and documented as a
    # rounding inconsistency rather than loosened.
    assert e_p == pytest.approx(22e-9, abs=0.5e-9)


def test_criterion_10_calibration():
    c = DEFAULTS["calibration"]
    b_solenoid = solenoid_axial_field(c["n_turns"], c["coil_radius_mm"],
                                      c["coil_distance_mm"], 6.9e-3)
    assert b_solenoid == pytest.approx(220e-9, rel=0.01)
    b_slope = field_from_slope(0.646e-3, 2994.0)
    assert b_slope == pytest.approx(216e-9, rel=0.01)
    for value in (242e-9, b_solenoid, 233e-9, b_slope):
        assert abs(value - 242e-9) / 242e-9 < 0.11


def test_criterion_11_optical_power_equivalent():
    p = optical_power_equivalent(3.5e14, TWO_PI * 5.6e14, TWO_PI * 120e3, 3.0)
    assert p == pytest.approx(300.0, rel=0.05)


def test_criterion_12_axial_spectroscopy():
    energies, states = eigensolve(build_hamiltonian(
        D, G_PAR, G_PERP, 31e-4, 0.0))
    order = np.argsort([int(np.argmax(np.abs(states[:, i])))
                        for i in range(4)])
    freq = abs(energies[order[0]] - energies[order[1]])
    assert TWO_PI * 11.39e9 <= freq <= TWO_PI * 11.42e9
    rng = np.random.default_rng(0)
    for b in rng.uniform(0.0, 0.5, 1000):
        energies, _ = eigensolve(build_hamiltonian(
            D, G_PAR, G_PERP, float(b), 0.0))
        exact = np.sort(analytic_energies_axial(D, G_PAR, float(b)))
        scale = np.max(np.abs(exact))
        assert np.allclose(np.sort(energies), exact,
                           rtol=0, atol=1e-9 * scale)


# --- criterion 13 -----------------------------------------------------------

_NI_TRUTH = {"o_r": -0.008, "o_i": 0.12, "A": 0.003, "b": 1e-9, "psi": 0.14,
             "tau": -1.2e-8, "omega_s_off": -7.3e6, "omega_d_off": -5.6e5}


def _wide_50x50(power_dbm=0.0):
    """(omega_s, omega_d, power) of criterion 13's grid."""
    return (np.linspace(TWO_PI * 11.35e9, TWO_PI * 11.45e9, 50),
            np.linspace(TWO_PI * 11.395e9, TWO_PI * 11.405e9, 50),
            dbm_to_watts(power_dbm))


def _fit_errors(noise_sigma, data_seed, guess_seed):
    ws, wd, power = _wide_50x50()
    rng = np.random.default_rng(guess_seed)
    p = lambda x: x * rng.uniform(0.8, 1.2)
    guess = {**PHYS, **{name: p(PHYS[name]) for name in (
        "kappa_c0", "kappa_c1", "g_eff", "kappa_s", "kappa_th")}}
    values = simulate_crossing({**PHYS, **_NI_TRUTH}, ws, wd, power,
                               noise_sigma, seed=data_seed)
    res = fit_crossing(ws, wd, normalize_grid(values), power,
                       {**guess, **_NI_TRUTH})
    p = res.params
    return {
        "kappa_c": abs((p["kappa_c0"] + p["kappa_c1"]) / KAPPA_C - 1),
        **{name: abs(p[name] / PHYS[name] - 1)
           for name in ("kappa_c1", "kappa_s", "g_eff", "kappa_th")},
    }


@pytest.mark.slow
def test_criterion_13_fit_round_trip():
    clean = _fit_errors(0.0, data_seed=200, guess_seed=100)
    for name in ("g_eff", "kappa_c", "kappa_c1", "kappa_s"):
        assert clean[name] < 0.05, (name, clean[name])
    assert clean["kappa_th"] < 0.20, clean["kappa_th"]
    noisy = _fit_errors(0.01, data_seed=200, guess_seed=100)
    for name in ("g_eff", "kappa_c", "kappa_c1", "kappa_s"):
        assert noisy[name] < 0.10, (name, noisy[name])
    assert noisy["kappa_th"] < 0.30, noisy["kappa_th"]


def test_criterion_14_noise_model_properties():
    pos = np.logspace(2, 6, 25)
    offsets = TWO_PI * np.concatenate([-pos[::-1], [0.0], pos])
    model = {**PHYS, "g_s": 1.0}
    omega_s = DEFAULTS["ensemble"]["omega_s_ghz"]
    values = np.array([reflection(model, omega_s, OMEGA_C + o, 1e-5)
                       for o in offsets])
    gp, gs = decompose_gamma(values)
    assert np.allclose(gp + gs, values, atol=1e-12)
    _, even_s = decompose_gamma(np.array([0.5, 0.2, 0.5], dtype=complex))
    assert np.allclose(even_s, 0.0, atol=1e-15)
    with resources.as_file(resources.files("rubymag.data")
                           / "phase_noise.csv") as p:
        phase = read_spectrum_csv(p)
    with resources.as_file(resources.files("rubymag.data")
                           / "amplitude_noise.csv") as p:
        amp = read_spectrum_csv(p)
    pn, am = noise_contribution_split(amp, phase, pos, values)
    assert np.all(pn >= 10.0 * am)


def test_criterion_15_end_to_end_consistency():
    omega_d, power = TWO_PI * 11.4e9, dbm_to_watts(11.0)
    model = PHYS
    slope = G_PAR * CONST.mu_B / CONST.hbar
    b_center = (2.0 * abs(D) - omega_d) / slope
    b_test, w_test = 242e-9, TWO_PI * 10.0

    b = np.linspace(b_center - 5e-5, b_center + 5e-5, 101)
    v = bias_sweep_trace(spin_frequency_vs_field(D, G_PAR, b), model,
                         omega_d, power, 21.0)
    slopes, _ = dispersive_slope(b, v.imag)
    m_here = abs(slopes[50])

    ts = simulate_timeseries(D, G_PAR, model, omega_d, power, b_center,
                             b_test, w_test, 21.0, 0.0, fs=2000.0,
                             duration=4.0, seed=0)
    freqs, asd = amplitude_density(ts.imag - np.mean(ts.imag), fs=2000.0)
    v_m = tone_rms(freqs, asd, 10.0)
    assert v_m == pytest.approx(m_here * b_test, rel=0.02)

    floor_v = 26e-9
    predicted_eta = floor_v / m_here
    for seed in range(10):
        ts = simulate_timeseries(D, G_PAR, model, omega_d, power, b_center,
                                 b_test, w_test, 21.0, floor_v, fs=2000.0,
                                 duration=4.0, seed=seed)
        freqs, asd = amplitude_density(
            ts.imag - np.mean(ts.imag), fs=2000.0)
        v_m = tone_rms(freqs, asd, 10.0)
        e_n = noise_floor(freqs, asd, band=(50.0, 900.0), tone_freqs=(10.0,))
        eta = sensitivity(e_n, v_m, b_test)
        assert eta == pytest.approx(predicted_eta, rel=0.05), seed


def _dip_pull_toward_spin(detuning):
    """Signed displacement of the reflection dip toward omega_s, rad/s."""
    omega_s = OMEGA_C + detuning
    omega_d = np.linspace(OMEGA_C - TWO_PI * 5e6, OMEGA_C + TWO_PI * 5e6, 801)
    values = simulate_crossing(PHYS, np.array([omega_s - 1.0, omega_s,
                                               omega_s + 1.0]),
                               omega_d, dbm_to_watts(0.0))
    dip = dip_trajectory(omega_d, values)[1]
    return math.copysign(1.0, detuning) * (dip - OMEGA_C)


def test_criterion_16_avoided_crossing():
    # far detuned: bare-cavity behavior, pull below kappa_c / 10
    assert abs(_dip_pull_toward_spin(TWO_PI * 200e6)) < KAPPA_C / 10.0
    # near detuned: the ensemble repels the dip from omega_s.  The loaded
    # denominator's imaginary part is (omega_d - omega_c)
    # - g_eff^2 delta / (delta^2 + kappa_s^2/4 + s0 kappa_s/2) with
    # delta = omega_d - omega_s and s0 = g_s^2 n_cav / kappa_th, so the dip
    # sits near omega_c - g_eff^2 Delta / (Delta^2 + ...): a repulsion bounded
    # by g_eff^2 / kappa_s = xi kappa_c / 4 at every detuning and power.
    detuning = TWO_PI * 20e6
    n_cav = dbm_to_watts(0.0) / (CONST.hbar * OMEGA_C * KAPPA_C)
    s0 = G_S ** 2 * n_cav / PHYS["kappa_th"]
    kappa_s = PHYS["kappa_s"]
    expected = -PHYS["g_eff"] ** 2 * detuning / (
        detuning ** 2 + kappa_s ** 2 / 4.0 + s0 * kappa_s / 2.0)
    grid_step = TWO_PI * 10e6 / 800
    pull = _dip_pull_toward_spin(detuning)
    assert pull < 0.0
    assert pull == pytest.approx(expected, abs=grid_step)
    assert abs(pull) > KAPPA_C / 10.0


def test_off_axis_mixing_allows_the_line_forbidden_on_axis():
    """PAPER.md's second orientation claim: off-axis mixing makes a
    transition allowed that is forbidden at theta = 0.

    At each tilt, the line followed is the one steep line (|slope| above
    40 GHz/T; at theta = 0 the Delta m = 2 line +3/2 <-> -1/2 at -56 GHz/T)
    whose frequency crosses the 11.4 GHz drive between 0.5 and 100 G.  Its
    drive strength |<i|S_x|j>|^2, interpolated to the crossing, is 0 on
    axis and grows with every step of the tilt.
    """
    b_values = np.linspace(0.5e-4, 100e-4, 200)
    target = TWO_PI * 11.4e9
    strengths = []
    for theta_deg in (0.0, 15.0, 30.0, 45.0, 60.0):
        sol = eigensolve(build_hamiltonian(
            D, G_PAR, G_PERP, b_values, math.radians(theta_deg)))
        steep = []
        for i, j in itertools.combinations(range(4), 2):
            freq, amp = transition(*sol, i, j)
            for k in np.flatnonzero((freq[:-1] > target)
                                    != (freq[1:] > target)):
                slope_hz_per_t = (freq[k + 1] - freq[k]) \
                    / (b_values[k + 1] - b_values[k]) / TWO_PI
                if abs(slope_hz_per_t) > 40e9:
                    t = (target - freq[k]) / (freq[k + 1] - freq[k])
                    steep.append(amp[k] + t * (amp[k + 1] - amp[k]))
        assert len(steep) == 1, (theta_deg, steep)
        strengths.append(steep[0])
    assert strengths[0] < 1e-12, strengths
    assert np.all(np.diff(strengths) > 0), strengths


def test_off_axis_mixing_makes_the_response_non_linear_in_field():
    """PAPER.md's second orientation claim, second half: off tilt, the
    response is non-linear in field, with a local extremum near the desired
    transition.

    Levels are tracked across 0.5-3000 G (6000 points) by energy_level_sweep,
    whose tracked states give a line's drive strength.
    An extremum is an interior point where a pair's transition frequency
    turns, within 1 GHz of the 11.4 GHz drive.  On axis and at small tilts
    every line is monotone there.  At 60 degrees levels (0, 2) have a minimum
    at 272.5 G and 11.432 GHz, with drive strength |<i|S_x|j>|^2 = 0.52, and
    stay within 5 MHz of it from 200 to 350 G.
    """
    b_values = np.linspace(0.5e-4, 3000e-4, 6000)
    target = TWO_PI * 11.4e9

    def extrema(theta_deg):
        theta = math.radians(theta_deg)
        levels, states = energy_level_sweep(D, G_PAR, G_PERP, theta, b_values)
        found = []
        for i, j in itertools.combinations(range(4), 2):
            freq = np.abs(levels[:, j] - levels[:, i])
            step = np.sign(np.diff(freq))
            for k in np.flatnonzero(step[:-1] != step[1:]) + 1:
                if abs(freq[k] - target) < TWO_PI * 1e9:
                    found.append(((i, j), k, freq,
                                  transition(levels[k], states[k], i, j)[1]))
        return found

    for theta_deg in (0.0, 5.0, 10.0, 20.0):
        assert extrema(theta_deg) == [], theta_deg
    [(pair, k, freq, strength)] = extrema(60.0)
    assert pair == (0, 2)
    assert freq[k - 1] > freq[k] < freq[k + 1]
    assert b_values[k] == pytest.approx(272.5e-4, abs=1e-4)
    assert freq[k] / TWO_PI == pytest.approx(11.432e9, abs=1e6)
    assert strength > 0.1
    window = freq[(b_values >= 200e-4) & (b_values <= 350e-4)] / TWO_PI
    assert window.max() - window.min() < 5e6


def test_transverse_sensitivity_against_axial():
    """PAPER.md's third orientation claim, first half: the sensitivity at
    theta = 90 degrees is within 1 % of that at 0 degrees.  Not reproduced:
    the model puts them 2.5 % apart, and the test pins the model's value.

    At each orientation, omega_s(B) is the tracked line that crosses the
    11.4 GHz drive between 20 and 45 G with drive strength |<i|S_x|j>|^2
    above 0.5: levels (1, 3) at 0 degrees, crossing at 32.15 G with
    -27.99 GHz/T and strength 0.750, and at 90 degrees a line crossing at
    32.54 G with -27.32 GHz/T and strength 0.762.  At 90 degrees levels 0
    and 1 stay within 23 kHz of each other, and which of them carries the
    strength is eigh's basis choice (here (0, 2), while (1, 2) carries 0),
    so that line is picked by strength, not by index.  Each omega_s goes
    through bias_sweep_trace on the default config, and eta = e_n / M_max,
    so eta(90) / eta(0) = M_max(0) / M_max(90) = 2101.1 / 2050.6 = 1.0246.
    The slope ratio 27.99 / 27.32 carries it.  The model's g_s does not
    depend on the line; scaling it by sqrt(0.762 / 0.750) at 90 degrees
    gives 1.023.
    """
    b_values = np.linspace(20e-4, 45e-4, 2501)
    omega_d, power = (DEFAULTS["drive"]["omega_d_ghz"],
                      DEFAULTS["drive"]["power_dbm"])

    def allowed_line(theta_deg):
        sweep = energy_level_sweep(D, G_PAR, G_PERP, math.radians(theta_deg),
                                   b_values)
        lines = []
        for i, j in itertools.combinations(range(4), 2):
            freq, strength = transition(*sweep, i, j)
            k = np.flatnonzero((freq[:-1] > omega_d) != (freq[1:] > omega_d))
            if k.size == 1 and strength[k[0]] > 0.5:
                lines.append(((i, j), int(k[0]), freq, strength[k[0]]))
        [(pair, k, freq, strength)] = lines
        slope = (freq[k + 1] - freq[k]) / (b_values[k + 1] - b_values[k])
        v = bias_sweep_trace(freq, DEFAULTS.model(), omega_d, power,
                             DEFAULTS["sweep"]["chain_gain_db"])
        _, m_max = dispersive_slope(b_values, v.imag)
        return pair, b_values[k], slope / TWO_PI, strength, m_max

    pair, b_0, slope_0, strength_0, m_0 = allowed_line(0.0)
    assert pair == (1, 3)
    assert b_0 == pytest.approx(32.15e-4, abs=1e-6)
    assert slope_0 == pytest.approx(-27.99e9, rel=1e-3)
    assert strength_0 == pytest.approx(0.750, abs=1e-3)
    assert m_0 == pytest.approx(2101.1, rel=1e-4)
    _, b_90, slope_90, strength_90, m_90 = allowed_line(90.0)
    assert b_90 == pytest.approx(32.54e-4, abs=1e-6)
    assert slope_90 == pytest.approx(-27.32e9, rel=1e-3)
    assert strength_90 == pytest.approx(0.762, abs=1e-3)
    assert m_90 == pytest.approx(2050.6, rel=1e-4)
    ratio = m_0 / m_90
    assert ratio == pytest.approx(1.0246, rel=1e-3)
    assert ratio == pytest.approx(slope_0 / slope_90, rel=1e-3)


def test_transverse_sensitivity_needs_alignment():
    """PAPER.md's third orientation claim, second half: theta = 90 degrees
    needs the bias field aligned to better than 1 degree.  Not reproduced
    for the first degree: the model pins 1 degree off 90 at 0.52 % more eta,
    and only the second degree costs more than 1 %, 1.56 %.

    Off 90 degrees the 90-degree line splits in two that share level 2: at
    89 degrees (1, 2) crosses the 11.4 GHz drive at 31.69 G and (0, 2) at
    33.44 G, with |<i|S_x|j>|^2 of 0.377 and 0.385, 1.7 G apart against the
    about 15 G that kappa_s spans; at 88 degrees they are 3.5 G apart.  Pi
    is summed over every line that crosses the drive between 20 and 45 G,
    each weighted by its strength at each field over the 0-degree line's
    0.750 (oracle.reflection_of_lines), so at 0 degrees the sum is the
    one-line model.  The weight scales g_eff^2 and not the saturation:
    scaling both, as if each line saturated alone, puts eta(89.5) at 0.807
    eta(0) against 1.023 eta(0) at 90 degrees, a jump where the two lines
    merge into one.  eta = e_n / M_max, so eta(theta) / eta(0) =
    M_max(0) / M_max(theta): 1.0160 at 90, 1.0213 at 89 and 1.0373 at 88
    degrees.
    """
    b_values = np.linspace(20e-4, 45e-4, 2501)
    omega_d, power = (DEFAULTS["drive"]["omega_d_ghz"],
                      DEFAULTS["drive"]["power_dbm"])

    def lines_and_slope(theta_deg):
        sweep = energy_level_sweep(D, G_PAR, G_PERP, math.radians(theta_deg),
                                   b_values)
        lines, found = [], {}
        for i, j in itertools.combinations(range(4), 2):
            freq, strength = transition(*sweep, i, j)
            k = np.flatnonzero((freq[:-1] > omega_d) != (freq[1:] > omega_d))
            if k.size == 1:
                lines.append((freq, strength / 0.750))
                found[i, j] = (b_values[k[0]], strength[k[0]])
        gamma = reflection_of_lines(DEFAULTS.model(), lines, omega_d, power)
        return found, dispersive_slope(b_values, gamma.imag)[1]

    found_0, m_0 = lines_and_slope(0.0)
    assert list(found_0) == [(1, 3)]
    assert found_0[1, 3][1] == pytest.approx(0.750, abs=1e-3)
    found_89, m_89 = lines_and_slope(89.0)
    assert list(found_89) == [(0, 2), (1, 2)]
    assert [b for b, _ in found_89.values()] == pytest.approx(
        [33.44e-4, 31.69e-4], abs=1e-6)
    assert [s for _, s in found_89.values()] == pytest.approx(
        [0.385, 0.377], abs=1e-3)
    found_88, m_88 = lines_and_slope(88.0)
    (b_a, _), (b_b, _) = found_88.values()
    assert b_a - b_b == pytest.approx(3.5e-4, abs=0.1e-4)
    _, m_90 = lines_and_slope(90.0)
    eta = {theta: m_0 / m for theta, m in ((90, m_90), (89, m_89), (88, m_88))}
    assert eta[90] == pytest.approx(1.0160, rel=1e-4)
    assert eta[89] == pytest.approx(1.0213, rel=1e-4)
    assert eta[88] == pytest.approx(1.0373, rel=1e-4)
    # monotone in the misalignment; the first degree costs under 1 %
    assert eta[89] / eta[90] - 1.0 == pytest.approx(0.0052, abs=1e-4)
    assert eta[88] / eta[89] - 1.0 == pytest.approx(0.0156, abs=1e-4)
    assert eta[90] < eta[89] < eta[88]
