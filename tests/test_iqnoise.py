import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rubymag.config import parse_config
from rubymag.iqnoise import (DBC_PER_HZ, V2_PER_HZ, decompose_gamma,
                             noise_contribution_split, predict_noise_psd,
                             read_spectrum_csv, render_spectrum_csv,
                             two_sided_amplitude)
from oracle import reflection

TWO_PI = 2.0 * math.pi
DEFAULTS = parse_config({})


def positive_offsets(n_half=8, max_hz=1e6):
    return np.logspace(2, math.log10(max_hz), n_half)


def cavity_gamma(pos_hz=None):
    """Reflection of the spin-loaded cavity sampled at the carrier and at
    +- pos_hz around it."""
    if pos_hz is None:
        pos_hz = positive_offsets()
    offsets = TWO_PI * np.concatenate([-pos_hz[::-1], [0.0], pos_hz])
    model = {**DEFAULTS.model(), "g_s": 1.0, "g_eff": TWO_PI * 3.5e6}
    omega_s = DEFAULTS["ensemble"]["omega_s_ghz"]
    return np.array([reflection(model, omega_s, model["omega_c"] + o, 1e-5)
                     for o in offsets])


# ---------------------------------------------------------------------------
# two_sided_amplitude: a spectrum triple (offsets, density, unit) to the
# two-sided amplitude density


def test_noise_spectrum_validation():
    offsets = [1.0, 10.0]
    two_sided_amplitude(([1.0, 10.0], [-100.0, -110.0], DBC_PER_HZ), offsets)
    for spectrum in (([1.0, 10.0], [-100.0], DBC_PER_HZ),
                     ([10.0, 1.0], [-100.0, -110.0], DBC_PER_HZ),
                     ([0.0, 1.0], [-100.0, -110.0], DBC_PER_HZ),
                     ([1.0], [-100.0], "dBm")):
        with pytest.raises(ValueError):
            two_sided_amplitude(spectrum, offsets)


def ssb_power(spectrum, offsets_hz):
    """The single-sideband linear power density: half the square of the
    two-sided amplitude."""
    return two_sided_amplitude(spectrum, offsets_hz) ** 2 / 2.0


def test_db_linear_round_trip():
    spec = ([1e2, 1e3, 1e4], [-100.0, -120.0, -130.0], DBC_PER_HZ)
    linear = ssb_power(spec, spec[0])
    assert np.allclose(10.0 * np.log10(linear), spec[1], rtol=1e-12)
    assert linear[0] == pytest.approx(1e-10, rel=1e-12)


def test_resample_log_frequency_interpolation():
    spec = ([1e2, 1e4], [-100.0, -120.0], DBC_PER_HZ)
    mid = 10.0 * np.log10(ssb_power(spec, [1e3]))
    # geometric midpoint in log-f -> arithmetic midpoint in dB
    assert mid[0] == pytest.approx(-110.0, abs=1e-9)


def test_resample_zero_density_is_minus_infinite_db():
    """A zero V2_per_Hz density is -inf dB: it stays 0 at its own offset and
    makes every interval it bounds 0, while the other nodes keep their
    values, held flat outside the spectrum's range, even where numpy raises
    on a division by zero."""
    spec = ([1e2, 3e2, 1e3], [1e-12, 0.0, 4e-12], V2_PER_HZ)
    with np.errstate(divide="raise", invalid="raise"):
        got = two_sided_amplitude(
            spec, [50.0, 1e2, 2e2, 3e2, 5e2, 1e3, 2e3]) ** 2
    assert np.all(got[2:5] == 0.0)
    assert np.allclose(got[[0, 1, 5, 6]], [1e-12, 1e-12, 4e-12, 4e-12],
                       rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# decompose_gamma


def test_decomposition_sums_to_input():
    g = cavity_gamma()
    gp, gs = decompose_gamma(g)
    assert np.allclose(gp + gs, g, atol=1e-12)


def test_decomposition_parity():
    g = cavity_gamma()
    gp, gs = decompose_gamma(g)
    assert np.allclose(gp.real, gp.real[::-1], atol=1e-12)
    assert np.allclose(gp.imag, -gp.imag[::-1], atol=1e-12)
    assert np.allclose(gs.real, -gs.real[::-1], atol=1e-12)
    assert np.allclose(gs.imag, gs.imag[::-1], atol=1e-12)


def test_decompose_real_even_gives_zero_swap():
    g = np.array([0.5, 0.2, 0.1, 0.2, 0.5], dtype=complex)
    gp, gs = decompose_gamma(g)
    assert np.allclose(gs, 0.0, atol=1e-15)
    assert np.allclose(gp, g, atol=1e-15)


def test_decompose_imaginary_even_gives_zero_preserve():
    g = np.array([0.4j, 0.1j, 0.4j])
    gp, gs = decompose_gamma(g)
    assert np.allclose(gp, 0.0, atol=1e-15)
    assert np.allclose(gs, g, atol=1e-15)


@given(seed=st.integers(0, 1000), alpha=st.floats(-3, 3), beta=st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_decomposition_linearity_property(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    v1 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v2 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    p1, s1 = decompose_gamma(v1)
    p2, s2 = decompose_gamma(v2)
    pc, sc = decompose_gamma(alpha * v1 + beta * v2)
    assert np.allclose(pc, alpha * p1 + beta * p2, atol=1e-9)
    assert np.allclose(sc, alpha * s1 + beta * s2, atol=1e-9)


def test_decomposition_idempotent():
    g = cavity_gamma()
    gp, _ = decompose_gamma(g)
    gpp, gps = decompose_gamma(gp)
    assert np.allclose(gpp, gp, atol=1e-12)
    assert np.allclose(gps, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# predict_noise_psd / noise_contribution_split


def flat_spectrum(offsets_hz, value, unit):
    return offsets_hz, np.full(len(offsets_hz), value), unit


def test_zero_inputs_give_flat_floor():
    pos_hz = positive_offsets()
    g = cavity_gamma(pos_hz)
    amp = flat_spectrum(pos_hz, 0.0, V2_PER_HZ)
    phase = flat_spectrum(pos_hz, 0.0, V2_PER_HZ)
    out = predict_noise_psd(amp, phase, pos_hz, g, p0=1e-15)
    assert np.allclose(out, 1e-15, rtol=1e-12)


def test_constant_real_gamma_two_equal_phase_terms():
    pos_hz = np.array([1.0, 2.0, 3.0])
    g = np.full(7, -0.8, dtype=complex)
    phi2 = 4e-12                              # V^2/Hz, already two-sided
    amp = flat_spectrum(pos_hz, 0.0, V2_PER_HZ)
    phase = flat_spectrum(pos_hz, phi2, V2_PER_HZ)
    out = predict_noise_psd(amp, phase, pos_hz, g, p0=1e-13)
    assert np.allclose(out, 2.0 * phi2 * 0.8 ** 2 + 1e-13, rtol=1e-12)


def test_ssb_dbc_doubling_convention():
    pos_hz = np.array([1.0])
    g = np.ones(3, dtype=complex)
    amp = flat_spectrum(pos_hz, 0.0, V2_PER_HZ)
    dbc = -120.0
    phase = flat_spectrum(pos_hz, dbc, DBC_PER_HZ)
    out = predict_noise_psd(amp, phase, pos_hz, g, p0=0.0)
    # two equal phase terms, each with SSB->two-sided factor 2
    assert out[0] == pytest.approx(2 * 2 * 10 ** (dbc / 10), rel=1e-12)


def test_split_sum_equals_total():
    pos_hz = positive_offsets()
    g = cavity_gamma(pos_hz)
    amp = flat_spectrum(pos_hz, -150.0, DBC_PER_HZ)
    phase = flat_spectrum(pos_hz, -120.0, DBC_PER_HZ)
    pn, am = noise_contribution_split(amp, phase, pos_hz, g)
    total = predict_noise_psd(amp, phase, pos_hz, g, p0=2.5e-16)
    assert np.allclose(pn + am + 2.5e-16, total, rtol=1e-12)
    assert np.all(total >= 2.5e-16)


def test_gamma_and_offsets_checked_before_use():
    pos_hz = np.array([1.0, 2.0])
    spec = flat_spectrum(pos_hz, -120.0, DBC_PER_HZ)
    for g in (np.ones(4, dtype=complex), np.ones(6, dtype=complex),
              np.ones((5, 1), dtype=complex)):
        with pytest.raises(ValueError, match="2n \\+ 1 = 5"):
            predict_noise_psd(spec, spec, pos_hz, g, p0=0.0)
    for offsets in ([2.0, 1.0], [0.0, 1.0], [-1.0, 1.0], [1.0, 1.0],
                    [1.0, math.nan]):
        with pytest.raises(ValueError, match="strictly increasing"):
            noise_contribution_split(spec, spec, offsets,
                                     np.ones(5, dtype=complex))


def test_bundled_inputs_phase_noise_dominates():
    """With the packaged source spectra, PN >= 10x AM at every offset."""
    with resources.as_file(resources.files("rubymag.data")
                           / "phase_noise.csv") as p:
        phase = read_spectrum_csv(p)
    with resources.as_file(resources.files("rubymag.data")
                           / "amplitude_noise.csv") as p:
        amp = read_spectrum_csv(p)
    pos_hz = positive_offsets(n_half=25, max_hz=1e6)
    pn, am = noise_contribution_split(amp, phase, pos_hz,
                                      cavity_gamma(pos_hz))
    assert np.all(pn >= 10.0 * am)


# ---------------------------------------------------------------------------
# CSV


def test_spectrum_csv_round_trip(tmp_path):
    """render_spectrum_csv writes a V2_per_Hz density, the one unit a
    command writes, and read_spectrum_csv reads it and a dBc_per_Hz file
    back exactly."""
    offsets = np.array([1e2, 1e3, 1e4])
    density = np.array([5.9e-11, 1.07e-12, 3.02e-14])
    path = tmp_path / "spec.csv"
    path.write_text(render_spectrum_csv(path, offsets, density))
    back = read_spectrum_csv(path)
    assert back[2] == V2_PER_HZ
    assert np.allclose(back[0], offsets, rtol=0)
    assert np.allclose(back[1], density, rtol=0)
    path.write_text("offset_hz,value,unit\n100.0,-102.3,dBc_per_Hz\n"
                    "1000.0,-119.7,dBc_per_Hz\n10000.0,-135.2,dBc_per_Hz\n")
    back = read_spectrum_csv(path)
    assert back[2] == DBC_PER_HZ
    assert np.allclose(back[0], offsets, rtol=0)
    assert np.allclose(back[1], [-102.3, -119.7, -135.2], rtol=0)
