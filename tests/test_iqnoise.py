import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rubymag.cavity import CavityParams, DriveParams, EnsembleParams, reflection
from rubymag.errors import AsymmetricGrid
from rubymag.iqnoise import (DBC_PER_HZ, V2_PER_HZ, NoiseSpectrum,
                             SampledGamma, decompose_gamma,
                             noise_contribution_split, predict_noise_psd,
                             read_spectrum_csv, write_spectrum_csv)

TWO_PI = 2.0 * math.pi


def symmetric_offsets(n_half=8, max_hz=1e6):
    pos = np.logspace(2, math.log10(max_hz), n_half)
    return TWO_PI * np.concatenate([-pos[::-1], [0.0], pos])


def cavity_gamma(offsets=None):
    """Reflection of the spin-loaded cavity sampled around the carrier."""
    if offsets is None:
        offsets = symmetric_offsets()
    cav = CavityParams()
    ens = EnsembleParams(g_s=1.0, N=(TWO_PI * 3.5e6) ** 2)
    values = np.array([
        reflection(cav, ens, DriveParams(omega_d=cav.omega_c + o, power=1e-5))
        for o in offsets])
    return SampledGamma(offsets=offsets, values=values)


# ---------------------------------------------------------------------------
# types


def test_noise_spectrum_validation():
    NoiseSpectrum(offsets=[1.0, 10.0], density=[-100.0, -110.0],
                  unit=DBC_PER_HZ)
    with pytest.raises(ValueError):
        NoiseSpectrum(offsets=[1.0, 10.0], density=[-100.0], unit=DBC_PER_HZ)
    with pytest.raises(ValueError):
        NoiseSpectrum(offsets=[10.0, 1.0], density=[-100.0, -110.0],
                      unit=DBC_PER_HZ)
    with pytest.raises(ValueError):
        NoiseSpectrum(offsets=[0.0, 1.0], density=[-100.0, -110.0],
                      unit=DBC_PER_HZ)
    with pytest.raises(ValueError):
        NoiseSpectrum(offsets=[1.0], density=[-100.0], unit="dBm")


def test_db_linear_round_trip():
    spec = NoiseSpectrum(offsets=[1e2, 1e3, 1e4],
                         density=[-100.0, -120.0, -130.0], unit=DBC_PER_HZ)
    linear = spec.in_linear()
    assert np.allclose(10.0 * np.log10(linear), spec.density, rtol=1e-12)
    assert linear[0] == pytest.approx(1e-10, rel=1e-12)


def test_resample_log_frequency_interpolation():
    spec = NoiseSpectrum(offsets=[1e2, 1e4], density=[-100.0, -120.0],
                         unit=DBC_PER_HZ)
    mid = spec.resampled(np.array([1e3]))
    # geometric midpoint in log-f -> arithmetic midpoint in dB
    assert mid.density[0] == pytest.approx(-110.0, abs=1e-9)


def test_sampled_gamma_symmetry_enforced():
    with pytest.raises(AsymmetricGrid):
        SampledGamma(offsets=np.array([-2.0, 0.0, 1.0]),
                     values=np.zeros(3, dtype=complex))
    with pytest.raises(AsymmetricGrid):
        SampledGamma(offsets=np.array([-1.0, 1.0]),
                     values=np.zeros(2, dtype=complex))
    g = SampledGamma(offsets=np.array([-1.0, 0.0, 1.0]),
                     values=np.array([1j, 2.0, -1j]))
    assert g.at_zero == 2.0 + 0j


# ---------------------------------------------------------------------------
# decompose_gamma


def test_decomposition_sums_to_input():
    g = cavity_gamma()
    gp, gs = decompose_gamma(g)
    assert np.allclose(gp.values + gs.values, g.values, atol=1e-12)


def test_decomposition_parity():
    g = cavity_gamma()
    gp, gs = decompose_gamma(g)
    assert np.allclose(gp.values.real, gp.values.real[::-1], atol=1e-12)
    assert np.allclose(gp.values.imag, -gp.values.imag[::-1], atol=1e-12)
    assert np.allclose(gs.values.real, -gs.values.real[::-1], atol=1e-12)
    assert np.allclose(gs.values.imag, gs.values.imag[::-1], atol=1e-12)


def test_decompose_real_even_gives_zero_swap():
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    g = SampledGamma(offsets=offsets,
                     values=np.array([0.5, 0.2, 0.1, 0.2, 0.5], dtype=complex))
    gp, gs = decompose_gamma(g)
    assert np.allclose(gs.values, 0.0, atol=1e-15)
    assert np.allclose(gp.values, g.values, atol=1e-15)


def test_decompose_imaginary_even_gives_zero_preserve():
    offsets = np.array([-1.0, 0.0, 1.0])
    g = SampledGamma(offsets=offsets, values=np.array([0.4j, 0.1j, 0.4j]))
    gp, gs = decompose_gamma(g)
    assert np.allclose(gp.values, 0.0, atol=1e-15)
    assert np.allclose(gs.values, g.values, atol=1e-15)


@given(seed=st.integers(0, 1000), alpha=st.floats(-3, 3), beta=st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_decomposition_linearity_property(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    v1 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v2 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    combo = SampledGamma(offsets=offsets, values=alpha * v1 + beta * v2)
    p1, s1 = decompose_gamma(SampledGamma(offsets=offsets, values=v1))
    p2, s2 = decompose_gamma(SampledGamma(offsets=offsets, values=v2))
    pc, sc = decompose_gamma(combo)
    assert np.allclose(pc.values, alpha * p1.values + beta * p2.values,
                       atol=1e-9)
    assert np.allclose(sc.values, alpha * s1.values + beta * s2.values,
                       atol=1e-9)


def test_decomposition_idempotent():
    g = cavity_gamma()
    gp, _ = decompose_gamma(g)
    gpp, gps = decompose_gamma(gp)
    assert np.allclose(gpp.values, gp.values, atol=1e-12)
    assert np.allclose(gps.values, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# predict_noise_psd / noise_contribution_split


def flat_spectrum(offsets_hz, value, unit):
    return NoiseSpectrum(offsets=offsets_hz,
                         density=np.full(len(offsets_hz), value), unit=unit)


def test_zero_inputs_give_flat_floor():
    g = cavity_gamma()
    pos_hz = g.positive_half()[0] / TWO_PI
    amp = flat_spectrum(pos_hz, 0.0, V2_PER_HZ)
    phase = flat_spectrum(pos_hz, 0.0, V2_PER_HZ)
    out = predict_noise_psd(amp, phase, g, p0=1e-15)
    assert np.allclose(out.density, 1e-15, rtol=1e-12)


def test_constant_real_gamma_two_equal_phase_terms():
    offsets = np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]) * TWO_PI
    g = SampledGamma(offsets=offsets,
                     values=np.full(7, -0.8, dtype=complex))
    pos_hz = g.positive_half()[0] / TWO_PI
    phi2 = 4e-12                              # V^2/Hz, already two-sided
    amp = flat_spectrum(pos_hz, 0.0, V2_PER_HZ)
    phase = flat_spectrum(pos_hz, phi2, V2_PER_HZ)
    out = predict_noise_psd(amp, phase, g, p0=1e-13)
    assert np.allclose(out.density, 2.0 * phi2 * 0.8 ** 2 + 1e-13, rtol=1e-12)


def test_ssb_dbc_doubling_convention():
    offsets = np.array([-1.0, 0.0, 1.0]) * TWO_PI
    g = SampledGamma(offsets=offsets, values=np.ones(3, dtype=complex))
    pos_hz = g.positive_half()[0] / TWO_PI
    amp = flat_spectrum(pos_hz, 0.0, V2_PER_HZ)
    dbc = -120.0
    phase = flat_spectrum(pos_hz, dbc, DBC_PER_HZ)
    out = predict_noise_psd(amp, phase, g, p0=0.0)
    # two equal phase terms, each with SSB->two-sided factor 2
    assert out.density[0] == pytest.approx(2 * 2 * 10 ** (dbc / 10), rel=1e-12)


def test_split_sum_equals_total():
    g = cavity_gamma()
    pos_hz = g.positive_half()[0] / TWO_PI
    amp = flat_spectrum(pos_hz, -150.0, DBC_PER_HZ)
    phase = flat_spectrum(pos_hz, -120.0, DBC_PER_HZ)
    pn, am = noise_contribution_split(amp, phase, g)
    total = predict_noise_psd(amp, phase, g, p0=2.5e-16)
    assert np.allclose(pn.density + am.density + 2.5e-16, total.density,
                       rtol=1e-12)
    assert np.all(total.density >= 2.5e-16)


def test_bundled_inputs_phase_noise_dominates():
    """With the packaged source spectra, PN >= 10x AM at every offset."""
    with resources.as_file(resources.files("rubymag.data")
                           / "phase_noise.csv") as p:
        phase = read_spectrum_csv(p)
    with resources.as_file(resources.files("rubymag.data")
                           / "amplitude_noise.csv") as p:
        amp = read_spectrum_csv(p)
    g = cavity_gamma(symmetric_offsets(n_half=25, max_hz=1e6))
    pn, am = noise_contribution_split(amp, phase, g)
    assert np.all(pn.density >= 10.0 * am.density)


# ---------------------------------------------------------------------------
# CSV


def test_spectrum_csv_round_trip(tmp_path):
    spec = NoiseSpectrum(offsets=np.array([1e2, 1e3, 1e4]),
                         density=np.array([-102.3, -119.7, -135.2]),
                         unit=DBC_PER_HZ)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, spec)
    back = read_spectrum_csv(path)
    assert back.unit == DBC_PER_HZ
    assert np.allclose(back.offsets, spec.offsets, rtol=0)
    assert np.allclose(back.density, spec.density, rtol=0)
