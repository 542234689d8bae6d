"""Propagation of source noise through the reflection.

The reflection coefficient Gamma, a plain array of samples at the carrier
offsets 2 pi (-f reversed, 0, f) for the positive offsets f in Hz, is split
into a phase-preserving part (even real, odd imaginary) and a phase-swapping
part (the complement).  Source amplitude and phase noise densities then map
to the output power spectrum on the offsets f as

    P(omega) = |A(omega) Gamma_s(omega)|^2 + |Phi(omega) Gamma_p(omega)|^2
               + |Phi(omega) Gamma_p(0)|^2 + P0

A source spectrum is the triple (offsets in Hz, density, unit).  dBc_per_Hz
densities are single-sideband (the usual instrument convention), so the
two-sided density of the formula doubles their linear power.  A spectrum on
the offsets f (to rtol 1e-9) is used as given; any other is resampled onto
them, linearly in dB over log-frequency, its end values held flat outside
its range (a zero V2_per_Hz density, -inf dB, zeroes its intervals).
"""

from __future__ import annotations

import numpy as np

from .csvio import read_columns, render_columns
from .errors import ParseError

DBC_PER_HZ = "dBc_per_Hz"
V2_PER_HZ = "V2_per_Hz"


def _check_offsets(offsets: np.ndarray) -> None:
    # written so that NaN, which compares False, fails
    if not (offsets.ndim == 1 and np.all(offsets > 0)
            and np.all(np.diff(offsets) > 0)):
        raise ValueError("offsets must be strictly increasing and positive")


def _check_spectrum(offsets: np.ndarray, density: np.ndarray,
                    unit: str) -> None:
    """ValueError unless offsets and density have equal lengths, the offsets
    pass _check_offsets, the unit is known and a V2_per_Hz density is >= 0,
    NaN failing each."""
    if offsets.shape != density.shape:
        raise ValueError("offsets and density must have equal length")
    _check_offsets(offsets)
    if unit not in (DBC_PER_HZ, V2_PER_HZ):
        raise ValueError(f"unknown unit tag {unit!r}")
    if unit == V2_PER_HZ and not np.all(density >= 0):
        raise ValueError("a V2_per_Hz density must be >= 0")


def two_sided_amplitude(spectrum, offsets_hz) -> np.ndarray:
    """Two-sided linear amplitude density of the spectrum triple
    (offsets, density, unit) on offsets_hz; ValueError on a spectrum that
    fails its checks."""
    offsets, density, unit = spectrum
    offsets = np.asarray(offsets, dtype=float)
    density = np.asarray(density, dtype=float)
    offsets_hz = np.asarray(offsets_hz, dtype=float)
    _check_spectrum(offsets, density, unit)
    linear = unit == V2_PER_HZ
    if (offsets.shape != offsets_hz.shape
            or not np.allclose(offsets, offsets_hz, rtol=1e-9, atol=0)):
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(density) if linear else density
        density = np.interp(np.log10(offsets_hz), np.log10(offsets), db)
        if linear:
            density = 10.0 ** (density / 10.0)
    # SSB dBc/Hz -> two-sided linear power needs the factor 2
    return np.sqrt(density if linear else 2.0 * 10.0 ** (density / 10.0))


def decompose_gamma(gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split samples on a symmetric offset grid into phase-preserving and
    phase-swapping parts.

    Gamma_p has even real and odd imaginary parts; Gamma_s the complement.
    Their sum reproduces the input pointwise.
    """
    gamma = np.asarray(gamma, dtype=complex)
    rev = gamma[::-1]
    gamma_p = (gamma.real + rev.real) / 2.0 \
        + 1j * (gamma.imag - rev.imag) / 2.0
    gamma_s = (gamma.real - rev.real) / 2.0 \
        + 1j * (gamma.imag + rev.imag) / 2.0
    return gamma_p, gamma_s


def noise_contribution_split(amp, phase, offsets_hz,
                             gamma) -> tuple[np.ndarray, np.ndarray]:
    """(phase-noise term, amplitude-noise term) of the output density, in
    V2_per_Hz on offsets_hz, from the amplitude and phase spectrum triples.

    gamma holds the 2n + 1 reflection samples at the carrier offsets
    2 pi (-offsets_hz reversed, 0, offsets_hz); ValueError unless the n
    offsets are positive and strictly increasing and gamma has that length.
    """
    offsets_hz = np.asarray(offsets_hz, dtype=float)
    gamma = np.asarray(gamma, dtype=complex)
    _check_offsets(offsets_hz)
    n = offsets_hz.size
    if gamma.shape != (2 * n + 1,):
        raise ValueError(f"gamma needs 2n + 1 = {2 * n + 1} samples for "
                         f"{n} offsets, got shape {gamma.shape}")
    a_lin = two_sided_amplitude(amp, offsets_hz)
    p_lin = two_sided_amplitude(phase, offsets_hz)
    gamma_p, gamma_s = decompose_gamma(gamma)
    pn = np.abs(p_lin * gamma_p[n + 1:]) ** 2 + np.abs(p_lin * gamma_p[n]) ** 2
    am = np.abs(a_lin * gamma_s[n + 1:]) ** 2
    return pn, am


def predict_noise_psd(amp, phase, offsets_hz, gamma, p0: float) -> np.ndarray:
    """Total predicted output noise density, in V2_per_Hz on offsets_hz;
    arguments as for noise_contribution_split."""
    pn, am = noise_contribution_split(amp, phase, offsets_hz, gamma)
    return pn + am + p0


def render_spectrum_csv(path, offsets, density) -> str:
    """Columns offset_hz, value, unit of a V2_per_Hz density; the layout
    read_spectrum_csv reads."""
    return render_columns(path, ("offset_hz", "value"),
                          np.column_stack([offsets, density]),
                          {"unit": V2_PER_HZ})


def read_spectrum_csv(path) -> tuple[np.ndarray, np.ndarray, str]:
    """(offsets, density, unit) of the columns offset_hz, value, unit.

    Cells read_columns refuses, mixed unit tags and a triple that fails
    _check_spectrum raise ParseError.
    """
    table, rows = read_columns(path, ("offset_hz", "value"), ("unit",))
    units = sorted({row["unit"] for row in rows})
    if len(units) != 1:
        raise ParseError(f"{path}: expected one unit tag per file, "
                         f"got {units}")
    offsets, density = table[:, 0], table[:, 1]
    try:
        _check_spectrum(offsets, density, units[0])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return offsets, density, units[0]
