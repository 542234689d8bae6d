"""Propagation of source noise through the reflection.

The reflection coefficient Gamma, a plain array of samples at the carrier
offsets 2 pi (-f reversed, 0, f) for the positive offsets f in Hz, is split
into a phase-preserving part (even real, odd imaginary) and a phase-swapping
part (the complement).  Source amplitude and phase noise densities then map
to the output power spectrum on the offsets f as

    P(omega) = |A(omega) Gamma_s(omega)|^2 + |Phi(omega) Gamma_p(omega)|^2
               + |Phi(omega) Gamma_p(0)|^2 + P0

dBc/Hz inputs are interpreted as single-sideband densities (the usual
instrument convention); conversion to the two-sided density used in the
formula above doubles the linear power.  A spectrum already on the offsets f
(to rtol 1e-9) is used as given, so the phase spectrum's own offsets come
back exactly; any other is resampled onto them, interpolating dB values
linearly in log-frequency (a zero density, -inf dB, zeroes its intervals).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import read_columns, render_columns
from .errors import ParseError

DBC_PER_HZ = "dBc_per_Hz"
V2_PER_HZ = "V2_per_Hz"


@dataclass
class NoiseSpectrum:
    """Noise density on strictly increasing positive offsets, with its unit."""

    offsets: np.ndarray      # Hz, strictly increasing, > 0
    density: np.ndarray
    unit: str

    def __post_init__(self):
        self.offsets = offsets = np.asarray(self.offsets, dtype=float)
        self.density = density = np.asarray(self.density, dtype=float)
        if offsets.shape != density.shape:
            raise ValueError("offsets and density must have equal length")
        # written so that NaN, which compares False, fails the checks
        if not (np.all(offsets > 0) and np.all(np.diff(offsets) > 0)):
            raise ValueError("offsets must be strictly increasing and positive")
        if self.unit not in (DBC_PER_HZ, V2_PER_HZ):
            raise ValueError(f"unknown unit tag {self.unit!r}")
        if self.unit == V2_PER_HZ and not np.all(density >= 0):
            raise ValueError("a V2_per_Hz density must be >= 0")

    def in_linear(self) -> np.ndarray:
        """Linear power density; identity for V2_per_Hz inputs."""
        if self.unit == V2_PER_HZ:
            return self.density.copy()
        return 10.0 ** (self.density / 10.0)

    def resampled(self, offsets: np.ndarray) -> "NoiseSpectrum":
        """Log-frequency linear interpolation of the dB representation."""
        offsets = np.asarray(offsets, dtype=float)
        with np.errstate(divide="ignore"):
            db = self.density if self.unit == DBC_PER_HZ \
                else 10.0 * np.log10(self.density)
        new_db = np.interp(np.log10(offsets), np.log10(self.offsets), db)
        density = new_db if self.unit == DBC_PER_HZ else 10.0 ** (new_db / 10.0)
        return NoiseSpectrum(offsets=offsets, density=density, unit=self.unit)


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


def _two_sided_amplitude(spec: NoiseSpectrum,
                         offsets_hz: np.ndarray) -> np.ndarray:
    """Two-sided linear amplitude density on offsets_hz.

    A spectrum whose offsets match offsets_hz to rtol 1e-9 is used as given;
    any other is resampled onto them.
    """
    if (spec.offsets.shape != offsets_hz.shape
            or not np.allclose(spec.offsets, offsets_hz, rtol=1e-9, atol=0)):
        spec = spec.resampled(offsets_hz)
    power = spec.in_linear()
    # SSB dBc/Hz -> two-sided linear power needs the factor 2
    if spec.unit == DBC_PER_HZ:
        power = 2.0 * power
    return np.sqrt(power)


def noise_contribution_split(amp: NoiseSpectrum, phase: NoiseSpectrum,
                             offsets_hz, gamma) -> tuple[NoiseSpectrum,
                                                         NoiseSpectrum]:
    """(phase-noise term, amplitude-noise term) of the output spectrum on
    offsets_hz.

    gamma holds the 2n + 1 reflection samples at the carrier offsets
    2 pi (-offsets_hz reversed, 0, offsets_hz); ValueError unless the n
    offsets are positive and strictly increasing and gamma has that length.
    """
    offsets_hz = np.asarray(offsets_hz, dtype=float)
    gamma = np.asarray(gamma, dtype=complex)
    if offsets_hz.ndim != 1 or np.any(offsets_hz <= 0) \
            or np.any(np.diff(offsets_hz) <= 0):
        raise ValueError("offsets must be strictly increasing and positive")
    n = offsets_hz.size
    if gamma.shape != (2 * n + 1,):
        raise ValueError(f"gamma needs 2n + 1 = {2 * n + 1} samples for "
                         f"{n} offsets, got shape {gamma.shape}")
    a_lin = _two_sided_amplitude(amp, offsets_hz)
    p_lin = _two_sided_amplitude(phase, offsets_hz)
    gamma_p, gamma_s = decompose_gamma(gamma)
    pn = np.abs(p_lin * gamma_p[n + 1:]) ** 2 + np.abs(p_lin * gamma_p[n]) ** 2
    am = np.abs(a_lin * gamma_s[n + 1:]) ** 2
    return (NoiseSpectrum(offsets=offsets_hz, density=pn, unit=V2_PER_HZ),
            NoiseSpectrum(offsets=offsets_hz, density=am, unit=V2_PER_HZ))


def predict_noise_psd(amp: NoiseSpectrum, phase: NoiseSpectrum, offsets_hz,
                      gamma, p0: float) -> NoiseSpectrum:
    """Total predicted output noise power density on offsets_hz; gamma as
    for noise_contribution_split."""
    pn, am = noise_contribution_split(amp, phase, offsets_hz, gamma)
    return NoiseSpectrum(offsets=pn.offsets, density=pn.density + am.density + p0,
                         unit=V2_PER_HZ)


def render_spectrum_csv(path, spectrum: NoiseSpectrum) -> str:
    """Columns offset_hz, value, unit; the layout read_spectrum_csv reads."""
    return render_columns(path, ("offset_hz", "value"),
                          np.column_stack([spectrum.offsets, spectrum.density]),
                          {"unit": spectrum.unit})


def read_spectrum_csv(path) -> NoiseSpectrum:
    """Columns offset_hz, value, unit; one unit tag per file.

    A missing column, a non-numeric or non-finite cell, mixed or unknown unit
    tags, offsets that are not positive and increasing, or a negative
    V2_per_Hz density raise ParseError.
    """
    table, rows = read_columns(path, ("offset_hz", "value"), ("unit",))
    units = sorted({row["unit"] for row in rows})
    if len(units) != 1:
        raise ParseError(f"{path}: expected one unit tag per file, "
                         f"got {units}")
    try:
        return NoiseSpectrum(offsets=table[:, 0], density=table[:, 1],
                             unit=units[0])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
