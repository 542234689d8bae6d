"""Propagation of source noise through the reflection.

The reflection coefficient sampled symmetrically around the carrier is split
into a phase-preserving part (even real, odd imaginary) and a phase-swapping
part (the complement).  Source amplitude and phase noise densities then map
to the output power spectrum as

    P(omega) = |A(omega) Gamma_s(omega)|^2 + |Phi(omega) Gamma_p(omega)|^2
               + |Phi(omega) Gamma_p(0)|^2 + P0

dBc/Hz inputs are interpreted as single-sideband densities (the usual
instrument convention); conversion to the two-sided density used in the
formula above doubles the linear power.  A spectrum already on Gamma's
positive offsets is used as given; any other is resampled onto them,
interpolating dB values linearly in log-frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import read_columns, write_columns
from .errors import AsymmetricGrid, ParseError

DBC_PER_HZ = "dBc_per_Hz"
V2_PER_HZ = "V2_per_Hz"


@dataclass(frozen=True)
class NoiseSpectrum:
    offsets: np.ndarray      # Hz, strictly increasing, > 0
    density: np.ndarray
    unit: str

    def __post_init__(self):
        offsets = np.asarray(self.offsets, dtype=float)
        density = np.asarray(self.density, dtype=float)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "density", density)
        if offsets.shape != density.shape:
            raise ValueError("offsets and density must have equal length")
        if offsets.size and (np.any(offsets <= 0)
                             or np.any(np.diff(offsets) <= 0)):
            raise ValueError("offsets must be strictly increasing and positive")
        if self.unit not in (DBC_PER_HZ, V2_PER_HZ):
            raise ValueError(f"unknown unit tag {self.unit!r}")

    def in_linear(self) -> np.ndarray:
        """Linear power density; identity for V2_per_Hz inputs."""
        if self.unit == V2_PER_HZ:
            return self.density.copy()
        return 10.0 ** (self.density / 10.0)

    def resampled(self, offsets: np.ndarray) -> "NoiseSpectrum":
        """Log-frequency linear interpolation of the dB representation."""
        offsets = np.asarray(offsets, dtype=float)
        db = self.density if self.unit == DBC_PER_HZ \
            else 10.0 * np.log10(self.density)
        new_db = np.interp(np.log10(offsets), np.log10(self.offsets), db)
        density = new_db if self.unit == DBC_PER_HZ else 10.0 ** (new_db / 10.0)
        return NoiseSpectrum(offsets=offsets, density=density, unit=self.unit)


@dataclass(frozen=True)
class SampledGamma:
    """Reflection samples on a symmetric offset grid around the carrier."""

    offsets: np.ndarray      # rad/s, ascending, symmetric about 0, 0 included
    values: np.ndarray       # complex

    def __post_init__(self):
        offsets = np.asarray(self.offsets, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "values", values)
        if offsets.shape != values.shape:
            raise ValueError("offsets and values must have equal length")
        if np.any(np.diff(offsets) <= 0):
            raise AsymmetricGrid("offsets must be strictly increasing")
        atol = 1e-9 * (np.abs(offsets).max() + 1.0) if offsets.size else 0.0
        if not np.allclose(offsets, -offsets[::-1], rtol=0, atol=atol):
            raise AsymmetricGrid("offset grid must be symmetric about zero")
        if offsets.size % 2 == 0:
            raise AsymmetricGrid("offset grid must contain zero")

    @property
    def at_zero(self) -> complex:
        return complex(self.values[self.offsets.size // 2])

    def positive_half(self) -> tuple[np.ndarray, np.ndarray]:
        mid = self.offsets.size // 2
        return self.offsets[mid + 1:], self.values[mid + 1:]


def decompose_gamma(g: SampledGamma) -> tuple[SampledGamma, SampledGamma]:
    """Split into phase-preserving and phase-swapping parts.

    Gamma_p has even real and odd imaginary parts; Gamma_s the complement.
    Their sum reproduces the input pointwise.
    """
    rev = g.values[::-1]
    gamma_p = (g.values.real + rev.real) / 2.0 \
        + 1j * (g.values.imag - rev.imag) / 2.0
    gamma_s = (g.values.real - rev.real) / 2.0 \
        + 1j * (g.values.imag + rev.imag) / 2.0
    return (SampledGamma(offsets=g.offsets, values=gamma_p),
            SampledGamma(offsets=g.offsets, values=gamma_s))


def _aligned_inputs(amp: NoiseSpectrum, phase: NoiseSpectrum, g: SampledGamma):
    """Common positive-offset grid (Hz) plus two-sided linear amplitudes.

    A spectrum whose offsets match the grid to rtol 1e-9 is used as given;
    any other is resampled onto it.
    """
    pos_offsets_hz = g.positive_half()[0] / (2.0 * math.pi)

    def two_sided_amplitude(spec: NoiseSpectrum) -> np.ndarray:
        if (spec.offsets.shape != pos_offsets_hz.shape
                or not np.allclose(spec.offsets, pos_offsets_hz,
                                   rtol=1e-9, atol=0)):
            spec = spec.resampled(pos_offsets_hz)
        power = spec.in_linear()
        # SSB dBc/Hz -> two-sided linear power needs the factor 2
        if spec.unit == DBC_PER_HZ:
            power = 2.0 * power
        return np.sqrt(power)
    return pos_offsets_hz, two_sided_amplitude(amp), two_sided_amplitude(phase)


def noise_contribution_split(amp: NoiseSpectrum, phase: NoiseSpectrum,
                             g: SampledGamma) -> tuple[NoiseSpectrum,
                                                       NoiseSpectrum]:
    """(phase-noise term, amplitude-noise term) of the output spectrum."""
    offsets_hz, a_lin, p_lin = _aligned_inputs(amp, phase, g)
    gamma_p, gamma_s = decompose_gamma(g)
    _, gp_pos = gamma_p.positive_half()
    _, gs_pos = gamma_s.positive_half()
    gp0 = gamma_p.at_zero
    pn = np.abs(p_lin * gp_pos) ** 2 + np.abs(p_lin * gp0) ** 2
    am = np.abs(a_lin * gs_pos) ** 2
    return (NoiseSpectrum(offsets=offsets_hz, density=pn, unit=V2_PER_HZ),
            NoiseSpectrum(offsets=offsets_hz, density=am, unit=V2_PER_HZ))


def predict_noise_psd(amp: NoiseSpectrum, phase: NoiseSpectrum,
                      g: SampledGamma, p0: float) -> NoiseSpectrum:
    """Total predicted output noise power density versus offset frequency."""
    pn, am = noise_contribution_split(amp, phase, g)
    return NoiseSpectrum(offsets=pn.offsets, density=pn.density + am.density + p0,
                         unit=V2_PER_HZ)


def write_spectrum_csv(path, spectrum: NoiseSpectrum) -> None:
    """Columns offset_hz, value, unit; the layout read_spectrum_csv reads."""
    write_columns(path, ("offset_hz", "value"),
                  np.column_stack([spectrum.offsets, spectrum.density]),
                  {"unit": spectrum.unit})


def read_spectrum_csv(path) -> NoiseSpectrum:
    """Columns offset_hz, value, unit; one unit tag per file.

    A missing column, a non-numeric or non-finite cell, mixed or unknown unit
    tags, or offsets that are not positive and increasing raise ParseError.
    """
    table, rows = read_columns(path, ("offset_hz", "value"), ("unit",))
    units = sorted({row["unit"] or "" for row in rows})
    if len(units) != 1:
        raise ParseError(f"{path}: expected one unit tag per file, "
                         f"got {units}")
    try:
        return NoiseSpectrum(offsets=table[:, 0], density=table[:, 1],
                             unit=units[0])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
