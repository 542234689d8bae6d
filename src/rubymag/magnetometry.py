"""Dispersive-slope response, spectra, sensitivity budgets and simulation.

Connects the cavity model to magnetometer figures of merit: the slope of the
dispersive voltage versus bias field, amplitude spectral densities of the
demodulated channels, the projected sensitivity eta = e_n / (V_m / B_test),
its thermal and phase-noise limits, and bias/power optimization sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cavity import (CavityParams, DriveParams, EnsembleParams,
                     NonIdealityParams, check_drive, db_to_voltage_gain,
                     gamma_prime, gamma_prime_params)
from .constants import CONST
from .csvio import write_columns
from .errors import (EmptyTable, NegativeRadicand, TooFewPoints, TooFewSamples,
                     UndersampledTestTone, ZeroSignal, ZeroSlope)
from .spins import SpinSystem

_TWO_PI = 2.0 * math.pi
_LOAD_OHM = 50.0                      # R, Ohm
_PROCESSING_FACTOR = math.sqrt(2.0)   # F


@dataclass(frozen=True)
class SweepTrace:
    """Absorptive/dispersive voltages versus a swept axis (field or frequency)."""

    axis: np.ndarray
    absorptive: np.ndarray
    dispersive: np.ndarray

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "absorptive",
                           np.asarray(self.absorptive, dtype=float))
        object.__setattr__(self, "dispersive",
                           np.asarray(self.dispersive, dtype=float))
        d = np.diff(axis)
        if axis.size and not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("axis must be strictly monotone")
        if not (axis.size == self.absorptive.size == self.dispersive.size):
            raise ValueError("axis and channels must have equal length")


@dataclass(frozen=True)
class SensitivityConfig:
    G_db: float = 21.0          # chain gain, dB
    T: float = 293.0            # K
    ell_db: float = -6.0        # phase-noise margin, dB


@dataclass(frozen=True)
class ToneSpec:
    amplitude_rms: float        # T
    frequency: float            # rad/s

    def __post_init__(self):
        if self.amplitude_rms < 0 or self.frequency < 0:
            raise ValueError("test field amplitude and frequency must be >= 0")


def dispersive_slope(trace: SweepTrace) -> tuple[np.ndarray, float]:
    """Per-point slope of the dispersive channel and its maximum magnitude.

    The slope comes from a local quadratic least-squares fit over a centered
    five-point window (clamped at the edges); M_max = max |slope| in V/T
    when the axis is magnetic field.  All windows are solved at once: each
    window's offsets are scaled to [-1, 1] so its Vandermonde matrix stays
    well conditioned.
    """
    n = trace.axis.size
    if n < 5:
        raise TooFewPoints("need at least five sweep points")
    lo = np.clip(np.arange(n) - 2, 0, n - 5)
    idx = lo[:, None] + np.arange(5)
    x = trace.axis[idx] - trace.axis[:, None]
    scale = np.abs(x).max(axis=1, keepdims=True)
    u = x / scale
    vander = np.stack([np.ones_like(u), u, u * u], axis=-1)
    coeffs = np.linalg.pinv(vander) @ trace.dispersive[idx][..., None]
    slopes = coeffs[:, 1, 0] / scale[:, 0]
    return slopes, float(np.max(np.abs(slopes)))


def amplitude_spectrum(samples, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-sided RMS amplitude spectral density, Hann windowed and
    segment averaged.

    Returns (frequencies in Hz, density in V/sqrt(Hz)).  White noise of
    variance sigma^2 reports a flat density sigma*sqrt(2/fs); a tone's RMS
    amplitude is recovered by integrating the squared density across its peak
    bins (see tone_rms).  Segment averaging keeps the amplitude estimate
    unbiased: segments of max(min(n, 256), n // 8) samples overlap by half.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 16:
        raise TooFewSamples("need at least 16 samples")
    if fs <= 0:
        raise ValueError("fs must be positive")
    nperseg = max(min(samples.size, 256), samples.size // 8)
    # scipy.signal is slow to import and only this function needs it
    from scipy.signal import welch

    freqs, psd = welch(samples, fs=fs, window="hann", nperseg=nperseg,
                       scaling="density", detrend="constant")
    return freqs, np.sqrt(psd)


def tone_rms(freqs: np.ndarray, asd: np.ndarray, f0: float) -> float:
    """RMS amplitude of a tone at f0, integrating the density over the seven
    bins around its peak."""
    df = freqs[1] - freqs[0]
    k = int(np.argmin(np.abs(freqs - f0)))
    sel = slice(max(k - 3, 0), min(k + 4, freqs.size))
    return float(math.sqrt(np.sum(asd[sel] ** 2) * df))


def noise_floor(freqs: np.ndarray, asd: np.ndarray, band: tuple[float, float],
                tone_freqs=()) -> float:
    """Trimmed-mean density over a band.

    Bins within two bins of a declared tone are excluded, and the lowest and
    highest tenth of the rest are trimmed before averaging.
    """
    mask = (freqs >= band[0]) & (freqs <= band[1])
    df = freqs[1] - freqs[0]
    for f0 in tone_freqs:
        mask &= np.abs(freqs - f0) > 2 * df
    values = np.sort(asd[mask])
    if values.size == 0:
        raise ValueError("band contains no usable bins")
    cut = int(0.1 * values.size)
    trimmed = values[cut:values.size - cut] if values.size > 2 * cut else values
    return float(np.mean(trimmed))


def sensitivity(e_n: float, v_m: float, b_test: float) -> float:
    """eta = e_n / (V_m / B_test) in T/sqrt(Hz)."""
    if v_m <= 0 or b_test <= 0:
        raise ZeroSignal("V_m and B_test must be positive")
    return e_n * b_test / v_m


def thermal_limit(cfg: SensitivityConfig, m_max: float) -> float:
    """Thermal-noise-limited sensitivity G sqrt(k_B T R) / (F M_max), with
    the load R = 50 Ohm and the processing factor F = sqrt(2)."""
    if m_max <= 0:
        raise ZeroSlope("M_max must be positive")
    gain = db_to_voltage_gain(cfg.G_db)
    return gain * math.sqrt(CONST.k_B * cfg.T * _LOAD_OHM) \
        / (_PROCESSING_FACTOR * m_max)


class PhaseNoiseBudget(NamedTuple):
    e_p: float                  # V/sqrt(Hz)
    phi_required_dbc: float     # dBc/Hz; -inf when the budget is unbounded

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.phi_required_dbc)


def phase_noise_budget(e_total: float, e_th: float, phi_measured_dbc: float,
                       cfg: SensitivityConfig) -> PhaseNoiseBudget:
    """Quadrature phase-noise estimate and the source requirement.

    e_p = sqrt(e_total^2 - e_th^2); the requirement is the measured phase
    noise scaled by (e_th/e_p) plus the margin, all in the dB domain.
    """
    if e_total < e_th or e_th < 0:
        raise NegativeRadicand("need e_total >= e_th >= 0")
    e_p = math.sqrt(e_total ** 2 - e_th ** 2)
    if e_p == 0.0:
        return PhaseNoiseBudget(e_p=0.0, phi_required_dbc=-math.inf)
    phi_required = phi_measured_dbc + 20.0 * math.log10(e_th / e_p) + cfg.ell_db
    return PhaseNoiseBudget(e_p=e_p, phi_required_dbc=phi_required)


def optimize_grid(eta: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                            np.ndarray, np.ndarray]:
    """Row/column minima of a sensitivity table indexed [bias, power].

    Returns (eta_mag, eta_mw, argmin_power_per_bias, argmin_bias_per_power);
    ties break toward the lower index.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.size == 0 or eta.ndim != 2:
        raise EmptyTable("need a non-empty 2D table")
    return (eta.min(axis=1), eta.min(axis=0),
            eta.argmin(axis=1), eta.argmin(axis=0))


# ---------------------------------------------------------------------------
# forward simulation

def spin_frequency_vs_field(sys: SpinSystem, b_values) -> np.ndarray:
    """omega_s(B) of the +3/2 <-> +1/2 transition in an axial field (rad/s).

    Along the c-axis the Hamiltonian is diagonal, so the gap is exactly
    |2D + g_par mu_B B / hbar|, with B the signed field along the axis.
    """
    b_values = np.asarray(b_values, dtype=float)
    return np.abs(2.0 * sys.D + (sys.g_par * CONST.mu_B / CONST.hbar) * b_values)


def _demodulated_voltages(cav: CavityParams, ens: EnsembleParams,
                          ni: NonIdealityParams, drive: DriveParams,
                          omega_s_values: np.ndarray,
                          chain_gain_db: float) -> np.ndarray:
    """Complex channel voltages for an array of spin frequencies."""
    check_drive(cav, ens, DriveParams(omega_d=drive.omega_d - ni.omega_d_off,
                                      power=drive.power))
    gamma = gamma_prime(omega_s_values, drive.omega_d, drive.omega_d,
                        cav.omega_c, ens.g_s, drive.power,
                        gamma_prime_params(cav, ens, ni))
    scale = db_to_voltage_gain(chain_gain_db) \
        * math.sqrt(drive.power * _LOAD_OHM)
    return scale * gamma


def bias_sweep_trace(sys: SpinSystem, cav: CavityParams, ens: EnsembleParams,
                     ni: NonIdealityParams, drive: DriveParams,
                     b_values: np.ndarray,
                     chain_gain_db: float = 21.0) -> SweepTrace:
    """Absorptive/dispersive voltages as the bias field sweeps the spin line."""
    b_values = np.asarray(b_values, dtype=float)
    omega_s = spin_frequency_vs_field(sys, b_values)
    v = _demodulated_voltages(cav, ens, ni, drive, omega_s, chain_gain_db)
    return SweepTrace(axis=b_values, absorptive=v.real, dispersive=v.imag)


@dataclass(frozen=True)
class TimeSeries:
    times: np.ndarray           # s
    absorptive: np.ndarray      # V
    dispersive: np.ndarray      # V
    sample_rate: float          # Hz


def simulate_timeseries(sys: SpinSystem, cav: CavityParams,
                        ens: EnsembleParams, ni: NonIdealityParams,
                        drive: DriveParams, bias_b: float,
                        test: ToneSpec, chain_gain_db: float,
                        noise_floor_v: float, fs: float, duration: float,
                        seed: int = 0) -> TimeSeries:
    """End-to-end magnetometer time series under an AC test field.

    The bias field is modulated by a sine of RMS amplitude test.amplitude_rms
    at test.frequency; white Gaussian noise of the stated density is added to
    both demodulated channels.  Deterministic per seed.
    """
    f_m = test.frequency / _TWO_PI
    if fs <= 2.0 * f_m:
        raise UndersampledTestTone(
            f"fs = {fs} Hz cannot sample a {f_m} Hz test tone")
    n = int(round(fs * duration))
    times = np.arange(n) / fs
    b = bias_b + math.sqrt(2.0) * test.amplitude_rms \
        * np.sin(test.frequency * times)
    omega_s = spin_frequency_vs_field(sys, b)
    v = _demodulated_voltages(cav, ens, ni, drive, omega_s, chain_gain_db)
    absorptive = v.real.copy()
    dispersive = v.imag.copy()
    if noise_floor_v > 0:
        sigma = noise_floor_v * math.sqrt(fs / 2.0)
        rng = np.random.default_rng(seed)
        absorptive = absorptive + sigma * rng.standard_normal(n)
        dispersive = dispersive + sigma * rng.standard_normal(n)
    return TimeSeries(times=times, absorptive=absorptive,
                      dispersive=dispersive, sample_rate=fs)


# ---------------------------------------------------------------------------
# CSV outputs

def write_sweep_csv(path, trace: SweepTrace) -> None:
    write_columns(path, ("b_tesla", "absorptive_v", "dispersive_v"),
                  np.column_stack([trace.axis, trace.absorptive,
                                   trace.dispersive]))


def write_eta_table_csv(path, b_values: np.ndarray, p_values_dbm: np.ndarray,
                        eta: np.ndarray) -> None:
    """Long-format table: b_gauss, p_dbm, eta_t_per_rthz."""
    b, p = np.meshgrid(np.asarray(b_values, dtype=float) * 1e4,
                       np.asarray(p_values_dbm, dtype=float), indexing="ij")
    write_columns(path, ("b_gauss", "p_dbm", "eta_t_per_rthz"),
                  np.column_stack([b.ravel(), p.ravel(),
                                   np.asarray(eta, dtype=float).ravel()]))
