"""Simulated magnetometer time series and their spectral read-out.

The end-to-end tests check the closed-form sensitivity of the `sensitivity`
and `report` commands against a simulated measurement: the bias sweep on a
field modulated by a test tone, white noise on both channels, and Welch
amplitude spectra from scipy (the `test` extra).  No command runs this
chain, so it lives beside the tests; pytest does not collect this module.
"""

import math

import numpy as np
from scipy.signal import welch

from rubymag.magnetometry import bias_sweep_trace, spin_frequency_vs_field


def simulate_timeseries(D: float, g_par: float, params, omega_d: float,
                        power: float,
                        bias_b: float,
                        tone_rms: float, tone_freq: float,
                        chain_gain_db: float, noise_floor_v: float,
                        fs: float, duration: float,
                        seed: int = 0) -> np.ndarray:
    """End-to-end magnetometer time series under an AC test field, driven
    at omega_d (rad/s) with power (W): the complex channel voltage at the
    times np.arange(n) / fs.

    The axial bias field is modulated by a sine of RMS amplitude tone_rms (T)
    at the angular frequency tone_freq (rad/s); white Gaussian noise of the
    stated density is added to the absorptive (.real), then the dispersive
    (.imag) channel.  Deterministic per seed.
    """
    n = int(round(fs * duration))
    b = bias_b + math.sqrt(2.0) * tone_rms \
        * np.sin(tone_freq * (np.arange(n) / fs))
    v = bias_sweep_trace(spin_frequency_vs_field(D, g_par, b), params,
                         omega_d, power, chain_gain_db)
    if noise_floor_v > 0:
        sigma = noise_floor_v * math.sqrt(fs / 2.0)
        rng = np.random.default_rng(seed)
        v.real += sigma * rng.standard_normal(n)
        v.imag += sigma * rng.standard_normal(n)
    return v


def amplitude_density(samples, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-sided RMS amplitude spectral density in V/sqrt(Hz): the square
    root of scipy's Welch estimate, with mean-removed Hann segments of
    max(min(n, 256), n // 8) samples that overlap by half."""
    n = np.size(samples)
    freqs, psd = welch(samples, fs=fs, window="hann",
                       nperseg=max(min(n, 256), n // 8),
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
