"""Bias sweeps and sensitivity budgets.

Connects the cavity model to magnetometer figures of merit: the channel
voltages of a bias sweep, the slope of the dispersive voltage versus bias
field, the projected sensitivity eta = e_n / (V_m / B_test), its thermal and
phase-noise limits, and bias/power optimization sweeps.
"""

from __future__ import annotations

import math

import numpy as np

from . import constants as CONST
from .cavity import db_to_voltage_gain, gamma_prime
from .csvio import render_columns
from .errors import (EmptyTable, NegativeRadicand, TooFewPoints, ZeroSignal,
                     ZeroSlope)
from .spins import check_g_factors

_LOAD_OHM = 50.0                      # R, Ohm
_PROCESSING_FACTOR = math.sqrt(2.0)   # F


def dispersive_slope(axis, dispersive) -> tuple[np.ndarray, float]:
    """Per-point slope of the dispersive channel and its maximum magnitude.

    The last axis is the sweep; leading axes stack sweeps, and axis
    broadcasts against dispersive.  Each slope is that of a quadratic
    least-squares fit over a centered five-point window (clamped at the
    edges), in closed form: with the window's offsets x scaled to [-1, 1],
    p = x - mean(x), a = sum p^3 / sum p^2 and q = p^2 - a p - sum p^2 / 5
    are orthogonal to 1 and each other, so the slope is (sum y p / sum p^2
    + sum y q / sum q^2 * (-2 mean(x) - a)) / scale: weights of y that the
    axis alone sets.  M_max = max |slope|, in V/T when the axis is field.
    """
    axis = np.asarray(axis, dtype=float)
    dispersive = np.asarray(dispersive, dtype=float)
    d = np.diff(axis, axis=-1)
    if axis.size and not (np.all(d > 0) or np.all(d < 0)):
        raise ValueError("axis must be strictly monotone")
    n = dispersive.shape[-1]
    if n < 5:
        raise TooFewPoints("need at least five sweep points")
    idx = np.clip(np.arange(n) - 2, 0, n - 5)[:, None] + np.arange(5)
    x = axis[..., idx] - axis[..., None]
    scale = np.abs(x).max(axis=-1, keepdims=True)
    x = x / scale
    mean = x.mean(axis=-1, keepdims=True)
    p = x - mean
    s2 = (p * p).sum(axis=-1, keepdims=True)
    a = (p * p * p).sum(axis=-1, keepdims=True) / s2
    q = p * p - a * p - s2 / 5.0
    weights = (p / s2 + q * (-2.0 * mean - a)
               / (q * q).sum(axis=-1, keepdims=True)) / scale
    slopes = (weights * dispersive[..., idx]).sum(axis=-1)
    return slopes, float(np.max(np.abs(slopes)))


def sensitivity(e_n: float, v_m: float, b_test: float) -> float:
    """eta = e_n / (V_m / B_test) in T/sqrt(Hz)."""
    if v_m <= 0 or b_test <= 0:
        raise ZeroSignal("V_m and B_test must be positive")
    return e_n * b_test / v_m


def thermal_limit(gain_db: float, T: float, m_max: float) -> float:
    """Thermal-noise-limited sensitivity G sqrt(k_B T R) / (F M_max), for a
    chain gain of gain_db and a temperature T in K, with the load R = 50 Ohm
    and the processing factor F = sqrt(2)."""
    if m_max <= 0:
        raise ZeroSlope("M_max must be positive")
    return db_to_voltage_gain(gain_db) * math.sqrt(CONST.k_B * T * _LOAD_OHM) \
        / (_PROCESSING_FACTOR * m_max)


def phase_noise_budget(e_total: float, e_th: float, phi_measured_dbc: float,
                       ell_db: float) -> tuple[float, float | None]:
    """Quadrature phase-noise estimate e_p in V/sqrt(Hz) and the source
    requirement in dBc/Hz.

    e_p = sqrt(e_total^2 - e_th^2); the requirement is the measured phase
    noise scaled by (e_th/e_p) plus the margin ell_db, all in the dB domain.
    e_p = 0 puts no bound on the source: the requirement is then None.
    """
    if e_total < e_th or e_th < 0:
        raise NegativeRadicand("need e_total >= e_th >= 0")
    e_p = math.sqrt(e_total ** 2 - e_th ** 2)
    if e_p == 0.0:
        return 0.0, None
    return e_p, phi_measured_dbc + 20.0 * math.log10(e_th / e_p) + ell_db


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
# bias sweep

def spin_frequency_vs_field(D: float, g_par: float,
                            b_values) -> np.ndarray:
    """omega_s(B) of the +3/2 <-> +1/2 transition in an axial field (rad/s),
    for the zero-field splitting D (rad/s) and the g-factor g_par.

    Along the c-axis the Hamiltonian is diagonal, so the gap is exactly
    |2D + g_par mu_B B / hbar|, with B the signed field along the axis.
    """
    check_g_factors(g_par)
    b_values = np.asarray(b_values, dtype=float)
    return np.abs(2.0 * D + (g_par * CONST.mu_B / CONST.hbar) * b_values)


def bias_sweep_trace(omega_s, params: dict, omega_d: float, power: float,
                     chain_gain_db: float) -> np.ndarray:
    """Complex channel voltage at the spin frequencies omega_s (rad/s), of
    any shape, for the params record of cavity.gamma_prime driven at
    omega_d (rad/s) with power (W): .real is the absorptive channel and
    .imag the dispersive one.

    The caller maps its bias fields to omega_s, by spin_frequency_vs_field
    on axis or by a tracked line of any orientation.
    """
    gamma = gamma_prime(omega_s, omega_d, omega_d, power, params)
    scale = db_to_voltage_gain(chain_gain_db) * math.sqrt(power * _LOAD_OHM)
    return scale * gamma


# ---------------------------------------------------------------------------
# CSV outputs

def render_sweep_csv(path, b_values: np.ndarray, v: np.ndarray) -> str:
    return render_columns(path, ("b_tesla", "absorptive_v", "dispersive_v"),
                          np.column_stack([b_values, v.real, v.imag]))


def render_eta_table_csv(path, b_values: np.ndarray,
                         p_values_dbm: np.ndarray, eta: np.ndarray) -> str:
    """Long-format table: b_gauss, p_dbm, eta_t_per_rthz."""
    b, p = np.meshgrid(np.asarray(b_values, dtype=float) * 1e4,
                       np.asarray(p_values_dbm, dtype=float), indexing="ij")
    return render_columns(path, ("b_gauss", "p_dbm", "eta_t_per_rthz"),
                          np.column_stack([b.ravel(), p.ravel(),
                                           np.ravel(eta)]))
