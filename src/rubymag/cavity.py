"""Spin-loaded cavity reflection, interaction term, coupling and cooperativity.

The reflection coefficient is

    Gamma = -1 + kappa_c1 / (kappa_c/2 + i(omega_d - omega_c) + Pi)

with the spin interaction term

    Pi = gs^2 N / (kappa_s/2 + i(omega_d - omega_s)
         + [gs^2 n_cav kappa_s / (2 kappa_th)] / (kappa_s/2 - i(omega_d - omega_s)))

All rates and frequencies are angular (rad/s); power is watts.  The frequency
arguments of the functional helpers broadcast over numpy arrays so that 2D
(omega_s, omega_d) grids evaluate in one shot.

gamma_prime is the one implementation of the measurable Gamma' that the fit,
the model grids, the bias sweeps and the noise prediction all evaluate.
interaction_term, reflection_coefficient and reflection spell the formulas
out term by term and serve as its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants as CONST
from .errors import ZeroCoupling, ZeroKappaTh, ZeroLinewidth, ZeroSpinLinewidth


@dataclass
class CavityParams:
    """Cavity frequency with its intrinsic and input-coupling loss rates."""

    omega_c: float     # rad/s
    kappa_c0: float    # intrinsic, rad/s
    kappa_c1: float    # input coupling, rad/s

    def __post_init__(self):
        # each check is written so that NaN, which compares False, fails it
        if not (self.omega_c > 0 and self.kappa_c0 > 0 and self.kappa_c1 > 0):
            raise ValueError("cavity frequency and rates must be positive")

    @property
    def kappa_c(self) -> float:
        return self.kappa_c0 + self.kappa_c1


@dataclass
class EnsembleParams:
    """Spin ensemble: single-spin coupling, count, linewidths and frequency."""

    g_s: float                             # single spin-photon coupling, rad/s
    N: float                               # polarized spin count
    kappa_s: float                         # 2/T2, rad/s
    kappa_th: float                        # 1/T1, rad/s
    omega_s: float                         # rad/s

    def __post_init__(self):
        if not all(v >= 0 for v in (self.g_s, self.N, self.kappa_s,
                                    self.kappa_th, self.omega_s)):
            raise ValueError("ensemble parameters must be non-negative")

    @property
    def g_eff(self) -> float:
        """Collective coupling g_s * sqrt(N); derived, never stored."""
        return self.g_s * math.sqrt(self.N)


@dataclass
class DriveParams:
    """Microwave drive frequency and power."""

    omega_d: float     # rad/s
    power: float       # W

    def __post_init__(self):
        if not self.power >= 0:
            raise ValueError("drive power must be >= 0")


@dataclass
class NonIdealityParams:
    """Auxiliary parameters wrapping Gamma into the measurable Gamma'.

    Gamma' = o_r + i o_i + exp(i(psi + (omega_d - omega_ref) tau))
             * (1 + A + b (omega_d - omega_ref))
             * Gamma(omega_s - omega_s_off, omega_d - omega_d_off)

    The reference omega_ref is not a parameter: the caller derives it, as
    the mean drive frequency of a (omega_s, omega_d) grid or as the drive
    frequency of a bias sweep or time series.
    """

    o_r: float = 0.0
    o_i: float = 0.0
    A: float = 0.0
    b: float = 0.0             # s
    psi: float = 0.0           # rad
    tau: float = 0.0           # s
    omega_s_off: float = 0.0   # rad/s
    omega_d_off: float = 0.0   # rad/s


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


def watts_to_dbm(watts: float) -> float:
    return 10.0 * math.log10(watts / 1e-3)


def db_to_voltage_gain(db: float) -> float:
    return 10.0 ** (db / 20.0)


def photon_number(drive: DriveParams, kappa_c: float) -> float:
    """Mean intracavity photon number n_cav = P / (hbar omega_d kappa_c)."""
    if kappa_c <= 0:
        raise ZeroLinewidth("kappa_c must be positive")
    if drive.omega_d <= 0:
        raise ZeroLinewidth("omega_d must be positive")
    return drive.power / (CONST.hbar * drive.omega_d * kappa_c)


def _check_spin_rates(kappa_s: float, kappa_th: float, n_cav: float) -> None:
    if kappa_s <= 0:
        raise ZeroSpinLinewidth("kappa_s must be positive")
    if kappa_th <= 0 and n_cav > 0:
        raise ZeroKappaTh("kappa_th must be positive when the drive populates the cavity")


def interaction_term(g_s: float, N: float, kappa_s: float, kappa_th: float,
                     omega_s, omega_d, n_cav: float):
    """Spin interaction term Pi (rad/s); broadcasts over frequency arrays."""
    _check_spin_rates(kappa_s, kappa_th, n_cav)
    delta = np.asarray(omega_d, dtype=float) - np.asarray(omega_s, dtype=float)
    saturation = 0.0
    if n_cav > 0:
        saturation = (g_s ** 2 * n_cav * kappa_s / (2.0 * kappa_th)) \
            / (kappa_s / 2.0 - 1j * delta)
    return g_s ** 2 * N / (kappa_s / 2.0 + 1j * delta + saturation)


def spin_interaction(ens: EnsembleParams, drive: DriveParams, n_cav: float):
    """Pi evaluated from parameter bundles."""
    return interaction_term(ens.g_s, ens.N, ens.kappa_s, ens.kappa_th,
                            ens.omega_s, drive.omega_d, n_cav)


def reflection_coefficient(kappa_c0: float, kappa_c1: float, omega_c: float,
                           omega_d, pi_term):
    """Gamma for a given interaction term; broadcasts over arrays."""
    kappa_c = kappa_c0 + kappa_c1
    return -1.0 + kappa_c1 / (kappa_c / 2.0
                              + 1j * (np.asarray(omega_d, dtype=float) - omega_c)
                              + pi_term)


def reflection(cav: CavityParams, ens: EnsembleParams, drive: DriveParams):
    """Spin-loaded complex reflection coefficient at the drive frequency."""
    n_cav = photon_number(drive, cav.kappa_c)
    pi_term = spin_interaction(ens, drive, n_cav)
    return reflection_coefficient(cav.kappa_c0, cav.kappa_c1, cav.omega_c,
                                  drive.omega_d, pi_term)


def gamma_prime_params(cav: CavityParams, ens: EnsembleParams,
                       ni: NonIdealityParams) -> list:
    """The params list of gamma_prime, from parameter bundles."""
    return [cav.kappa_c0, cav.kappa_c1, ens.kappa_s, ens.kappa_th, ens.g_eff,
            ni.o_r, ni.o_i, ni.A, ni.b, ni.psi, ni.tau,
            ni.omega_s_off, ni.omega_d_off]


def _gamma_terms(omega_s, omega_d, omega_ref: float, omega_c: float,
                 g_s: float, power: float, params, omega_n=None) -> tuple:
    """The intermediates of gamma_prime, which gamma_prime_jacobian reuses.

    Returns (omega_d - omega_d_off, delta', S, D, G/D, den, d,
    exp(i(psi + d tau)), e), den being the loaded denominator
    kappa_c/2 + i(omega_d - omega_d_off - omega_c) + Pi (see gamma_prime for
    the symbols).  Raises what photon_number and interaction_term raise at
    every point first.
    """
    (kappa_c0, kappa_c1, kappa_s, kappa_th, g_eff,
     o_r, o_i, A, b, psi, tau, omega_s_off, omega_d_off) = params
    kappa_c = kappa_c0 + kappa_c1
    if kappa_c <= 0:
        raise ZeroLinewidth("kappa_c must be positive")
    wd = omega_d - omega_d_off
    if np.any(wd <= 0) or (omega_n is not None and omega_n <= 0):
        raise ZeroLinewidth("omega_d must be positive")
    _check_spin_rates(kappa_s, kappa_th, power)   # n_cav has power's sign
    delta = np.subtract.outer(omega_s - omega_s_off, wd)
    s_term = 0.0
    if power:   # undriven, kappa_th never enters and may be 0
        s_term = (g_s ** 2 * power / (2.0 * CONST.hbar) * kappa_s
                  / (kappa_th * kappa_c)) / (wd if omega_n is None else omega_n)
    dd = delta * delta
    dd += 0.25 * kappa_s * kappa_s + s_term
    g_over_d = (g_eff * g_eff) / dd
    den = np.empty(np.shape(delta), dtype=complex)
    den.real = 0.5 * kappa_c + (0.5 * kappa_s) * g_over_d
    den.imag = (wd - omega_c) + delta * g_over_d
    d = omega_d - omega_ref
    phase = np.exp(1j * (psi + d * tau))
    e = (1.0 + A + b * d) * phase
    return wd, delta, s_term, dd, g_over_d, den, d, phase, e


def gamma_prime(omega_s, omega_d, omega_ref: float, omega_c: float,
                g_s: float, power: float, params, omega_n=None):
    """Gamma' with rows over omega_s and columns over omega_d.

    params holds the floats kappa_c0, kappa_c1, kappa_s, kappa_th, g_eff,
    o_r, o_i, A, b, psi, tau, omega_s_off, omega_d_off (gamma_prime_params);
    omega_ref is the drive frequency the b and tau terms are measured from.
    n_cav = P / (hbar omega_n kappa_c) is evaluated at omega_n, by default at
    the shifted drive frequency omega_d - omega_d_off of each point.  It
    raises the reference's errors: ZeroLinewidth unless kappa_c, every
    shifted drive frequency and omega_n are positive, then
    ZeroSpinLinewidth or ZeroKappaTh as interaction_term does.

    With delta' = (omega_s - omega_s_off) - (omega_d - omega_d_off),
    G = g_eff^2 and S = g_s^2 n_cav kappa_s / (2 kappa_th), the interaction
    term is rewritten exactly as Pi = G (kappa_s/2 + i delta') / D with the
    real D = delta'^2 + kappa_s^2/4 + S, so

        Gamma' = o - e + kappa_c1 e / (kappa_c/2 + i(omega_d - omega_d_off
                                        - omega_c) + Pi)

    with e = (1 + A + b d) exp(i(psi + d tau)), d = omega_d - omega_ref,
    takes one complex division per point, and Pi is exactly 0 when
    g_eff = 0.
    """
    *_, den, _, _, e = _gamma_terms(omega_s, omega_d, omega_ref, omega_c,
                                    g_s, power, params, omega_n)
    kappa_c1, o_r, o_i = params[1], params[5], params[6]
    gamma = np.divide(kappa_c1 * e, den, out=den)
    gamma += o_r + 1j * o_i - e
    return gamma


def gamma_prime_jacobian(omega_s, omega_d, omega_ref: float, omega_c: float,
                         g_s: float, power: float, params) -> np.ndarray:
    """dGamma'/dparams, shape (13, n_s, n_d), rows in gamma_prime_params order.

    The arguments are gamma_prime's, with n_cav always at the shifted drive
    frequency, and it raises gamma_prime's errors.  With
    h = (kappa_s/2 + i delta') / D, so that Pi = G h, the chain rule runs
    through

        dPi/d delta' = (G/D)(i - 2 delta' h),   dPi/dS = -(G/D) h,

    S scaling as kappa_s / (kappa_th kappa_c (omega_d - omega_d_off)), and
    dGamma'/d den = -q with q = kappa_c1 e / den^2.  The omega_d_off row
    thus carries d den/d omega_d_off = -i + dPi/d delta'
    - (G/D) h S / (omega_d - omega_d_off); at the fit's drive powers the
    last term is of order 1e-5 of the row.
    """
    kappa_c0, kappa_c1, kappa_s, kappa_th, g_eff = params[:5]
    wd, delta, s_term, dd, g_over_d, den, d, phase, e = _gamma_terms(
        omega_s, omega_d, omega_ref, omega_c, g_s, power, params)
    inv = 1.0 / den
    gamma = kappa_c1 * inv - 1.0
    q = kappa_c1 * e * inv * inv
    h = np.empty_like(den)
    h.real = 0.5 * kappa_s / dd
    h.imag = delta / dd
    qh = q * h                 # -dGamma'/dG
    qgh = qh * g_over_d        # dGamma'/dS
    qg = q * g_over_d
    jac = np.empty((13,) + den.shape, dtype=complex)
    jac[0] = -0.5 * q - qgh * (s_term / (kappa_c0 + kappa_c1))
    jac[1] = e * inv + jac[0]
    jac[2] = -0.5 * qg + qgh * (0.5 * kappa_s + s_term / kappa_s)
    jac[3] = qgh * (-s_term / kappa_th) if power else 0.0
    jac[4] = (-2.0 * g_eff) * qh
    jac[5] = 1.0
    jac[6] = 1j
    jac[7] = phase * gamma
    jac[8] = d * jac[7]
    jac[9] = 1j * e * gamma
    jac[10] = d * jac[9]
    jac[11] = 1j * qg - 2.0 * delta * qgh
    jac[12] = 1j * q - jac[11] + qgh * (s_term / wd)
    return jac


def single_spin_coupling(V_cav: float, omega_c: float) -> float:
    """g_s = (gamma_e n_perp / 2) sqrt(hbar omega_c mu_0 / V_cav)  [rad/s]
    with n_perp = 1, the cavity field wholly transverse to the spin axis."""
    if V_cav <= 0:
        raise ValueError("V_cav must be positive")
    return (CONST.gamma_e / 2.0) \
        * math.sqrt(CONST.hbar * omega_c * CONST.mu_0 / V_cav)


def cooperativity(ens: EnsembleParams, cav: CavityParams) -> float:
    """Collective cooperativity xi = 4 g_eff^2 / (kappa_s kappa_c)."""
    if ens.kappa_s <= 0:
        raise ZeroSpinLinewidth("kappa_s must be positive")
    if cav.kappa_c <= 0:
        raise ZeroLinewidth("kappa_c must be positive")
    return 4.0 * ens.g_eff ** 2 / (ens.kappa_s * cav.kappa_c)


def kappa_th_threshold_power(T1: float, T2: float, g_s: float, omega_d: float,
                             kappa_c: float) -> float:
    """Drive power (W) at which saturation matches kappa_s/2.

    Solves kappa_s/2 = g_s^2 n_cav / kappa_th for the incident power, with
    kappa_s = 2/T2 and kappa_th = 1/T1; below this power the relaxation rate
    kappa_th becomes hard to estimate from reflection data.
    """
    if g_s <= 0:
        raise ZeroCoupling("g_s must be positive")
    if min(T1, T2, omega_d, kappa_c) <= 0:
        raise ValueError("T1, T2, omega_d and kappa_c must be positive")
    kappa_s = 2.0 / T2
    kappa_th = 1.0 / T1
    return (kappa_s * kappa_th / (2.0 * g_s ** 2)) \
        * CONST.hbar * omega_d * kappa_c
