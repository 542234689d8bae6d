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
the model grids, the bias sweeps and the noise prediction all evaluate, each
passing the same params record: a dict keyed by MODEL_NAMES, which is also
what a fit returns.
interaction_term and reflection_coefficient write Pi and Gamma out term by
term: the tests compose them into gamma_prime's reference, and the
benchmark's tracer wraps them by name.
"""

from __future__ import annotations

import math

import numpy as np

from . import constants as CONST
from .errors import ZeroCoupling, ZeroLinewidth


def dbm_to_watts(dbm: float) -> float:
    try:
        return 10.0 ** (dbm / 10.0) * 1e-3
    except OverflowError:
        raise OverflowError(f"{dbm!r} dBm overflows a float") from None


def watts_to_dbm(watts: float) -> float:
    if not watts > 0:
        raise ValueError(f"a power of {watts!r} W has no dBm value; need > 0")
    return 10.0 * math.log10(watts / 1e-3)


def db_to_voltage_gain(db: float) -> float:
    try:
        return 10.0 ** (db / 20.0)
    except OverflowError:
        raise OverflowError(f"a gain of {db!r} dB overflows a float") from None


def _check_spin_rates(kappa_s: float, kappa_th: float, n_cav: float) -> None:
    if kappa_s <= 0:
        raise ValueError("kappa_s must be positive")
    if kappa_th <= 0 and n_cav > 0:
        raise ValueError("kappa_th must be positive when the drive populates the cavity")


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


def reflection_coefficient(kappa_c0: float, kappa_c1: float, omega_c: float,
                           omega_d, pi_term):
    """Gamma for a given interaction term; broadcasts over arrays."""
    kappa_c = kappa_c0 + kappa_c1
    return -1.0 + kappa_c1 / (kappa_c / 2.0
                              + 1j * (np.asarray(omega_d, dtype=float) - omega_c)
                              + pi_term)


# the fitted parameters of gamma_prime, then the two values a fit holds fixed;
# gamma_prime's params record is keyed by MODEL_NAMES
PARAM_NAMES = ("kappa_c0", "kappa_c1", "kappa_s", "kappa_th", "g_eff",
               "o_r", "o_i", "A", "b", "psi", "tau",
               "omega_s_off", "omega_d_off")
MODEL_NAMES = PARAM_NAMES + ("omega_c", "g_s")


def _gamma_terms(omega_s, omega_d, omega_ref: float, power: float, params,
                 omega_n=None) -> tuple:
    """The intermediates of gamma_prime, which gamma_prime_jacobian reuses.

    Returns (omega_d - omega_d_off, delta', S, D, G/D, den, d,
    exp(i(psi + d tau)), e), den being the loaded denominator
    kappa_c/2 + i(omega_d - omega_d_off - omega_c) + Pi (see gamma_prime for
    the symbols).  Raises gamma_prime's errors at every point first.
    """
    kappa_s, kappa_th = params["kappa_s"], params["kappa_th"]
    g_s = params["g_s"]
    kappa_c = params["kappa_c0"] + params["kappa_c1"]
    if kappa_c <= 0:
        raise ZeroLinewidth("kappa_c must be positive")
    wd = omega_d - params["omega_d_off"]
    # the drive checks and the record's ranges, each written so that NaN,
    # which compares False, fails it
    if not np.all(wd > 0) or (omega_n is not None and not omega_n > 0):
        raise ZeroLinewidth("omega_d must be positive")
    _check_spin_rates(kappa_s, kappa_th, power)   # n_cav has power's sign
    for name in ("omega_c", "kappa_c0", "kappa_c1"):
        if not params[name] > 0:
            raise ValueError(f"{name} must be > 0, got {params[name]!r}")
    for name, value in (("g_s", g_s), ("g_eff", params["g_eff"]),
                        ("kappa_s", kappa_s), ("kappa_th", kappa_th),
                        ("power", power)):
        if not value >= 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")
    for name, value in (("omega_ref", omega_ref),
                        *((name, params[name]) for name in PARAM_NAMES[5:])):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not np.all(np.greater_equal(omega_s, 0)):
        raise ValueError("omega_s must be >= 0 at every point")
    delta = np.subtract.outer(omega_s - params["omega_s_off"], wd)
    s_term = 0.0
    if power:   # undriven, kappa_th never enters and may be 0
        try:
            g_s2 = g_s ** 2
        except OverflowError:
            raise OverflowError(f"g_s = {g_s!r} rad/s overflows a float "
                                "when squared") from None
        s_term = (g_s2 * power / (2.0 * CONST.hbar) * kappa_s
                  / (kappa_th * kappa_c)) / (wd if omega_n is None else omega_n)
    dd = delta * delta
    dd += 0.25 * kappa_s * kappa_s + s_term
    g_over_d = (params["g_eff"] * params["g_eff"]) / dd
    den = np.empty(np.shape(delta), dtype=complex)
    den.real = 0.5 * kappa_c + (0.5 * kappa_s) * g_over_d
    den.imag = (wd - params["omega_c"]) + delta * g_over_d
    d = omega_d - omega_ref
    phase = np.exp(1j * (params["psi"] + d * params["tau"]))
    e = (1.0 + params["A"] + params["b"] * d) * phase
    return wd, delta, s_term, dd, g_over_d, den, d, phase, e


def gamma_prime(omega_s, omega_d, omega_ref: float, power: float, params,
                omega_n=None):
    """Gamma' with rows over omega_s and columns over omega_d.

    params is the model record, a dict keyed by MODEL_NAMES: the cavity
    rates kappa_c0 and kappa_c1, the spin rates kappa_s and kappa_th, the
    collective coupling g_eff, the non-idealities o_r, o_i, A, b (s),
    psi (rad), tau (s), omega_s_off and omega_d_off, then the cavity
    frequency omega_c and the single-spin coupling g_s; rates and
    frequencies in rad/s.  The non-idealities wrap Gamma into the measurable

        Gamma' = o_r + i o_i + exp(i(psi + (omega_d - omega_ref) tau))
                 * (1 + A + b (omega_d - omega_ref))
                 * Gamma(omega_s - omega_s_off, omega_d - omega_d_off)

    The reference omega_ref is not a parameter: the caller derives it, as
    the mean drive frequency of a (omega_s, omega_d) grid or as the drive
    frequency of a bias sweep.  n_cav = P / (hbar omega_n kappa_c) is
    evaluated at omega_n, by default at the shifted drive frequency
    omega_d - omega_d_off of each point.  It raises the reference's errors:
    ZeroLinewidth unless kappa_c, every shifted drive frequency and omega_n
    are positive, then ValueError on kappa_s or kappa_th as interaction_term
    does, then unless omega_c, kappa_c0 and kappa_c1 are > 0 and
    g_s, g_eff, kappa_s, kappa_th, power and every omega_s are >= 0 and
    omega_ref and the eight non-idealities are finite, NaN failing each:
    every record is checked where it is used.

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
    *_, den, _, _, e = _gamma_terms(omega_s, omega_d, omega_ref, power,
                                    params, omega_n)
    gamma = np.divide(params["kappa_c1"] * e, den, out=den)
    gamma += params["o_r"] + 1j * params["o_i"] - e
    return gamma


def gamma_prime_jacobian(omega_s, omega_d, omega_ref: float, power: float,
                         params) -> np.ndarray:
    """dGamma'/dparams, shape (13, n_s, n_d), rows in PARAM_NAMES order.

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
    kappa_c0, kappa_c1, kappa_s, kappa_th, g_eff = (
        params[name] for name in PARAM_NAMES[:5])
    wd, delta, s_term, dd, g_over_d, den, d, phase, e = _gamma_terms(
        omega_s, omega_d, omega_ref, power, params)
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


def cooperativity(params: dict) -> float:
    """Collective cooperativity xi = 4 g_eff^2 / (kappa_s kappa_c) of the
    params record."""
    kappa_c = params["kappa_c0"] + params["kappa_c1"]
    if params["kappa_s"] <= 0:
        raise ValueError("kappa_s must be positive")
    if kappa_c <= 0:
        raise ZeroLinewidth("kappa_c must be positive")
    return 4.0 * params["g_eff"] ** 2 / (params["kappa_s"] * kappa_c)


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
