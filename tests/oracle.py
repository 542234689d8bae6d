"""Closed forms and term-by-term formulas the tests check the package against.

No command runs these, so they live beside the tests; pytest does not
collect this module.

- analytic_energies_axial is the closed form of the levels at theta = 0,
  the oracle of spins.eigensolve.
- photon_number, spin_interaction and reflection give Gamma of a params
  record by composing cavity.interaction_term and
  cavity.reflection_coefficient, the term-by-term reference of
  cavity.gamma_prime; reflection_of_lines sums Pi over several spin lines,
  as a field off a symmetry axis splits one line in two.
- record builds gamma_prime's params record from its values by name.
- normalize_grid and dip_trajectory read a crossing grid's values: its
  scale by the border frame, and the drive frequency of its dip in each
  omega_s row.  Acceptance criteria 13 and 16 use them.
- optical_power_equivalent and field_from_slope are the paper's arithmetic
  that acceptance criteria 10 and 11 check.
"""

import numpy as np

from rubymag import constants as CONST
from rubymag.cavity import (MODEL_NAMES, PARAM_NAMES, interaction_term,
                            reflection_coefficient)
from rubymag.errors import ZeroLinewidth


def analytic_energies_axial(D: float, g_par: float,
                            b_z: float) -> np.ndarray:
    """Closed-form axial-field eigenenergies (rad/s), ascending.

    E(+-1/2) = -D +- (1/2)(g_par mu_B / hbar) B_z
    E(+-3/2) =  D +- (3/2)(g_par mu_B / hbar) B_z

    The Zeeman term multiplies B_z (not hbar); the diagonal of the full
    Hamiltonian fixes the dimensions unambiguously.
    """
    if b_z < 0:
        raise ValueError("B_z must be >= 0")
    b = g_par * CONST.mu_B * b_z / CONST.hbar
    e = np.array([D + 1.5 * b, -D + 0.5 * b, -D - 0.5 * b, D - 1.5 * b])
    return np.sort(e)


def photon_number(omega_d: float, power: float, kappa_c: float) -> float:
    """Mean intracavity photon number n_cav = P / (hbar omega_d kappa_c)."""
    if kappa_c <= 0:
        raise ZeroLinewidth("kappa_c must be positive")
    if omega_d <= 0:
        raise ZeroLinewidth("omega_d must be positive")
    return power / (CONST.hbar * omega_d * kappa_c)


def spin_interaction(params: dict, omega_s, omega_d, n_cav: float):
    """Pi of the params record, its g_eff carried as g_s sqrt(N)."""
    g_s = params["g_s"]
    return interaction_term(g_s, (params["g_eff"] / g_s) ** 2,
                            params["kappa_s"], params["kappa_th"], omega_s,
                            omega_d, n_cav)


def reflection(params: dict, omega_s, omega_d, power: float):
    """Spin-loaded complex reflection coefficient of the params record's
    cavity and spin values, its non-idealities ignored."""
    return reflection_of_lines(params, [(omega_s, 1.0)], omega_d, power)


def reflection_of_lines(params: dict, lines, omega_d, power: float):
    """reflection when the drive meets several spin lines: Pi is the sum,
    over the (omega_s, weight) pairs in lines, of weight times the record's
    Pi at that omega_s.  The weight scales g_eff^2 alone, so every line
    keeps the record's saturation S."""
    kappa_c0, kappa_c1 = params["kappa_c0"], params["kappa_c1"]
    n_cav = photon_number(omega_d, power, kappa_c0 + kappa_c1)
    pi_term = sum(weight * spin_interaction(params, omega_s, omega_d, n_cav)
                  for omega_s, weight in lines)
    return reflection_coefficient(kappa_c0, kappa_c1, params["omega_c"],
                                  omega_d, pi_term)


def record(**values) -> dict:
    """gamma_prime's params record, in MODEL_NAMES order, from its values
    by name: the non-idealities PARAM_NAMES[5:] are 0 unless given, every
    other name is required, and an unknown name is a KeyError."""
    params = {name: values.pop(name, 0.0) if name in PARAM_NAMES[5:]
              else values.pop(name) for name in MODEL_NAMES}
    if values:
        raise KeyError(f"not a record name: {sorted(values)}")
    return params


def normalize_grid(values: np.ndarray) -> np.ndarray:
    """Divide by the median |value| over the outermost border frame."""
    border = np.concatenate([values[0], values[-1], values[1:-1, 0],
                             values[1:-1, -1]])
    scale = float(np.median(np.abs(border)))
    if scale == 0.0:
        raise ValueError("border frame has zero magnitude; cannot normalize")
    return values / scale


def dip_trajectory(omega_d: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Drive frequency minimizing |Gamma| for each omega_s row (rad/s).

    omega_d is read in increasing order, one column of values per point.
    The minimum bin is refined with a parabolic fit through its neighbors so
    the reported dip is not quantized to the grid step.
    """
    mags = np.abs(values)
    rows = np.arange(mags.shape[0])
    k = np.argmin(mags, axis=1)
    inner = (k > 0) & (k < omega_d.size - 1)
    # every row reads a three-point window; only inner rows use it
    kc = np.clip(k, 1, omega_d.size - 2)
    y0, y1, y2 = mags[rows, kc - 1], mags[rows, kc], mags[rows, kc + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = np.zeros(rows.size)
    np.divide(0.5 * (y0 - y2), denom, out=shift, where=inner & (denom != 0))
    step = omega_d[kc + 1] - omega_d[kc]
    return np.where(inner, omega_d[kc] + shift * step, omega_d[k])


def optical_power_equivalent(N: float, omega: float, kappa_th: float,
                             n_photons: float) -> float:
    """Optical power (W) that hypothetical optical pumping would need.

    P = N * hbar * omega * kappa_th * n_photons.
    """
    if min(N, omega, kappa_th, n_photons) < 0:
        raise ValueError("all arguments must be non-negative")
    return N * CONST.hbar * omega * kappa_th * n_photons


def field_from_slope(v_rms: float, m_slope: float) -> float:
    """RMS test field inferred from the dispersive tone: B = V_rms / |M|."""
    if m_slope == 0:
        raise ValueError("dispersive slope must be nonzero")
    return v_rms / abs(m_slope)
