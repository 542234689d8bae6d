"""Thermal-equilibrium spin populations and polarized-spin accounting.

Populations travel as the tuple (p1, p2, p3, p4), indexed by the convention
p1, p2 = |+-3/2> and p3, p4 = |+-1/2>.  The Zeeman shift is neglected, so the
level energies are E(+-3/2) = hbar*D and E(+-1/2) = -hbar*D; at 293 K and a
31 G bias the exact energies would move the populations by about 5e-6.
"""

from __future__ import annotations

import math

import numpy as np

from . import constants as CONST


def boltzmann_populations(D: float, T: float) -> tuple:
    """Thermal populations (p1, p2, p3, p4) of the levels
    (+3/2, -3/2, +1/2, -1/2) for the zero-field splitting D (rad/s) at the
    temperature T in K.

    The Zeeman shift is neglected: the two |+-3/2> levels sit at hbar*D and
    the two |+-1/2> levels at -hbar*D.
    """
    if T <= 0:
        raise ValueError(f"temperature must be > 0, got {T}")
    # energies in rad/s, basis order (+3/2, +1/2, -1/2, -3/2)
    energies = np.array([D, -D, -D, D])
    x = -CONST.hbar * energies / (CONST.k_B * T)
    x -= x.max()
    w = np.exp(x)
    p = w / w.sum()
    # basis order -> population convention (+3/2, -3/2, +1/2, -1/2)
    return p[0], p[3], p[1], p[2]


def polarization(populations) -> float:
    """Effective polarization |p1 - p3| between the addressed states."""
    return abs(populations[0] - populations[2])


def total_interrogated_spins(V_cav: float, V_cell: float, alpha_Cr: float,
                             m_Al2O3: float, m_Cr2O3: float,
                             N_cell: float) -> float:
    """Number of Cr3+ spins inside the modal field volume V_cav (m^3), for
    the unit-cell volume V_cell (m^3), the weight fraction alpha_Cr of
    Cr2O3, the molar masses m_Al2O3 and m_Cr2O3 (g/mol) and N_cell Al atoms
    per unit cell.

    N_tot = (V_cav / V_cell) * alpha * (m_Al2O3 / m_Cr2O3) * N_cell,
    returned as a real number (never rounded).  Raises OverflowError when
    the product is not finite.
    """
    # written so that NaN, which compares False, fails the checks; the
    # count also fails its check at +-inf and fractional values, since
    # n % 1 is NaN at inf and nonzero for a fraction
    if not all(v > 0 for v in (V_cav, V_cell, m_Al2O3, m_Cr2O3)):
        raise ValueError("volumes and molar masses must be positive")
    if not 0.0 <= alpha_Cr <= 1.0:
        raise ValueError("alpha_Cr must lie in [0, 1]")
    if not (N_cell >= 1 and N_cell % 1 == 0):
        raise ValueError("N_cell must be a positive integer")
    n = (V_cav / V_cell) * alpha_Cr * (m_Al2O3 / m_Cr2O3) * N_cell
    if not math.isfinite(n):
        raise OverflowError(f"the interrogated spin count overflows: {n}")
    return n
