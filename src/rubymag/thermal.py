"""Thermal-equilibrium spin populations and polarized-spin accounting.

Populations travel as the tuple (p1, p2, p3, p4), indexed by the convention
p1, p2 = |+-3/2> and p3, p4 = |+-1/2>.  The Zeeman shift is neglected, so the
level energies are E(+-3/2) = hbar*D and E(+-1/2) = -hbar*D; at 293 K and a
31 G bias the exact energies would move the populations by about 5e-6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constants as CONST
from .errors import NonPositiveTemperature
from .spins import SpinSystem


@dataclass
class MaterialParams:
    """Crystal and resonator quantities entering the spin-count estimate."""

    V_cav: float       # m^3
    V_cell: float      # m^3
    alpha_Cr: float    # weight fraction of Cr2O3
    m_Al2O3: float     # g/mol
    m_Cr2O3: float     # g/mol
    N_cell: int        # Al atoms per unit cell

    def __post_init__(self):
        # written so that NaN, which compares False, fails the checks
        if not all(v > 0 for v in (self.V_cav, self.V_cell, self.m_Al2O3,
                                   self.m_Cr2O3)):
            raise ValueError("volumes and molar masses must be positive")
        if not 0.0 <= self.alpha_Cr <= 1.0:
            raise ValueError("alpha_Cr must lie in [0, 1]")
        if self.N_cell < 1 or self.N_cell != int(self.N_cell):
            raise ValueError("N_cell must be a positive integer")


def boltzmann_populations(sys: SpinSystem, T: float) -> tuple:
    """Thermal populations (p1, p2, p3, p4) of the levels
    (+3/2, -3/2, +1/2, -1/2) at the temperature T in K.

    The Zeeman shift is neglected: the two |+-3/2> levels sit at hbar*D and
    the two |+-1/2> levels at -hbar*D.
    """
    if T <= 0:
        raise NonPositiveTemperature(f"temperature must be > 0, got {T}")
    # energies in rad/s, basis order (+3/2, +1/2, -1/2, -3/2)
    energies = np.array([sys.D, -sys.D, -sys.D, sys.D])
    x = -CONST.hbar * energies / (CONST.k_B * T)
    x -= x.max()
    w = np.exp(x)
    p = w / w.sum()
    # basis order -> population convention (+3/2, -3/2, +1/2, -1/2)
    return p[0], p[3], p[1], p[2]


def polarization(populations) -> float:
    """Effective polarization |p1 - p3| between the addressed states."""
    return abs(populations[0] - populations[2])


def total_interrogated_spins(mat: MaterialParams) -> float:
    """Number of Cr3+ spins inside the modal field volume.

    N_tot = (V_cav / V_cell) * alpha * (m_Al2O3 / m_Cr2O3) * N_cell,
    returned as a real number (never rounded).
    """
    return (mat.V_cav / mat.V_cell) * mat.alpha_Cr \
        * (mat.m_Al2O3 / mat.m_Cr2O3) * mat.N_cell


def polarized_spin_count(mat: MaterialParams, populations) -> float:
    """Effective polarization of the populations (p1, p2, p3, p4) times the
    interrogated spin count."""
    return polarization(populations) * total_interrogated_spins(mat)


def optical_power_equivalent(N: float, omega: float, kappa_th: float,
                             n_photons: float) -> float:
    """Optical power (W) that hypothetical optical pumping would need.

    P = N * hbar * omega * kappa_th * n_photons.
    """
    if min(N, omega, kappa_th, n_photons) < 0:
        raise ValueError("all arguments must be non-negative")
    return N * CONST.hbar * omega * kappa_th * n_photons
