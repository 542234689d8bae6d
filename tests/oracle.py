"""Closed forms and term-by-term formulas the tests check the package against.

No command runs these, so they live beside the tests; pytest does not
collect this module.

- analytic_energies_axial is the closed form of the levels at theta = 0,
  the oracle of spins.eigensolve.
- photon_number, spin_interaction and reflection give Gamma from parameter
  bundles by composing cavity.interaction_term and
  cavity.reflection_coefficient, the term-by-term reference of
  cavity.gamma_prime.
- record builds gamma_prime's params record from parameter bundles.
- optical_power_equivalent and field_from_slope are the paper's arithmetic
  that acceptance criteria 10 and 11 check.
"""

import numpy as np

from rubymag import constants as CONST
from rubymag.cavity import (PARAM_NAMES, CavityParams, DriveParams,
                            EnsembleParams, interaction_term,
                            reflection_coefficient)
from rubymag.errors import ZeroLinewidth, ZeroSlope
from rubymag.spins import SpinSystem


def analytic_energies_axial(sys: SpinSystem, b_z: float) -> np.ndarray:
    """Closed-form axial-field eigenenergies (rad/s), ascending.

    E(+-1/2) = -D +- (1/2)(g_par mu_B / hbar) B_z
    E(+-3/2) =  D +- (3/2)(g_par mu_B / hbar) B_z

    The Zeeman term multiplies B_z (not hbar); the diagonal of the full
    Hamiltonian fixes the dimensions unambiguously.
    """
    if b_z < 0:
        raise ValueError("B_z must be >= 0")
    b = sys.g_par * CONST.mu_B * b_z / CONST.hbar
    e = np.array([sys.D + 1.5 * b, -sys.D + 0.5 * b,
                  -sys.D - 0.5 * b, sys.D - 1.5 * b])
    return np.sort(e)


def photon_number(drive: DriveParams, kappa_c: float) -> float:
    """Mean intracavity photon number n_cav = P / (hbar omega_d kappa_c)."""
    if kappa_c <= 0:
        raise ZeroLinewidth("kappa_c must be positive")
    if drive.omega_d <= 0:
        raise ZeroLinewidth("omega_d must be positive")
    return drive.power / (CONST.hbar * drive.omega_d * kappa_c)


def spin_interaction(ens: EnsembleParams, drive: DriveParams, n_cav: float):
    """Pi evaluated from parameter bundles."""
    return interaction_term(ens.g_s, ens.N, ens.kappa_s, ens.kappa_th,
                            ens.omega_s, drive.omega_d, n_cav)


def reflection(cav: CavityParams, ens: EnsembleParams, drive: DriveParams):
    """Spin-loaded complex reflection coefficient at the drive frequency."""
    n_cav = photon_number(drive, cav.kappa_c)
    pi_term = spin_interaction(ens, drive, n_cav)
    return reflection_coefficient(cav.kappa_c0, cav.kappa_c1, cav.omega_c,
                                  drive.omega_d, pi_term)


def record(cav: CavityParams, ens: EnsembleParams, **nonideal) -> dict:
    """gamma_prime's params record of the bundles, g_eff = ens.g_eff, with
    the non-idealities given by name and 0 otherwise."""
    unknown = set(nonideal) - set(PARAM_NAMES[5:])
    if unknown:
        raise KeyError(f"not a non-ideality: {sorted(unknown)}")
    return {"kappa_c0": cav.kappa_c0, "kappa_c1": cav.kappa_c1,
            "kappa_s": ens.kappa_s, "kappa_th": ens.kappa_th,
            "g_eff": ens.g_eff, **dict.fromkeys(PARAM_NAMES[5:], 0.0),
            **nonideal, "omega_c": cav.omega_c, "g_s": ens.g_s}


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
        raise ZeroSlope("dispersive slope must be nonzero")
    return v_rms / abs(m_slope)
