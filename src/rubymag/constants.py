"""Fixed physical constants (CODATA 2018), as module-level floats.

These are deliberately not user-configurable: every module imports this one
module (``from . import constants as CONST``) so that unit conversions stay
consistent across the toolkit.

Convention: ``gamma_e`` is the electron gyromagnetic ratio in rad/s/T,
i.e. g_e * mu_B / hbar with the free-electron g-factor.  Angular frequencies
(rad/s) are used for all energies and rates internally; conversions to plain
Hz happen only at I/O boundaries.
"""

hbar = 1.054571817e-34       # J s
mu_B = 9.2740100783e-24      # J/T
k_B = 1.380649e-23           # J/K
mu_0 = 1.25663706212e-6      # T m/A
gamma_e = 1.76085963023e11   # rad/s/T (= g_e mu_B / hbar)
