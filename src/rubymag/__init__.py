"""Simulation and estimation toolkit for a cavity-coupled spin magnetometer.

Modules:
    spins         spin-3/2 Hamiltonian, eigensolver, level sweeps
    thermal       Boltzmann populations and polarized-spin accounting
    cavity        spin-loaded reflection coefficient and coupling constants
    fitting       avoided-crossing grids and the non-ideality fit
    iqnoise       source-noise propagation through the reflection
    magnetometry  bias sweeps, slopes and sensitivity budgets
    calibration   test-coil fields and linear calibrations
    csvio         checked reading of input CSVs, rendering of CSV and JSON
    config, cli   JSON configuration and command-line interface
"""

from . import constants as CONST

__all__ = ["CONST"]
__version__ = "0.1.0"
