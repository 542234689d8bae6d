"""Test-coil field calibration.

Converts coil current to magnetic field at the sensor through the on-axis
solenoid formula.
"""

from __future__ import annotations

import math

import numpy as np

from . import constants as CONST
from .csvio import read_columns
from .errors import DegenerateAbscissa, ParseError, TooFewPoints


def solenoid_axial_field(n_turns: float, radius: float, distance: float,
                         current: float) -> float:
    """On-axis field of a thin loop of n_turns turns and radius R (m) at the
    distance z (m) from its center, carrying current (A).

    B = n mu_0 I R^2 / (2 (z^2 + R^2)^{3/2})  [tesla]
    """
    # written so that NaN, which compares False, fails the check; the
    # count also fails it at +-inf and fractional values, since
    # n % 1 is NaN at inf and nonzero for a fraction
    if not (n_turns >= 1 and n_turns % 1 == 0 and radius > 0):
        raise ValueError("n_turns must be a positive integer and radius "
                         "positive")
    r2 = radius ** 2
    return (n_turns * CONST.mu_0 * current * r2
            / (2.0 * (distance ** 2 + r2) ** 1.5))


def linear_calibration(x, y) -> tuple[float, float, float]:
    """(slope, intercept, r_squared) of the ordinary least-squares line
    through (x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise TooFewPoints("need at least two calibration points")
    if np.ptp(x) == 0:
        raise DegenerateAbscissa("abscissa values are all identical")
    dx = x - x.mean()
    dy = y - y.mean()
    # exactly rounded sums: the same bits whichever BLAS kernel the CPU picks
    sxx, sxy, syy = (math.fsum(a * b) for a, b in ((dx, dx), (dx, dy),
                                                    (dy, dy)))
    slope = sxy / sxx
    # a constant y leaves r undefined: NaN, as scipy.stats.linregress has it
    r_squared = min(sxy * sxy / (sxx * syy), 1.0) if syy > 0 else math.nan
    return (float(slope), float(y.mean() - slope * x.mean()),
            float(r_squared))


def read_calibration_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Columns current_a, field_t.

    A missing column, a non-numeric or non-finite cell, fewer than two rows
    or currents that are all equal raise ParseError: the file cannot be
    fitted by linear_calibration.
    """
    table, _ = read_columns(path, ("current_a", "field_t"))
    if table.shape[0] < 2:
        raise ParseError(f"{path}: need at least two calibration rows, "
                         f"got {table.shape[0]}")
    if np.ptp(table[:, 0]) == 0:
        raise ParseError(f"{path}: the currents are all identical")
    return table[:, 0], table[:, 1]
