"""Test-coil field calibration.

Converts coil current to magnetic field at the sensor through the on-axis
solenoid formula, and cross-checks it against the field inferred from the
measured dispersive response and the known slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import constants as CONST
from .csvio import read_columns
from .errors import DegenerateAbscissa, ParseError, TooFewPoints, ZeroSlope


@dataclass(frozen=True)
class CoilGeometry:
    n_turns: int = 8
    radius: float = 15.68e-3    # m
    distance: float = 30e-3     # m, coil center to sensor on axis

    def __post_init__(self):
        if self.n_turns < 1 or self.radius <= 0:
            raise ValueError("n_turns and radius must be positive")


def solenoid_axial_field(coil: CoilGeometry, current: float) -> float:
    """On-axis field of a thin n-turn loop at distance z from its center.

    B = n mu_0 I R^2 / (2 (z^2 + R^2)^{3/2})  [tesla]
    """
    r2 = coil.radius ** 2
    return (coil.n_turns * CONST.mu_0 * current * r2
            / (2.0 * (coil.distance ** 2 + r2) ** 1.5))


class LinearCalibration(NamedTuple):
    slope: float
    intercept: float
    r_squared: float


def linear_calibration(x, y) -> LinearCalibration:
    """Ordinary least-squares line through (x, y) with goodness of fit."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise TooFewPoints("need at least two calibration points")
    if np.ptp(x) == 0:
        raise DegenerateAbscissa("abscissa values are all identical")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx, sxy, syy = dx @ dx, dx @ dy, dy @ dy
    slope = sxy / sxx
    # a constant y leaves r undefined: NaN, as scipy.stats.linregress has it
    r_squared = min(sxy * sxy / (sxx * syy), 1.0) if syy > 0 else math.nan
    return LinearCalibration(slope=float(slope),
                             intercept=float(y.mean() - slope * x.mean()),
                             r_squared=float(r_squared))


def test_field_from_slope(v_rms: float, m_slope: float) -> float:
    """RMS test field inferred from the dispersive tone: B = V_rms / |M|."""
    if m_slope == 0:
        raise ZeroSlope("dispersive slope must be nonzero")
    return v_rms / abs(m_slope)


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
