import math
from dataclasses import replace

import numpy as np
import pytest

from rubymag.calibration import (linear_calibration, read_calibration_csv,
                                 solenoid_axial_field)
from rubymag.calibration import test_field_from_slope as field_from_slope
from rubymag import constants as CONST
from rubymag.config import parse_config
from rubymag.csvio import render_columns
from rubymag.errors import (DegenerateAbscissa, ParseError, TooFewPoints,
                            ZeroSlope)

I_RMS = 6.9e-3      # coil drive current, A RMS
COIL = parse_config({}).coil()


def test_default_geometry_paper_value():
    b = solenoid_axial_field(COIL, I_RMS)
    assert b == pytest.approx(220e-9, rel=0.01)


def test_coil_center_limit():
    coil = replace(COIL, distance=0.0)
    b = solenoid_axial_field(coil, I_RMS)
    expected = coil.n_turns * CONST.mu_0 * I_RMS / (2.0 * coil.radius)
    assert b == pytest.approx(expected, rel=1e-12)


def test_far_field_dipole_asymptote():
    coil = replace(COIL, distance=10 * 15.68e-3)
    b = solenoid_axial_field(coil, I_RMS)
    dipole = (coil.n_turns * CONST.mu_0 * I_RMS * coil.radius ** 2
              / (2.0 * coil.distance ** 3))
    assert b == pytest.approx(dipole, rel=0.02)


def test_field_linearity_and_monotonicity():
    base = solenoid_axial_field(COIL, I_RMS)
    assert solenoid_axial_field(COIL, 2 * I_RMS) \
        == pytest.approx(2 * base, rel=1e-12)
    assert solenoid_axial_field(replace(COIL, n_turns=16), I_RMS) \
        == pytest.approx(2 * base, rel=1e-12)
    distances = np.linspace(0.0, 0.2, 30)
    fields = [solenoid_axial_field(replace(COIL, distance=z), I_RMS)
              for z in distances]
    assert all(a > b for a, b in zip(fields, fields[1:]))


def test_geometry_validation():
    with pytest.raises(ValueError):
        replace(COIL, n_turns=0)
    with pytest.raises(ValueError):
        replace(COIL, radius=-1.0)


def test_linear_calibration_exact_line():
    x = np.linspace(0.0, 1.0, 11)
    cal = linear_calibration(x, 2.0 * x + 1.0)
    assert cal.slope == pytest.approx(2.0, rel=1e-12)
    assert cal.intercept == pytest.approx(1.0, rel=1e-12)
    assert cal.r_squared == pytest.approx(1.0, abs=1e-12)


def test_linear_calibration_two_points_interpolates():
    cal = linear_calibration([1.0, 3.0], [10.0, 20.0])
    assert cal.slope == pytest.approx(5.0)
    assert cal.intercept == pytest.approx(5.0)


def test_linear_calibration_noisy_recovery():
    rng = np.random.default_rng(6)
    x = np.linspace(0.0, 10e-3, 50)
    sigma = 5e-9
    y = 3.2e-5 * x + rng.normal(0.0, sigma, x.size)
    cal = linear_calibration(x, y)
    # 3 sigma of the OLS slope estimate
    slope_sigma = sigma / math.sqrt(np.sum((x - x.mean()) ** 2))
    assert abs(cal.slope - 3.2e-5) < 3.0 * slope_sigma


def test_linear_calibration_affine_equivariance():
    x = np.array([0.0, 1.0, 2.0, 4.0])
    y = np.array([0.1, 0.9, 2.2, 3.9])
    a = linear_calibration(x, y)
    b = linear_calibration(x, y + 0.5)
    assert b.slope == pytest.approx(a.slope, rel=1e-12)
    assert b.intercept == pytest.approx(a.intercept + 0.5, rel=1e-9)


def test_linear_calibration_matches_linregress():
    from scipy.stats import linregress

    rng = np.random.default_rng(12)
    cases = [(np.linspace(0.0, 0.01, 12), None),
             (rng.uniform(-3, 5, 40), None), (np.array([1.0, 3.0]), None),
             (np.arange(5.0), np.full(5, 0.1))]
    for x, y in cases:
        if y is None:
            y = 2.1e-5 * x + 1e-9 * rng.standard_normal(x.size) - 3e-7
        cal, ref = linear_calibration(x, y), linregress(x, y)
        assert cal.slope == pytest.approx(ref.slope, rel=1e-12, abs=1e-300)
        assert cal.intercept == pytest.approx(ref.intercept, rel=1e-12)
        assert cal.r_squared == pytest.approx(ref.rvalue ** 2, rel=1e-12,
                                              nan_ok=True)


def test_linear_calibration_errors():
    with pytest.raises(TooFewPoints):
        linear_calibration([1.0], [2.0])
    with pytest.raises(DegenerateAbscissa):
        linear_calibration([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_slope_method_paper_value():
    b = field_from_slope(0.646e-3, 2994.0)
    assert b == pytest.approx(216e-9, rel=0.01)
    assert field_from_slope(0.0, 2994.0) == 0.0
    with pytest.raises(ZeroSlope):
        field_from_slope(0.646e-3, 0.0)


def test_cross_method_spread_within_eleven_percent():
    reference = 242e-9                               # commercial magnetometer
    solenoid = solenoid_axial_field(COIL, I_RMS)
    femm = 233e-9                                    # finite-element value
    slope_method = field_from_slope(0.646e-3, 2994.0)
    for value in (solenoid, femm, slope_method):
        assert abs(value - reference) / reference < 0.11


def test_calibration_csv_round_trip(tmp_path):
    currents = np.array([1e-3, 2e-3, 5e-3])
    fields = np.array([32e-9, 64e-9, 160e-9])
    path = tmp_path / "cal.csv"
    path.write_text(render_columns(path, ("current_a", "field_t"),
                                   np.column_stack([currents, fields])))
    i_back, b_back = read_calibration_csv(path)
    assert np.allclose(i_back, currents, rtol=0)
    assert np.allclose(b_back, fields, rtol=0)


@pytest.mark.parametrize("rows, words", [
    ([], "got 0"),
    ([[1e-3, 32e-9]], "got 1"),
    ([[2e-3, 32e-9], [2e-3, 64e-9], [2e-3, 96e-9]], "all identical"),
])
def test_calibration_csv_that_cannot_be_fitted(tmp_path, rows, words):
    """A file linear_calibration cannot fit is refused as the file it is;
    linear_calibration keeps its own errors for arrays."""
    path = tmp_path / "cal.csv"
    path.write_text(render_columns(path, ("current_a", "field_t"),
                                   np.reshape(rows, (-1, 2))))
    with pytest.raises(ParseError, match=words) as err:
        read_calibration_csv(path)
    assert str(path) in str(err.value)
