"""The parameter types: every construction check, and what each type costs.

Each __post_init__ condition is written so that NaN fails it: a comparison
with NaN is False, so a check spelled `x <= 0` or `np.diff(v) <= 0` would let
NaN through.  Infinity is not checked.
"""

import ast
import dataclasses
import importlib
import math
import pkgutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rubymag
from rubymag.calibration import CoilGeometry
from rubymag.cavity import CavityParams, DriveParams, EnsembleParams
from rubymag.config import parse_config
from rubymag.fitting import ComplexGrid2D, GridSpec
from rubymag.iqnoise import DBC_PER_HZ, V2_PER_HZ, NoiseSpectrum
from rubymag.spins import FieldVector, SpinSystem
from rubymag.thermal import MaterialParams

NAN = math.nan
AXIS = np.array([1.0, 2.0, 3.0])
SPEC = GridSpec(omega_s_values=AXIS, omega_d_values=AXIS[:2],
                drive_power=1e-3)
# the six parameter bundles at the default config
DEFAULTS = parse_config({})
CAVITY, ENSEMBLE, DRIVE = (DEFAULTS.cavity(), DEFAULTS.ensemble(),
                           DEFAULTS.drive())
SPIN, MATERIAL, COIL = (DEFAULTS.spin_system(), DEFAULTS.material(),
                        DEFAULTS.coil())


def _grid_spec(ws=AXIS, wd=AXIS):
    return GridSpec(omega_s_values=ws, omega_d_values=wd, drive_power=1e-3)


def _spectrum(offsets=AXIS, density=AXIS, unit=V2_PER_HZ):
    return NoiseSpectrum(offsets=offsets, density=density, unit=unit)


_INVALID = [
    # CavityParams: frequency and rates > 0
    ("cavity omega_c = 0", lambda: replace(CAVITY, omega_c=0.0), "positive"),
    ("cavity kappa_c0 < 0", lambda: replace(CAVITY, kappa_c0=-1.0),
     "positive"),
    ("cavity omega_c NaN", lambda: replace(CAVITY, omega_c=NAN), "positive"),
    ("cavity kappa_c0 NaN", lambda: replace(CAVITY, kappa_c0=NAN), "positive"),
    ("cavity kappa_c1 NaN", lambda: replace(CAVITY, kappa_c1=NAN), "positive"),
    # EnsembleParams: every field >= 0
    ("ensemble g_s < 0", lambda: replace(ENSEMBLE, g_s=-1.0), "non-negative"),
    ("ensemble kappa_th < 0", lambda: replace(ENSEMBLE, kappa_th=-1.0),
     "non-negative"),
    *[(f"ensemble {name} NaN",
       lambda name=name: replace(ENSEMBLE, **{name: NAN}), "non-negative")
      for name in ("g_s", "N", "kappa_s", "kappa_th", "omega_s")],
    # DriveParams: power >= 0
    ("drive power < 0", lambda: replace(DRIVE, power=-1e-3), "power"),
    ("drive power NaN", lambda: replace(DRIVE, power=NAN), "power"),
    # SpinSystem: g-factors > 0
    ("spin g_par = 0", lambda: replace(SPIN, g_par=0.0), "g-factors"),
    ("spin g_perp < 0", lambda: replace(SPIN, g_perp=-2.0), "g-factors"),
    ("spin g_par NaN", lambda: replace(SPIN, g_par=NAN), "g-factors"),
    ("spin g_perp NaN", lambda: replace(SPIN, g_perp=NAN), "g-factors"),
    # FieldVector: magnitude >= 0, theta in [0, pi], phi in [0, 2 pi)
    ("field magnitude < 0", lambda: FieldVector(-1e-3), "magnitude"),
    ("field magnitude NaN", lambda: FieldVector(NAN), "magnitude"),
    ("field magnitudes with NaN",
     lambda: FieldVector(np.array([1e-3, NAN])), "magnitude"),
    ("field theta > pi", lambda: FieldVector(1e-3, theta=4.0), "theta"),
    ("field phi = 2 pi", lambda: FieldVector(1e-3, phi=2.0 * math.pi), "phi"),
    ("field phi < 0", lambda: FieldVector(1e-3, phi=-0.1), "phi"),
    # MaterialParams: volumes and molar masses > 0, alpha_Cr in [0, 1],
    # N_cell a positive integer
    ("material V_cav = 0", lambda: replace(MATERIAL, V_cav=0.0), "volumes"),
    *[(f"material {name} NaN",
       lambda name=name: replace(MATERIAL, **{name: NAN}), "volumes")
      for name in ("V_cav", "V_cell", "m_Al2O3", "m_Cr2O3")],
    ("material alpha_Cr > 1", lambda: replace(MATERIAL, alpha_Cr=1.5),
     "alpha_Cr"),
    ("material N_cell = 0", lambda: replace(MATERIAL, N_cell=0), "N_cell"),
    ("material N_cell fractional", lambda: replace(MATERIAL, N_cell=2.5),
     "N_cell"),
    # CoilGeometry: n_turns >= 1, radius > 0
    ("coil n_turns = 0", lambda: replace(COIL, n_turns=0), "n_turns"),
    ("coil radius = 0", lambda: replace(COIL, radius=0.0), "n_turns"),
    ("coil n_turns NaN", lambda: replace(COIL, n_turns=NAN), "n_turns"),
    ("coil radius NaN", lambda: replace(COIL, radius=NAN), "n_turns"),
    # GridSpec: each axis strictly increasing, length >= 2
    ("grid omega_s too short", lambda: _grid_spec(ws=AXIS[:1]),
     "omega_s_values"),
    ("grid omega_d decreasing", lambda: _grid_spec(wd=AXIS[::-1]),
     "omega_d_values"),
    ("grid omega_s with NaN", lambda: _grid_spec(ws=np.array([1.0, NAN])),
     "omega_s_values"),
    ("grid omega_d with NaN",
     lambda: _grid_spec(wd=np.array([1.0, NAN, 3.0])), "omega_d_values"),
    # ComplexGrid2D: values shaped like the spec's axes
    ("grid values transposed",
     lambda: ComplexGrid2D(spec=SPEC, values=np.zeros((2, 3))), "shape"),
    # NoiseSpectrum: equal lengths, offsets positive and strictly
    # increasing, a known unit, a V2_per_Hz density >= 0
    ("spectrum lengths differ", lambda: _spectrum(density=AXIS[:2]),
     "equal length"),
    ("spectrum offset = 0", lambda: _spectrum(offsets=AXIS - 1.0),
     "offsets"),
    ("spectrum offsets decreasing", lambda: _spectrum(offsets=AXIS[::-1]),
     "offsets"),
    ("spectrum offset NaN",
     lambda: _spectrum(offsets=np.array([1.0, NAN, 3.0])), "offsets"),
    ("spectrum unit unknown", lambda: _spectrum(unit="dBm"), "unit"),
    ("spectrum density < 0", lambda: _spectrum(density=-AXIS), "density"),
    ("spectrum density NaN",
     lambda: _spectrum(density=np.array([1.0, NAN, 3.0])), "density"),
]


@pytest.mark.parametrize("make, message",
                         [pytest.param(make, message, id=case)
                          for case, make, message in _INVALID])
def test_construction_checks_reject_invalid_and_nan(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_construction_checks_accept_the_edges():
    """Zero where >= 0 is asked for, and dB densities of any sign, pass."""
    replace(ENSEMBLE, g_s=0.0, N=0.0, kappa_s=0.0, kappa_th=0.0, omega_s=0.0)
    replace(DRIVE, power=0.0)
    FieldVector(np.zeros(3), theta=math.pi, phi=0.0)
    replace(MATERIAL, alpha_Cr=0.0)
    _spectrum(density=-AXIS, unit=DBC_PER_HZ)
    _spectrum(offsets=np.array([]), density=np.array([]))


def test_parameter_bundles_carry_no_defaults():
    """config._SCHEMA is the one place the paper's values are written: a
    field default here would be a second copy, free to drift from it."""
    for bundle in (CavityParams, EnsembleParams, DriveParams, SpinSystem,
                   MaterialParams, CoilGeometry):
        for f in dataclasses.fields(bundle):
            assert f.default is dataclasses.MISSING, (bundle, f.name)
            assert f.default_factory is dataclasses.MISSING, (bundle, f.name)


def test_dataclasses_are_plain_and_documented():
    """Every rubymag dataclass is plain and has its own docstring, so that
    creating it at import stays cheap.  frozen=True adds a guarded
    __setattr__ and __delattr__, and a class without a docstring has one
    built from inspect.signature at import.  The docstring is read from the
    source, since dataclass fills __doc__ itself."""
    found = []
    for info in pkgutil.iter_modules(rubymag.__path__):
        module = importlib.import_module(f"rubymag.{info.name}")
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        documented = {node.name for node in ast.walk(tree)
                      if isinstance(node, ast.ClassDef)
                      and ast.get_docstring(node)}
        for name, obj in vars(module).items():
            if (dataclasses.is_dataclass(obj) and isinstance(obj, type)
                    and obj.__module__ == module.__name__):
                found.append(name)
                assert not obj.__dataclass_params__.frozen, name
                assert name in documented, name
    assert found
