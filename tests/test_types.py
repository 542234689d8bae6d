"""The checks on the numbers the formulas read, which classes the package
defines and what each dataclass costs: the spin parameters and field of spins.build_hamiltonian (its
g-factor check shared with magnetometry.spin_frequency_vs_field), the
material of thermal.total_interrogated_spins and the coil of
calibration.solenoid_axial_field; the checks of cavity.gamma_prime's params
record, which each of its three entries (gamma_prime, gamma_prime_jacobian,
bias_sweep_trace) runs; the checks a crossing grid meets as plain arrays,
cli._axis on every axis the commands draw and fit_crossing on the shape of
the values; and the checks a noise spectrum meets as the triple (offsets,
density, unit), which iqnoise.two_sided_amplitude runs (read_spectrum_csv
runs the same checks as a ParseError).  Every class but an exception is
named, with the reason it is kept, in _TYPES_KEPT.

Each check is written so that NaN fails it: a comparison with NaN is
False, so a check spelled `x <= 0` or `np.diff(v) <= 0` would let NaN
through.  The two integer counts, total_interrogated_spins's N_cell and
solenoid_axial_field's n_turns, also refuse +-inf and fractional values;
infinity is not checked in float fields.
"""

import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import rubymag
from rubymag.calibration import solenoid_axial_field
from rubymag.cavity import gamma_prime, gamma_prime_jacobian
from rubymag.cli import _axis
from rubymag.config import parse_config
from rubymag.fitting import fit_crossing
from rubymag.iqnoise import DBC_PER_HZ, V2_PER_HZ, two_sided_amplitude
from rubymag.magnetometry import bias_sweep_trace, spin_frequency_vs_field
from rubymag.spins import build_hamiltonian, energy_level_sweep
from rubymag.thermal import boltzmann_populations, total_interrogated_spins

NAN = math.nan
AXIS = np.array([1.0, 2.0, 3.0])
# the arguments of the spin, material and coil formulas and the params
# record at the default config
DEFAULTS = parse_config({})
_S, _M, _C = DEFAULTS["spin"], DEFAULTS["material"], DEFAULTS["calibration"]
SPIN = dict(D=_S["d_ghz"], g_par=_S["g_par"], g_perp=_S["g_perp"])
MATERIAL = dict(V_cav=_M["v_cav_mm3"], V_cell=_M["v_cell_nm3"],
                alpha_Cr=_M["alpha_cr"], m_Al2O3=_M["m_al2o3_g_per_mol"],
                m_Cr2O3=_M["m_cr2o3_g_per_mol"], N_cell=_M["n_cell"])
COIL = dict(n_turns=_C["n_turns"], radius=_C["coil_radius_mm"],
            distance=_C["coil_distance_mm"])
MODEL = DEFAULTS.model()
OMEGA_S = DEFAULTS["ensemble"]["omega_s_ghz"]
OMEGA_D = DEFAULTS["drive"]["omega_d_ghz"]
POWER = DEFAULTS["drive"]["power_dbm"]
# the entries that check the record, each called as (omega_s, record, power)
# and keyed by the suffix of its case ids: gamma_prime's cases keep the ids
# of the bundle checks they replaced
_ENTRIES = {
    "": lambda ws, params, power: gamma_prime(ws, OMEGA_D, OMEGA_D, power,
                                              params),
    " (jacobian)": lambda ws, params, power: gamma_prime_jacobian(
        ws, OMEGA_D, OMEGA_D, power, params),
    " (bias sweep)": lambda ws, params, power: bias_sweep_trace(
        ws, params, OMEGA_D, power, 21.0),
}


def _entry(suffix, omega_s=OMEGA_S, power=POWER, **changes):
    """A call of one entry on the default record with changes."""
    return lambda: _ENTRIES[suffix](np.array([omega_s]),
                                    {**MODEL, **changes}, power)


# the entries that check the g-factors, each called with the spin
# parameters and keyed by the suffix of its case ids
_SPIN_ENTRIES = {
    "": lambda spin: build_hamiltonian(**spin, b=1e-3, theta=0.0),
    " (axial frequency)": lambda spin: spin_frequency_vs_field(
        spin["D"], spin["g_par"], AXIS),
}


def _spin(suffix, **changes):
    return lambda: _SPIN_ENTRIES[suffix]({**SPIN, **changes})


def _field(b, theta=0.0):
    return lambda: build_hamiltonian(**SPIN, b=b, theta=theta)


def _material(**changes):
    return lambda: total_interrogated_spins(**{**MATERIAL, **changes})


def _coil(**changes):
    return lambda: solenoid_axial_field(**{**COIL, **changes}, current=1e-3)


def _grid_axis(keys, centre=1.0, span=1.0, n=3):
    return lambda: _axis(keys, centre, span, n)


def _spectrum(offsets=AXIS, density=AXIS, unit=V2_PER_HZ):
    """The amplitude conversion of a spectrum triple on its own offsets."""
    return two_sided_amplitude((offsets, density, unit), offsets)


# (case, changes of the record, power or omega_s; what the error names), the
# conditions of the cavity, ensemble and drive bundles the record replaced
_RECORD = [
    # the cavity block: frequency and rates > 0
    ("cavity omega_c = 0", {"omega_c": 0.0}, "omega_c"),
    ("cavity omega_c < 0", {"omega_c": -1.0}, "omega_c"),
    ("cavity kappa_c0 < 0", {"kappa_c0": -1.0}, "kappa_c0"),
    ("cavity kappa_c1 < 0", {"kappa_c1": -1.0}, "kappa_c1"),
    *[(f"cavity {name} NaN", {name: NAN}, name)
      for name in ("omega_c", "kappa_c0", "kappa_c1")],
    # the ensemble block: g_s, g_eff = g_s sqrt(N), rates and omega_s >= 0
    ("ensemble g_s < 0", {"g_s": -1.0}, "g_s"),
    ("ensemble g_eff < 0", {"g_eff": -1.0}, "g_eff"),
    ("ensemble kappa_th < 0", {"kappa_th": -1.0}, "kappa_th"),
    ("ensemble omega_s < 0", {"omega_s": -1.0}, "omega_s"),
    ("ensemble N NaN", {"g_eff": NAN}, "g_eff"),
    *[(f"ensemble {name} NaN", {name: NAN}, name)
      for name in ("g_s", "kappa_s", "kappa_th", "omega_s")],
    # the drive: power >= 0
    ("drive power < 0", {"power": -1e-3}, "power"),
    ("drive power NaN", {"power": NAN}, "power"),
]

_INVALID = [
    *[(case + suffix, _entry(suffix, **changes), message)
      for case, changes, message in _RECORD for suffix in _ENTRIES],
    # build_hamiltonian and spin_frequency_vs_field: g-factors > 0, each
    # entry on the g-factors it reads
    *[(case + suffix, _spin(suffix, g_par=g_par), "g-factors")
      for case, g_par in (("spin g_par = 0", 0.0), ("spin g_par NaN", NAN))
      for suffix in _SPIN_ENTRIES],
    ("spin g_perp < 0", _spin("", g_perp=-2.0), "g-factors"),
    ("spin g_perp NaN", _spin("", g_perp=NAN), "g-factors"),
    # build_hamiltonian: field magnitude >= 0, theta in [0, pi]
    ("field magnitude < 0", _field(-1e-3), "magnitude"),
    ("field magnitude NaN", _field(NAN), "magnitude"),
    ("field magnitudes with NaN", _field(np.array([1e-3, NAN])), "magnitude"),
    ("field theta > pi", _field(1e-3, theta=4.0), "theta"),
    ("field theta NaN", _field(1e-3, theta=NAN), "theta"),
    # total_interrogated_spins: volumes and molar masses > 0, alpha_Cr in
    # [0, 1], N_cell a positive integer
    ("material V_cav = 0", _material(V_cav=0.0), "volumes"),
    *[(f"material {name} NaN", _material(**{name: NAN}), "volumes")
      for name in ("V_cav", "V_cell", "m_Al2O3", "m_Cr2O3")],
    ("material alpha_Cr > 1", _material(alpha_Cr=1.5), "alpha_Cr"),
    ("material N_cell = 0", _material(N_cell=0), "N_cell"),
    ("material N_cell fractional", _material(N_cell=2.5), "N_cell"),
    ("material N_cell NaN", _material(N_cell=NAN), "N_cell"),
    ("material N_cell inf", _material(N_cell=math.inf), "N_cell"),
    # solenoid_axial_field: n_turns a positive integer, radius > 0
    ("coil n_turns = 0", _coil(n_turns=0), "n_turns"),
    ("coil radius = 0", _coil(radius=0.0), "n_turns"),
    ("coil n_turns NaN", _coil(n_turns=NAN), "n_turns"),
    ("coil n_turns fractional", _coil(n_turns=2.5), "n_turns"),
    ("coil n_turns inf", _coil(n_turns=math.inf), "n_turns"),
    ("coil radius NaN", _coil(radius=NAN), "n_turns"),
    # the crossing grid: each axis drawn by cli._axis, two or more strictly
    # increasing points (a ConfigError naming the keys), and fit_crossing's
    # values shaped like the axes
    ("grid omega_s too short", _grid_axis("grid.n_omega_s", n=1),
     "grid.n_omega_s"),
    ("grid omega_d decreasing", _grid_axis("grid.omega_d_span_mhz", span=-1.0),
     "grid.omega_d_span_mhz"),
    ("grid omega_s with NaN", _grid_axis("ensemble.omega_s_ghz", centre=NAN),
     "ensemble.omega_s_ghz"),
    ("grid omega_d with NaN", _grid_axis("grid.omega_d_span_mhz", span=NAN),
     "grid.omega_d_span_mhz"),
    ("grid values transposed",
     lambda: fit_crossing(AXIS, AXIS[:2], np.zeros((2, 3)), 1e-3, MODEL),
     "shape"),
    # a spectrum triple: equal lengths, offsets positive and strictly
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
    """Zero where >= 0 is asked for, and dB densities of any sign, pass;
    kappa_s > 0 is asked of every record (ZeroSpinLinewidth)."""
    for suffix in _ENTRIES:   # kappa_th = 0 undriven
        assert np.all(np.isfinite(_entry(suffix, omega_s=0.0, power=0.0,
                                         g_s=0.0, g_eff=0.0,
                                         kappa_th=0.0)()))
    _field(np.zeros(3), theta=math.pi)()
    assert _material(alpha_Cr=0.0)() == 0.0
    _spectrum(density=-AXIS, unit=DBC_PER_HZ)
    _spectrum(offsets=np.array([]), density=np.array([]))


def test_parameter_bundles_carry_no_defaults():
    """config._SCHEMA is the one place the paper's values are written: a
    parameter default on a formula the commands feed from the config would
    be a second copy, free to drift from it."""
    for formula in (build_hamiltonian, energy_level_sweep,
                    boltzmann_populations, spin_frequency_vs_field,
                    total_interrogated_spins, solenoid_axial_field):
        for param in inspect.signature(formula).parameters.values():
            assert param.default is param.empty, (formula, param.name)


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


# every class the package defines, but its exceptions, with the reason it
# is kept: a value is its arrays unless a reason here says otherwise
_TYPES_KEPT = {
    "config.RunConfig": "bench/tracer.py wraps RunConfig.ensemble, so a "
                        "config is the dict of its blocks with that method",
    "fitting.FitResult": "bench/tracer.py reads its iterations and "
                         "objective_value",
}


def test_every_class_is_kept_with_a_reason():
    """Every class defined under src/rubymag, nested ones included, is an
    exception or is named in _TYPES_KEPT, so that a new type has to argue
    for itself there; a stale entry fails too."""
    found = set()
    for info in pkgutil.iter_modules(rubymag.__path__):
        module = importlib.import_module(f"rubymag.{info.name}")
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                obj = getattr(module, node.name, None)
                if not (isinstance(obj, type)
                        and issubclass(obj, BaseException)):
                    found.add(f"{info.name}.{node.name}")
    assert found == set(_TYPES_KEPT)
