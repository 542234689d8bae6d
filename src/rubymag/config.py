"""Strict JSON run configuration with explicit unit suffixes.

Every physical key carries its unit in the name (d_ghz, power_dbm,
bias_b_gauss, ...) and is converted once, at parse time, to the internal
convention: angular frequencies and rates in rad/s, fields in tesla, powers
in watts.  Unknown keys are hard errors; a known quantity spelled with the
wrong unit suffix raises UnitMismatch naming the expected key, and so does a
value of the wrong JSON type.  Omitted keys and blocks fall back to the
defaults in _SCHEMA, the one place the paper's values are written: the
formulas that read the blocks take their numbers as arguments without
defaults, and model() builds cavity.gamma_prime's params record straight
from the blocks.

_SCHEMA also holds every key's range, so a value out of range fails the
parse as ConfigError whichever command runs.  Each formula checks the
ranges of the numbers it reads again where it is used, and a parsed config
always passes them; a derived spin count too large for a float is a
runtime OverflowError.  Two checks span several keys and stay at run time:
the crossing grid's shape and every sweep axis (a ConfigError from the
cli), and every drive frequency Gamma' is evaluated at, shifted by
nonideal.omega_d_off (cavity.gamma_prime, a runtime error).
"""

from __future__ import annotations

import json
import math
import sys

from .cavity import MODEL_NAMES, dbm_to_watts, single_spin_coupling
from .errors import ConfigError, ParseError, UnitMismatch, UnknownKey
from .thermal import (boltzmann_populations, polarization,
                      total_interrogated_spins)


def _integer(value) -> int:
    """int(value), refusing a fractional number instead of truncating it."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


# key -> (converter to internal units, default in key units[, limits]).  A key
# takes a number, bools excluded, unless its converter is _integer (an
# integral number) or str (a string); a key whose default is None also takes
# null.  limits = (lower, strict, upper or None) in internal units, checked
# after conversion; an upper limit is inclusive.
_POSITIVE = (0.0, True, None)
_NON_NEGATIVE = (0.0, False, None)
_COUNT = (1, False, sys.float_info.max)   # a count the model takes as a float
_SCHEMA = {
    "spin": {
        "d_ghz": (lambda v: math.tau * v * 1e9, -5.745),
        "g_par": (float, 2.0, _POSITIVE),
        "g_perp": (float, 2.0, _POSITIVE),
    },
    "material": {
        "v_cav_mm3": (lambda v: v * 1e-9, 52.2, _POSITIVE),
        "v_cell_nm3": (lambda v: v * 1e-27, 0.2548, _POSITIVE),
        "alpha_cr": (float, 0.0005, (0.0, False, 1.0)),
        "m_al2o3_g_per_mol": (float, 101.96, _POSITIVE),
        "m_cr2o3_g_per_mol": (float, 151.99, _POSITIVE),
        "n_cell": (_integer, 12, _COUNT),
        # modal filling factor: accepted but read by nothing (bench/inputs.BASE
        # spells it)
        "zeta": (float, 0.69),
        "temperature_k": (float, 293.0, _POSITIVE),
    },
    "cavity": {
        "omega_c_ghz": (lambda v: math.tau * v * 1e9, 11.4, _POSITIVE),
        "kappa_c0_khz": (lambda v: math.tau * v * 1e3, 330.0, _POSITIVE),
        "kappa_c1_khz": (lambda v: math.tau * v * 1e3, 330.0, _POSITIVE),
    },
    "ensemble": {
        # null -> derive from cavity geometry / thermal polarization
        "g_s_hz": (lambda v: math.tau * v, None, _NON_NEGATIVE),
        "n_spins": (float, None, _NON_NEGATIVE),
        "kappa_s_mhz": (lambda v: math.tau * v * 1e6, 42.0, _POSITIVE),
        "kappa_th_khz": (lambda v: math.tau * v * 1e3, 120.0, _POSITIVE),
        "omega_s_ghz": (lambda v: math.tau * v * 1e9, 11.4, _NON_NEGATIVE),
    },
    "drive": {
        "omega_d_ghz": (lambda v: math.tau * v * 1e9, 11.4, _POSITIVE),
        "power_dbm": (dbm_to_watts, 11.0, _POSITIVE),
    },
    "nonideal": {
        "o_r": (float, 0.0),
        "o_i": (float, 0.0),
        "amplitude_a": (float, 0.0),
        "slope_b_per_hz": (lambda v: v / math.tau, 0.0),
        "psi_rad": (float, 0.0),
        "tau_s": (float, 0.0),
        "omega_s_off_mhz": (lambda v: math.tau * v * 1e6, 0.0),
        "omega_d_off_mhz": (lambda v: math.tau * v * 1e6, 0.0),
    },
    "grid": {
        "omega_s_span_mhz": (lambda v: math.tau * v * 1e6, 100.0),
        "omega_d_span_mhz": (lambda v: math.tau * v * 1e6, 10.0),
        "n_omega_s": (_integer, 50),
        "n_omega_d": (_integer, 50),
        "noise_sigma": (float, 0.0, _NON_NEGATIVE),
    },
    "sweep": {
        "bias_b_gauss": (lambda v: v * 1e-4, 31.0),
        "b_span_gauss": (lambda v: v * 1e-4, 4.0, _POSITIVE),
        "n_points": (_integer, 201, (5, False, None)),
        "theta_deg": (float, 0.0, (0.0, False, 180.0)),
        "b_max_gauss": (lambda v: v * 1e-4, 2000.0, _POSITIVE),
        "chain_gain_db": (float, 21.0),
        "test_amplitude_nt": (lambda v: v * 1e-9, 242.0, _POSITIVE),
        "noise_floor_nv_per_rthz": (lambda v: v * 1e-9, 26.0, _NON_NEGATIVE),
    },
    "noise": {
        "phase_noise_csv": (str, None),
        "amplitude_noise_csv": (str, None),
        "p0_v2_per_hz": (float, 0.0, _NON_NEGATIVE),
        "e_th_nv_per_rthz": (lambda v: v * 1e-9, 13.0, _NON_NEGATIVE),
        "phi_measured_dbc_per_hz": (float, -129.5),
        "ell_db": (float, -6.0),
    },
    "calibration": {
        "n_turns": (_integer, 8, _COUNT),
        "coil_radius_mm": (lambda v: v * 1e-3, 15.68, _POSITIVE),
        "coil_distance_mm": (lambda v: v * 1e-3, 30.0),
        "current_ma": (lambda v: v * 1e-3, 6.9),
    },
    "run": {
        "output_dir": (str, "."),
        "master_seed": (_integer, 0, (0, False, None)),
    },
}

_UNIT_SUFFIXES = ("_ghz", "_mhz", "_khz", "_hz", "_gauss", "_tesla", "_nt",
                  "_dbm", "_db", "_rad", "_s", "_mm", "_ma", "_mm3", "_nm3",
                  "_g_per_mol", "_nv_per_rthz", "_v2_per_hz", "_dbc_per_hz",
                  "_per_hz", "_k", "_deg")


def _strip_unit(key: str) -> str:
    for suffix in sorted(_UNIT_SUFFIXES, key=len, reverse=True):
        if key.endswith(suffix):
            return key[: -len(suffix)]
    return key


class RunConfig(dict):
    """Fully-validated configuration in internal units (rad/s, T, W): the
    dict of its converted blocks, keyed by block name."""

    def ensemble(self) -> tuple[float, float]:
        """(g_s, N): the config's single-spin coupling and polarized spin
        count, each derived where the config leaves it null, g_s from the
        modal volume and N from the Boltzmann populations."""
        e = self["ensemble"]
        g_s = e["g_s_hz"]
        if g_s is None:
            g_s = single_spin_coupling(self["material"]["v_cav_mm3"],
                                       self["cavity"]["omega_c_ghz"])
        n = e["n_spins"]
        if n is None:
            m = self["material"]
            n = polarization(boltzmann_populations(
                self["spin"]["d_ghz"], m["temperature_k"])) \
                * total_interrogated_spins(
                    m["v_cav_mm3"], m["v_cell_nm3"], m["alpha_cr"],
                    m["m_al2o3_g_per_mol"], m["m_cr2o3_g_per_mol"],
                    m["n_cell"])
        return g_s, n

    def model(self) -> dict:
        """cavity.gamma_prime's params record: the cavity block's rates and
        frequency, the ensemble block's rates, g_eff = g_s sqrt(N) and g_s
        from ensemble(), and the nonideal block."""
        c, e, n = self["cavity"], self["ensemble"], self["nonideal"]
        g_s, n_spins = self.ensemble()
        return dict(zip(MODEL_NAMES, (
            c["kappa_c0_khz"], c["kappa_c1_khz"], e["kappa_s_mhz"],
            e["kappa_th_khz"], g_s * math.sqrt(n_spins),
            n["o_r"], n["o_i"], n["amplitude_a"], n["slope_b_per_hz"],
            n["psi_rad"], n["tau_s"], n["omega_s_off_mhz"],
            n["omega_d_off_mhz"], c["omega_c_ghz"], g_s)))


# converter -> (the type a key takes, spelled for messages; its JSON types)
_TYPES = {_integer: ("an integer", (int, float)), str: ("a string", str)}


def _convert_block(block_name: str, raw: dict) -> dict:
    schema = _SCHEMA[block_name]
    out = {}
    for key, value in raw.items():
        if key not in schema:
            stems = {_strip_unit(known): known for known in schema}
            stem = _strip_unit(key)
            if stem in stems:
                raise UnitMismatch(
                    f"{block_name}.{key}: expected key {stems[stem]!r}")
            raise UnknownKey(f"unknown key {block_name}.{key}")
        converter, default, *limits = schema[key]
        if value is None and default is None:
            continue   # filled with None below
        expected, types = _TYPES.get(converter, ("a number", (int, float)))
        if isinstance(value, bool) or not isinstance(value, types):
            raise UnitMismatch(f"{block_name}.{key}: expected {expected}, "
                               f"got {value!r}")
        try:
            out[key] = converter(value)
        except ValueError as exc:
            raise UnitMismatch(f"{block_name}.{key}: expected {expected}, "
                               f"got {value!r}") from exc
        except OverflowError as exc:
            raise UnitMismatch(f"{block_name}.{key}: {exc}") from exc
        if isinstance(out[key], float) and not math.isfinite(out[key]):
            raise UnitMismatch(f"{block_name}.{key}: {value!r} is not a "
                               f"finite number in internal units")
        if limits:
            lower, strict, upper = limits[0]
            got = repr(value)
            if out[key] != value:   # the limits hold in internal units
                got += f", {out[key]!r} in internal units"
            if out[key] < lower or (strict and out[key] == lower):
                raise ConfigError(f"{block_name}.{key}: must be "
                                  f"{'>' if strict else '>='} {lower}, "
                                  f"got {got}")
            if upper is not None and out[key] > upper:
                raise ConfigError(f"{block_name}.{key}: must be <= {upper}, "
                                  f"got {got}")
    for key, (converter, default, *_) in schema.items():
        if key not in out:
            out[key] = converter(default) if default is not None else None
    return out


def parse_config(raw: dict, texts: dict | None = None) -> RunConfig:
    """Validate a decoded JSON configuration object, with the command-line
    flag texts {key: text} merged over its blocks: a str key takes its text
    verbatim, any other key the JSON value the text spells, or the text
    itself if it spells none."""
    for block_name, block in raw.items():
        if block_name not in _SCHEMA:
            raise UnknownKey(f"unknown block {block_name!r}")
        if not isinstance(block, dict):
            raise ParseError(f"block {block_name!r} must be a JSON object")
    blocks = {name: dict(raw.get(name, {})) for name in _SCHEMA}
    for key, text in (texts or {}).items():
        if key not in FLAT_KEYS:
            raise UnknownKey(f"unknown key {key!r}")
        block, value = FLAT_KEYS[key], text
        if _SCHEMA[block][key][0] is not str:
            try:
                value = json.loads(text)
            except (ValueError, RecursionError):
                pass
        blocks[block][key] = value
    return RunConfig({name: _convert_block(name, block)
                      for name, block in blocks.items()})


# leaf keys are unique across blocks so CLI flags can map one-for-one
FLAT_KEYS: dict = {}
for _block, _keys in _SCHEMA.items():
    for _key in _keys:
        if _key in FLAT_KEYS:
            raise AssertionError(f"duplicate config key {_key}")
        FLAT_KEYS[_key] = _block
