import importlib
import importlib.resources
import importlib.util
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rubymag
from rubymag import cli, iqnoise
from rubymag.cavity import (dbm_to_watts, interaction_term, photon_number,
                            reflection_coefficient, single_spin_coupling)
from rubymag.cli import _DISPATCH, _read_argv, main, split_seed
from rubymag.config import FLAT_KEYS, parse_config
from rubymag.errors import ConfigError, ParseError, UnitMismatch, UnknownKey
from rubymag.magnetometry import bias_sweep_trace

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# parse_config


def test_empty_object_gives_defaults():
    cfg = parse_config({})
    assert cfg["spin"]["d_ghz"] == pytest.approx(-TWO_PI * 5.745e9)
    assert cfg["ensemble"]["kappa_s_mhz"] == pytest.approx(TWO_PI * 42e6)
    assert cfg["ensemble"]["kappa_th_khz"] == pytest.approx(TWO_PI * 120e3)
    assert cfg["cavity"]["kappa_c0_khz"] == pytest.approx(TWO_PI * 330e3)
    assert cfg["drive"]["power_dbm"] == pytest.approx(10 ** (11.0 / 10) * 1e-3)
    assert cfg["sweep"]["bias_b_gauss"] == pytest.approx(31e-4)
    assert cfg["material"]["temperature_k"] == 293.0


def test_unit_conversion_contract():
    cfg = parse_config({"spin": {"d_ghz": -5.745}})
    assert cfg.spin_system().D == pytest.approx(-TWO_PI * 5.745e9)


def test_derived_ensemble_defaults():
    cfg = parse_config({})
    ens = cfg.ensemble()
    g_geo = single_spin_coupling(52.2e-9, TWO_PI * 11.4e9)
    assert ens.g_s == pytest.approx(g_geo, rel=1e-12)
    assert ens.N == pytest.approx(3.5e14, rel=0.15)


def test_explicit_ensemble_values_override_derivation():
    cfg = parse_config({"ensemble": {"g_s_hz": 0.2, "n_spins": 1e14}})
    ens = cfg.ensemble()
    assert ens.g_s == pytest.approx(TWO_PI * 0.2)
    assert ens.N == pytest.approx(1e14)


def test_misspelled_key_unknown():
    with pytest.raises(UnknownKey) as err:
        parse_config({"ensemble": {"kapa_s_mhz": 42}})
    assert "kapa_s_mhz" in str(err.value)


def test_wrong_unit_suffix_named():
    with pytest.raises(UnitMismatch) as err:
        parse_config({"ensemble": {"kappa_s_khz": 42000}})
    assert "kappa_s_mhz" in str(err.value)


def test_unknown_block_rejected():
    with pytest.raises(UnknownKey):
        parse_config({"resonator": {}})


def test_parse_error_positions_and_shapes():
    with pytest.raises(ParseError):
        parse_config({"spin": 5})


def test_values_overflowing_on_conversion_rejected():
    with pytest.raises(UnitMismatch):
        parse_config({"drive": {"power_dbm": 1e6}})
    with pytest.raises(UnitMismatch):
        parse_config({"ensemble": {"kappa_s_mhz": 1e305}})


def test_parse_serialize_parse_round_trip():
    """A config read from JSON, and the same values spelled as flag texts,
    give the same internal values."""
    raw = {"spin": {"d_ghz": -5.745}, "drive": {"power_dbm": 0.0},
           "grid": {"n_omega_s": 10, "noise_sigma": 0.01},
           "run": {"output_dir": "out"}}
    first = parse_config(json.loads(json.dumps(raw)))
    texts = {key: value if key == "output_dir" else json.dumps(value)
             for block in raw.values() for key, value in block.items()}
    second = parse_config({}, texts)
    assert first.values == second.values
    assert parse_config(raw, {}).values == first.values


def test_parse_config_merges_flag_texts():
    """Flag texts fill keys the file leaves out and win over keys it has."""
    raw = {"ensemble": {"kappa_s_mhz": 42.0, "kappa_th_khz": 50.0}}
    cfg = parse_config(raw, {"kappa_th_khz": "100", "master_seed": "7"})
    assert cfg["ensemble"]["kappa_s_mhz"] == pytest.approx(TWO_PI * 42e6)
    assert cfg["ensemble"]["kappa_th_khz"] == pytest.approx(TWO_PI * 100e3)
    assert cfg["run"]["master_seed"] == 7
    assert raw == {"ensemble": {"kappa_s_mhz": 42.0, "kappa_th_khz": 50.0}}
    with pytest.raises(UnknownKey):
        parse_config({}, {"kappa_s": "42"})


@pytest.mark.parametrize("block, key, value, expected", [
    ("ensemble", "kappa_s_mhz", True, "a number"),
    ("spin", "g_par", "2", "a number"),
    ("ensemble", "g_s_hz", [0.2], "a number"),
    ("run", "master_seed", False, "an integer"),
    ("material", "n_cell", True, "an integer"),
    ("material", "n_cell", "12", "an integer"),
    ("run", "output_dir", 5, "a string"),
    ("noise", "phase_noise_csv", 5.0, "a string"),
    ("noise", "amplitude_noise_csv", True, "a string"),
])
def test_wrong_value_type_named(block, key, value, expected):
    """A value of the wrong JSON type names its key, the value and the type
    the key takes; a bool is neither a number nor an integer."""
    with pytest.raises(UnitMismatch) as err:
        parse_config({block: {key: value}})
    assert f"{block}.{key}: expected {expected}, got {value!r}" \
        in str(err.value)


def test_flat_keys_unique_and_flag_names():
    """Each config key is one flag: its name with dashes, spelled exactly."""
    assert len(FLAT_KEYS) == len(set(FLAT_KEYS))
    assert FLAT_KEYS["kappa_s_mhz"] == "ensemble"
    assert _read_argv(["report", "--kappa-s-mhz", "1"]) == (
        "report", {"kappa_s_mhz": "1"})
    for flag in ("--kappa_s_mhz", "--kappa-s", "-kappa-s-mhz", "kappa-s-mhz",
                 "--KAPPA-S-MHZ"):
        with pytest.raises(UnknownKey):
            _read_argv(["report", flag, "1"])


# ---------------------------------------------------------------------------
# seed splitting


def test_split_seed_deterministic_and_label_sensitive():
    a = split_seed(0, "crossing-sim").generate_state(4)
    b = split_seed(0, "crossing-sim").generate_state(4)
    c = split_seed(0, "crossing-fit").generate_state(4)
    d = split_seed(1, "crossing-sim").generate_state(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ---------------------------------------------------------------------------
# CLI dispatch


def run_cli(*argv):
    return main(list(argv))


def test_eigen_writes_energy_levels(tmp_path):
    code = run_cli("eigen", "--output-dir", str(tmp_path),
                   "--theta-deg", "0", "--b-max-gauss", "2000",
                   "--n-points", "11")
    assert code == 0
    lines = (tmp_path / "energy_levels.csv").read_text().splitlines()
    assert lines[0] == "B_gauss,E1_Hz,E2_Hz,E3_Hz,E4_Hz"
    assert len(lines) == 12


def test_invalid_flag_value_exits_two(tmp_path, capsys):
    code = run_cli("eigen", "--output-dir", str(tmp_path),
                   "--kappa-s-mhz", "not-a-number")
    assert code == 2
    assert "ERROR" in capsys.readouterr().err


# flag -> name of the file the bad-input test writes the flag's text (or
# bytes) to
_FILE_FLAGS = {"--config": "cfg.json", "--input": "in.csv",
               "--phase-noise-csv": "noise.csv",
               "--amplitude-noise-csv": "noise.csv"}
# a 2 x 2 crossing grid, the smallest read_grid_csv accepts
_TINY_GRID = ("omega_s_hz,omega_d_hz,re,im\n"
              "1,1,1,0\n1,2,1,0\n2,1,1,0\n2,2,1,0\n")


@pytest.mark.parametrize("command, argv, error, words", [
    ("report", ["--config", "{bad"], "ParseError", ["line 1 column 2"]),
    ("report", ["--kappa-s-mhz", "not-a-number"], "UnitMismatch",
     ["ensemble.kappa_s_mhz", "'not-a-number'", "a number"]),
    ("crossing-sim", ["--n-omega-s", "many"], "UnitMismatch",
     ["grid.n_omega_s", "'many'", "an integer"]),
    ("report", ["--kappa-s-mhz", "-5"], "ConfigError", ["ensemble"]),
    ("crossing-sim", ["--n-omega-s", "1"], "ConfigError", ["grid"]),
    ("crossing-sim", ["--n-omega-s", "2.5"], "UnitMismatch",
     ["grid.n_omega_s", "2.5", "an integer"]),
    ("sensitivity", ["--n-points", "2.5"], "UnitMismatch",
     ["sweep.n_points", "2.5", "an integer"]),
    ("report", ["--config", '{"material": {"n_cell": 12.5}}'], "UnitMismatch",
     ["material.n_cell", "12.5", "an integer"]),
    ("calibrate", ["--input", "current_a,field_t\n0.1,abc\n"], "ParseError",
     ["'abc'"]),
    ("calibrate", ["--input", "current_a,field_t\n0.1,1e-7\n0.2,nan\n"],
     "ParseError", ["non-finite", "line 3"]),
    ("calibrate", ["--input", "current_a,b_t\n0.1,1e-7\n"], "ParseError",
     ["missing", "field_t"]),
    ("noise-predict", ["--phase-noise-csv",
                       "offset_hz,value,unit\n100,abc,dBc_per_Hz\n"],
     "ParseError", ["'abc'"]),
    ("noise-predict", ["--amplitude-noise-csv",
                       "offset_hz,value,unit\n100,-140,dBc_per_Hz\n"
                       "200,nan,dBc_per_Hz\n"],
     "ParseError", ["non-finite", "line 3"]),
    ("noise-predict", ["--phase-noise-csv",
                       "offset_hz,dbc,unit\n100,-100,dBc_per_Hz\n"],
     "ParseError", ["missing", "value"]),
    ("noise-predict", ["--phase-noise-csv",
                       "offset_hz,value,unit\n100,-100,dBc_per_Hz\n"
                       "200,1e-12,V2_per_Hz\n"],
     "ParseError", ["one unit tag", "V2_per_Hz", "dBc_per_Hz"]),
    ("optimize", ["--b-span-gauss", "0"], "ConfigError",
     ["sweep.b_span_gauss", "> 0"]),
    ("optimize", ["--b-span-gauss", "-4"], "ConfigError",
     ["sweep.b_span_gauss", "> 0", "-4"]),
    ("crossing-sim", ["--noise-sigma", "-0.1"], "ConfigError",
     ["grid.noise_sigma", ">= 0", "-0.1"]),
    ("sensitivity", ["--n-points", "3"], "ConfigError",
     ["sweep.n_points", ">= 5", "3"]),
    ("sensitivity", ["--test-amplitude-nt", "-5"], "ConfigError",
     ["sweep.test_amplitude_nt", "> 0", "-5"]),
    ("sensitivity", ["--test-amplitude-nt", "0"], "ConfigError",
     ["sweep.test_amplitude_nt", "> 0"]),
    ("eigen", ["--b-max-gauss", "-5"], "ConfigError",
     ["sweep.b_max_gauss", "> 0", "-5"]),
    ("eigen", ["--b-max-gauss", "0"], "ConfigError",
     ["sweep.b_max_gauss", "> 0"]),
    ("report", ["--config", "[1, 2]"], "ParseError",
     ["cfg.json", "must be an object"]),
    ("eigen", ["--theta-deg", "400"], "ConfigError",
     ["sweep.theta_deg", "<= 180", "400"]),
    ("eigen", ["--theta-deg", "-1"], "ConfigError",
     ["sweep.theta_deg", ">= 0", "-1"]),
    ("crossing-fit", ["--input", _TINY_GRID, "--n-spins", "0"],
     "InvalidBounds", ["guess", "g_eff", "> 0"]),
    ("crossing-fit", ["--input", _TINY_GRID, "--g-s-hz", "0"],
     "InvalidBounds", ["guess", "g_eff", "> 0"]),
    # a file that is not UTF-8 text, through each of the four file flags
    ("report", ["--config", b"\xff"], "ParseError", ["cfg.json", "utf-8"]),
    ("calibrate", ["--input", b"\xff"], "ParseError", ["in.csv", "utf-8"]),
    ("crossing-fit", ["--input", b"\xff"], "ParseError", ["in.csv", "utf-8"]),
    ("noise-predict", ["--phase-noise-csv", b"\xff"], "ParseError",
     ["noise.csv", "utf-8"]),
    ("noise-predict", ["--amplitude-noise-csv", b"\xff"], "ParseError",
     ["noise.csv", "utf-8"]),
    # a short and a ragged CSV row, and a negative white-noise floor
    ("calibrate", ["--input", "current_a,field_t\n0.1,1e-7\n0.2\n"],
     "ParseError", ["line 3 has 1 cells"]),
    ("noise-predict", ["--phase-noise-csv",
                       "offset_hz,value,unit\n100,-100,dBc_per_Hz,1\n"],
     "ParseError", ["line 2 has 4 cells"]),
    ("noise-predict", ["--p0-v2-per-hz", "-1"], "ConfigError",
     ["noise.p0_v2_per_hz", ">= 0", "-1"]),
    # a config block that is not a JSON object fails before any flag merges
    ("report", ["--config", '{"spin": 5}'], "ParseError",
     ["'spin'", "JSON object"]),
    ("report", ["--config", '{"spin": null}'], "ParseError",
     ["'spin'", "JSON object"]),
    ("report", ["--config", '{"spin": "ab"}'], "ParseError",
     ["'spin'", "JSON object"]),
    ("report", ["--config", '{"spin": [["d_ghz", -5.0]]}'], "ParseError",
     ["'spin'", "JSON object"]),
    # a bool is no number, and a text key takes only a string
    ("report", ["--master-seed", "true"], "UnitMismatch",
     ["run.master_seed", "True", "an integer"]),
    ("report", ["--config", '{"ensemble": {"kappa_s_mhz": true}}'],
     "UnitMismatch", ["ensemble.kappa_s_mhz", "True", "a number"]),
    ("noise-predict", ["--config", '{"noise": {"phase_noise_csv": 7}}'],
     "UnitMismatch", ["noise.phase_noise_csv", "7", "a string"]),
    # a line break inside the message stays on the one ERROR line
    ("report", ["--config", '{"spin": {"two\\nlines": 1}}'], "UnknownKey",
     ["spin.two lines"]),
    # JSON the decoder refuses beyond its syntax: too deep, too many digits
    ("report", ["--config", "[" * 3000], "ParseError",
     ["cfg.json", "recursion"]),
    ("report", ["--config", '{"run": {"master_seed": %s}}' % ("1" * 5000)],
     "ParseError", ["cfg.json", "4300 digits"]),
    ("report", ["--master-seed", "1" * 5000], "UnitMismatch",
     ["run.master_seed", "an integer"]),
    # a calibration file that parses but cannot be fitted
    ("calibrate", ["--input", "current_a,field_t\n0.1,1e-7\n"], "ParseError",
     ["in.csv", "at least two calibration rows", "got 1"]),
    ("calibrate", ["--input", "current_a,field_t\n0.1,1e-7\n0.1,2e-7\n"],
     "ParseError", ["in.csv", "currents are all identical"]),
    # a value out of its key's range, whether or not the command reads it
    ("sensitivity", ["--noise-floor-nv-per-rthz", "-5"], "ConfigError",
     ["sweep.noise_floor_nv_per_rthz", ">= 0", "-5"]),
    ("sensitivity", ["--e-th-nv-per-rthz", "-1"], "ConfigError",
     ["noise.e_th_nv_per_rthz", ">= 0", "-1"]),
    ("report", ["--n-spins", "1e15", "--temperature-k", "0"], "ConfigError",
     ["material.temperature_k", "> 0"]),
    ("sensitivity", ["--omega-d-ghz", "0"], "ConfigError",
     ["drive.omega_d_ghz", "> 0"]),
    ("noise-predict", ["--omega-d-ghz", "0"], "ConfigError",
     ["drive.omega_d_ghz", "> 0"]),
    ("eigen", ["--alpha-cr", "7"], "ConfigError",
     ["material.alpha_cr", "<= 1.0", "7"]),
    ("crossing-sim", ["--master-seed", "-1"], "ConfigError",
     ["run.master_seed", ">= 0", "-1"]),
    # a sweep axis whose points collapse or cannot be allocated, like a
    # crossing grid's; optimize's nine centres stay distinct at 2e-13 G, its
    # 21-point windows do not
    ("sensitivity", ["--bias-b-gauss", "1e20"], "ConfigError",
     ["sweep.bias_b_gauss", "sweep.b_span_gauss", "strictly increasing"]),
    ("sensitivity", ["--b-span-gauss", "1e-20"], "ConfigError",
     ["sweep.b_span_gauss", "strictly increasing"]),
    ("optimize", ["--b-span-gauss", "1e-20"], "ConfigError",
     ["sweep.b_span_gauss", "strictly increasing"]),
    ("optimize", ["--b-span-gauss", "2e-13"], "ConfigError",
     ["sweep.b_span_gauss", "strictly increasing"]),
    ("sensitivity", ["--n-points", "1e300"], "ConfigError",
     ["sweep.n_points", "Maximum allowed size"]),
    ("eigen", ["--n-points", "1e300"], "ConfigError",
     ["sweep.b_max_gauss", "sweep.n_points", "Maximum allowed size"]),
    # a drive power that underflows to 0 W
    ("optimize", ["--power-dbm", "-4000"], "ConfigError",
     ["drive.power_dbm", "> 0", "-4000", "0.0 in internal units"]),
    ("report", ["--power-dbm", "-4000"], "ConfigError",
     ["drive.power_dbm", "> 0", "-4000"]),
    ("crossing-sim", ["--power-dbm", "-4000"], "ConfigError",
     ["drive.power_dbm", "> 0", "-4000"]),
    # a negative linear noise density
    ("noise-predict", ["--phase-noise-csv",
                       "offset_hz,value,unit\n100,1e-12,V2_per_Hz\n"
                       "200,-1e-12,V2_per_Hz\n"],
     "ParseError", ["noise.csv", "V2_per_Hz", ">= 0"]),
    ("noise-predict", ["--amplitude-noise-csv",
                       "offset_hz,value,unit\n100,-1e-12,V2_per_Hz\n"],
     "ParseError", ["noise.csv", "V2_per_Hz", ">= 0"]),
])
def test_bad_input_prints_one_error_line(tmp_path, capsys, command, argv,
                                         error, words):
    inputs = []
    if argv[0] in _FILE_FLAGS:
        path = tmp_path / _FILE_FLAGS[argv[0]]
        if isinstance(argv[1], bytes):
            path.write_bytes(argv[1])
        else:
            path.write_text(argv[1])
        argv = [argv[0], str(path), *argv[2:]]
        inputs = [path.name]
    assert run_cli(command, "--output-dir", str(tmp_path), *argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"ERROR {error}: "), err
    for word in words:
        assert word in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("argv, error, words", [
    (["sensitivity", "--theta", "90", "--bias", "31"], "UnknownKey",
     ["'--theta'"]),
    (["report", "--power", "30"], "UnknownKey", ["'--power'"]),
    (["report", "--bogus", "1"], "UnknownKey", ["'--bogus'"]),
    (["report", "--power_dbm", "11"], "UnknownKey", ["'--power_dbm'"]),
    (["report", "stray"], "UnknownKey", ["'stray'"]),
    (["eigen", "--input", "x"], "UnknownKey", ["eigen", "'--input'"]),
    (["eigen", "--n-points"], "ParseError", ["--n-points", "needs a value"]),
    (["frobnicate"], "UnknownKey", ["'frobnicate'", "eigen", "report"]),
    ([], "UnknownKey", ["expected a command"]),
])
def test_bad_argv_prints_one_error_line(tmp_path, capsys, monkeypatch, argv,
                                        error, words):
    """A flag name that is not exact, a flag the command does not take, a
    missing value or command: one ERROR line, exit 2, nothing written."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RUBYMAG_OUTDIR", raising=False)
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"ERROR {error}: "), err
    for word in words:
        assert word in err[0]
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["eigen", "--help"],
                                  ["report", "--n-points", "7", "-h"],
                                  ["report", "-h"],
                                  ["report", "--n-points=7", "--help"]])
def test_help_lists_commands_and_flags(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    for name in _DISPATCH:
        assert name in out
    for key in FLAT_KEYS:
        assert f" --{key.replace('_', '-')}" in out
    assert "--config" in out and "--input" in out
    assert list(tmp_path.iterdir()) == []


def test_help_token_after_a_flag_is_its_value(tmp_path, capsys,
                                            monkeypatch):
    """-h and --help ask for the usage only where a flag name is expected:
    as a flag's value they are text like any other."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RUBYMAG_OUTDIR", raising=False)
    assert run_cli("report", "--output-dir", "-h") == 0
    assert run_cli("report", "--output-dir=-h") == 0
    assert run_cli("calibrate", "--output-dir", "--help") == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == [str(Path("-h", "report.json"))] * 2 \
        + [str(Path("--help", "calibrate.json"))]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["--help", "-h"]
    assert [p.name for p in (tmp_path / "-h").iterdir()] == ["report.json"]


@pytest.mark.parametrize("command, flag, name, words", [
    ("crossing-fit", "--input", "absent.csv", "No such file"),
    ("calibrate", "--input", "absent.csv", "No such file"),
    ("noise-predict", "--phase-noise-csv", "absent.csv", "No such file"),
    ("noise-predict", "--amplitude-noise-csv", "absent.csv", "No such file"),
    ("calibrate", "--input", "", "Is a directory"),
])
def test_unopenable_input_file_exits_two(tmp_path, capsys, command, flag,
                                         name, words):
    """An input CSV that cannot be opened is bad input, named in the one
    ERROR line; nothing is written."""
    path = tmp_path / name
    assert run_cli(command, "--output-dir", str(tmp_path / "out"),
                   flag, str(path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR ParseError: "), err
    assert str(path) in err[0] and words in err[0]
    assert list(tmp_path.iterdir()) == []


def test_text_flags_taken_verbatim(tmp_path, monkeypatch):
    """--output-dir 5 writes into a directory named 5, and
    --phase-noise-csv 7 reads the file named 7."""
    monkeypatch.chdir(tmp_path)
    assert run_cli("calibrate", "--output-dir", "5") == 0
    assert (tmp_path / "5" / "calibrate.json").is_file()
    data = importlib.resources.files("rubymag") / "data"
    (tmp_path / "7").write_bytes((data / "phase_noise.csv").read_bytes())
    assert run_cli("noise-predict", "--output-dir", "a",
                   "--phase-noise-csv", "7") == 0
    assert run_cli("noise-predict", "--output-dir=b") == 0
    got = (tmp_path / "a" / "predicted_noise.csv").read_bytes()
    assert got == (tmp_path / "b" / "predicted_noise.csv").read_bytes()


@pytest.mark.parametrize("command, argv, error", [
    ("sensitivity", ["--chain-gain-db", "1e6"], "OverflowError"),
    ("report", ["--chain-gain-db", "1e6"], "OverflowError"),
    ("optimize", ["--chain-gain-db", "1e6"], "OverflowError"),
    # a drive that omega_d_off shifts below zero frequency
    ("sensitivity", ["--omega-d-off-mhz", "20000"], "ZeroLinewidth"),
    # numpy's overflow warning becomes the error
    ("report", ["--amplitude-a", "1e302"], "FloatingPointError"),
    ("crossing-sim", ["--omega-d-off-mhz", "20000"], "ZeroLinewidth"),
])
def test_numeric_failure_prints_one_error_line(tmp_path, capsys, command,
                                               argv, error):
    """A ValueError or ArithmeticError inside a command is a runtime
    failure: exit 1 and one ERROR line, not a traceback."""
    assert run_cli(command, "--output-dir", str(tmp_path), *argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"ERROR {error}: "), err
    assert list(tmp_path.iterdir()) == []


def test_failed_compute_makes_no_output_dir(tmp_path, capsys):
    """The output directory is made only once the command's compute has
    succeeded."""
    out = tmp_path / "absent"
    assert run_cli("sensitivity", "--chain-gain-db", "1e6",
                   "--output-dir", str(out)) == 1
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize("command, files", [
    ("sensitivity", ["sensitivity.json", "sweep.csv"]),
    ("optimize", ["eta_table.csv", "optimize.json"])])
def test_two_file_command_prints_its_json_path(tmp_path, capsys, command,
                                               files):
    """Every file a command returns is written; stdout is one line, the
    path of the last, its JSON."""
    assert run_cli(command, "--output-dir", str(tmp_path)) == 0
    out, err = capsys.readouterr()
    assert (out.splitlines(), err) == ([str(tmp_path / f"{command}.json")], "")
    assert sorted(p.name for p in tmp_path.iterdir()) == files


def test_memory_error_prints_one_error_line(tmp_path, capsys, monkeypatch):
    """An allocation numpy refuses is a runtime failure, reported under the
    MemoryError name whatever subclass numpy raises."""
    class _ArrayMemoryError(MemoryError):
        pass

    def refuse(cfg, args):
        raise _ArrayMemoryError("Unable to allocate 745. GiB")

    monkeypatch.setitem(cli._DISPATCH, "eigen", refuse)
    assert run_cli("eigen", "--output-dir", str(tmp_path)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["ERROR MemoryError: Unable to allocate 745. GiB"]


def test_large_nonideality_prints_nothing_on_stderr(tmp_path, capsys):
    """Gamma' is exact for any phase offset, so psi = 0.7 rad runs quietly."""
    assert run_cli("crossing-sim", "--output-dir", str(tmp_path),
                   "--n-omega-s", "4", "--n-omega-d", "4") == 0
    assert run_cli("crossing-fit", "--output-dir", str(tmp_path),
                   "--input", str(tmp_path / "crossing.csv"),
                   "--psi-rad", "0.7") == 0
    assert capsys.readouterr().err == ""


# a 2 x 2 crossing grid whose lower drive frequency is 0 Hz
_ZERO_DRIVE_GRID = ("omega_s_hz,omega_d_hz,re,im\n"
                    "1,0,1,0\n1,1,1,0\n2,0,1,0\n2,1,1,0\n")


@pytest.mark.parametrize("command, argv", [
    ("crossing-fit", ["--input", _ZERO_DRIVE_GRID]),
    # Gamma sampled at offsets down to about -1 MHz around a 100 Hz drive
    ("noise-predict", ["--omega-d-ghz", "1e-7"]),
])
def test_non_positive_drive_fails_command(tmp_path, capsys, command, argv):
    """Every command that evaluates Gamma' refuses a drive frequency <= 0
    at any point it evaluates: the fit's data grid and noise-predict's
    sampled offsets included."""
    if argv[0] == "--input":
        path = tmp_path / "in.csv"
        path.write_text(argv[1])
        argv = ["--input", str(path)]
    out = tmp_path / "out"
    assert run_cli(command, "--output-dir", str(out), *argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR ZeroLinewidth: "), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["noise-predict", "sensitivity", "report"])
@pytest.mark.parametrize("flag", ["--kappa-s-mhz", "--kappa-th-khz"])
def test_zero_spin_rate_fails_command(tmp_path, capsys, command, flag):
    assert run_cli(command, "--output-dir", str(tmp_path), flag, "0") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR ConfigError: "), err
    assert "ensemble." + flag[2:].replace("-", "_") in err[0]
    assert "> 0" in err[0]
    assert list(tmp_path.iterdir()) == []


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's
    rubymag, with no RUBYMAG_OUTDIR."""
    env = dict(os.environ)
    env.pop("RUBYMAG_OUTDIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(rubymag.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_python(code: str) -> str:
    """stdout of a fresh interpreter that imports this checkout's rubymag."""
    return subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          check=True, capture_output=True, text=True).stdout


def run_module(*argv, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """python -m rubymag.cli ARGV in a fresh process."""
    return subprocess.run([sys.executable, "-m", "rubymag.cli", *argv],
                          env=_child_env(), stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60)


def test_process_exit_codes_and_outputs(tmp_path):
    """The process ends through cli.run: the exit code is main()'s, stdout
    holds the output path or stderr one ERROR line, and the file written is
    byte for byte the one an in-process main() writes."""
    args = ["--theta-deg", "35", "--n-points", "41"]
    ok = run_module("eigen", "--output-dir", str(tmp_path / "child"), *args)
    assert (ok.returncode, ok.stderr) == (0, "")
    child = tmp_path / "child" / "energy_levels.csv"
    assert ok.stdout.splitlines() == [str(child)]
    assert main(["eigen", "--output-dir", str(tmp_path / "main"), *args]) == 0
    assert child.read_bytes() == \
        (tmp_path / "main" / "energy_levels.csv").read_bytes()

    bad = run_module("eigen", "--output-dir", str(tmp_path), "--theta", "35")
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.splitlines() == [
        "ERROR UnknownKey: eigen: unknown flag '--theta'"]

    blocked = tmp_path / "file"
    blocked.write_text("")
    failed = run_module("eigen", "--output-dir", str(blocked))
    assert failed.returncode == 1 and failed.stdout == ""
    err = failed.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR IOError: "), err


def test_unwritable_output_dir_fails_in_process(tmp_path, capsys):
    """An output directory that is a file, or lies under one, is one ERROR
    IOError line and exit 1 from main(), and the file is left untouched."""
    blocked = tmp_path / "file"
    blocked.write_text("kept\n")
    for out, errno in ((blocked, "[Errno 17] File exists"),
                       (blocked / "sub", "[Errno 20] Not a directory")):
        assert run_cli("report", "--output-dir", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"ERROR IOError: {errno}")
        assert blocked.read_text() == "kept\n"


def test_closed_stdout_prints_one_error_line():
    """rubymag --help | head -1: the usage cannot be flushed into a closed
    pipe, which is one ERROR IOError line and exit 1, not a traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_module("--help", stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["ERROR IOError: [Errno 32] Broken pipe"]


def test_cli_import_loads_no_scipy():
    """A cold import of the command line loads neither scipy, a test-only
    dependency, nor numpy.random (about 14 ms), which only the commands
    that draw noise need."""
    out = run_python("import sys, rubymag.cli; "
                     "print(sorted(m for m in sys.modules "
                     "if m.split('.')[0] == 'scipy' "
                     "or m.startswith('numpy.random')))")
    assert out.strip() == "[]"


def test_cli_import_loads_no_importlib_resources():
    """Only noise-predict's default data path reads importlib.resources, so
    a cold import of the command line does not load it.  The child runs
    under python -S, with numpy's directory on its path, because a site
    hook may load importlib.resources first (certifi's .pth file does)."""
    env = _child_env()
    env["PYTHONPATH"] += os.pathsep + str(Path(np.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, rubymag.cli; "
         "print('importlib.resources' in sys.modules)"],
        env=env, check=True, capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_commands_load_no_scipy(tmp_path):
    """Every command, crossing-fit included, runs on numpy alone, and the
    command line is read without argparse."""
    csv_path = tmp_path / "calibration.csv"
    csv_path.write_text("current_a,field_t\n0.0,1e-9\n0.005,1.1e-7\n"
                        "0.01,2.2e-7\n")
    common = ["--output-dir", str(tmp_path), "--n-points", "11",
              "--n-omega-s", "6", "--n-omega-d", "6"]
    runs = [[name] + common for name in
            ("eigen", "crossing-sim", "noise-predict", "sensitivity",
             "optimize", "report")]
    runs.append(["calibrate", "--input", str(csv_path)] + common)
    # fits the 6x6 grid that crossing-sim wrote above
    runs.append(["crossing-fit", "--input", str(tmp_path / "crossing.csv")]
                + common)
    code = ("import json, sys\n"
            "from rubymag.cli import main\n"
            f"codes = [main(argv) for argv in {runs!r}]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'argparse'))]))")
    codes, loaded = json.loads(run_python(code).splitlines()[-1])
    assert codes == [0] * 8
    assert (tmp_path / "fit.json").exists()
    assert loaded == []


def test_benchmark_tracer_targets_resolve():
    """Every function the benchmark's tracer wraps exists under its name."""
    path = Path(__file__).parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr in tracer.TARGETS:
        owner = importlib.import_module("rubymag." + module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


def test_eigen_goes_through_public_eigensolve(tmp_path, monkeypatch):
    """eigen solves its sweep in one call of spins.eigensolve, the function
    the benchmark's tracer counts, so spins.eigensolve.calls cannot read 0
    while eigen runs."""
    from rubymag import spins
    calls = []
    solve = spins.eigensolve

    def counted(h):
        calls.append(np.shape(h))
        return solve(h)

    monkeypatch.setattr(spins, "eigensolve", counted)
    assert main(["eigen", "--output-dir", str(tmp_path),
                 "--n-points", "11"]) == 0
    assert calls == [(11, 4, 4)]


def test_reader_takes_every_config_flag_on_every_command():
    """Every config flag, in both spellings, reaches the config on every
    command; --input only on the commands that read a CSV.  Each key is set
    to 7, or to 0.7 for alpha_cr, a fraction that 7 would put out of range."""
    for command in _DISPATCH:
        for key, block in FLAT_KEYS.items():
            flag = "--" + key.replace("_", "-")
            text = "0.7" if key == "alpha_cr" else "7"
            for argv in ([flag, text], [f"{flag}={text}"]):
                assert _read_argv([command, *argv]) == (command, {key: text})
            raw_value = text if key in ("output_dir", "phase_noise_csv",
                                        "amplitude_noise_csv") \
                else json.loads(text)
            got = parse_config({}, {key: text})[block][key]
            assert got == parse_config({block: {key: raw_value}})[block][key]
            assert got != parse_config({})[block][key], key
        assert _read_argv([command, "--config", "c.json"]) == (
            command, {"config": "c.json"})
        if command in ("crossing-fit", "calibrate"):
            assert _read_argv([command, "--input", "in.csv"]) == (
                command, {"input": "in.csv"})
        else:
            with pytest.raises(UnknownKey):
                _read_argv([command, "--input", "in.csv"])


# the domain-object views a command builds from its RunConfig, and the
# number keys of the blocks they read
_VIEWS = ("spin_system", "material", "cavity", "ensemble", "drive",
          "nonideal", "coil")
_VIEW_KEYS = sorted(key for key, block in FLAT_KEYS.items() if block in (
    "spin", "material", "cavity", "ensemble", "drive", "nonideal",
    "calibration"))
_ANY_NUMBER = st.one_of(
    st.sampled_from([0, -1, 1, 7, 0.5, -0.5, 5e-324, -5e-324, 1e-300, 1e300,
                     -1e300]),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False))


@pytest.mark.parametrize("key", _VIEW_KEYS)
@settings(max_examples=6, deadline=None)
@given(value=_ANY_NUMBER,
       others=st.dictionaries(st.sampled_from(_VIEW_KEYS), _ANY_NUMBER,
                              max_size=3))
@example(value=0, others={})
@example(value=-1, others={})
@example(value=7, others={})
def test_every_parsed_config_builds_every_view(key, value, others):
    """Whatever values the schema accepts, every view builds: the schema is
    the one place a bad value is refused, whichever command runs.  Each key
    in turn takes 0, -1, 7 and drawn values, with up to three others drawn
    beside it."""
    texts = {k: json.dumps(v) for k, v in {**others, key: value}.items()}
    try:
        cfg = parse_config({}, texts)
    except ConfigError:
        return
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for view in _VIEWS:
            try:
                getattr(cfg, view)()
            except ArithmeticError:
                # a float overflow at an extreme value (a temperature of
                # 5e-324 K) is a runtime failure, exit 1, as in a command
                pass


def test_unknown_config_key_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"ensemble": {"kapa_s_mhz": 42}}')
    code = run_cli("eigen", "--config", str(bad),
                   "--output-dir", str(tmp_path))
    assert code == 2
    assert "UnknownKey" in capsys.readouterr().err


def test_missing_config_file_exits_two(tmp_path, capsys):
    code = run_cli("eigen", "--config", str(tmp_path / "absent.json"),
                   "--output-dir", str(tmp_path))
    assert code == 2


def test_crossing_fit_requires_input(tmp_path, capsys):
    code = run_cli("crossing-fit", "--output-dir", str(tmp_path))
    assert code == 2


def test_crossing_sim_reproducible_and_seed_sensitive(tmp_path):
    args = ["crossing-sim", "--n-omega-s", "8", "--n-omega-d", "8",
            "--noise-sigma", "0.05"]
    for name, seed in (("a", "0"), ("b", "0"), ("c", "1")):
        out = tmp_path / name
        assert run_cli(*args, "--output-dir", str(out),
                       "--master-seed", seed) == 0
    same = (tmp_path / "a" / "crossing.csv").read_bytes()
    assert same == (tmp_path / "b" / "crossing.csv").read_bytes()
    assert same != (tmp_path / "c" / "crossing.csv").read_bytes()


@pytest.mark.slow
def test_crossing_pipeline_round_trip(tmp_path):
    """crossing-sim then crossing-fit recovers the config's truth values."""
    common = ["--output-dir", str(tmp_path), "--n-omega-s", "20",
              "--n-omega-d", "20"]
    assert run_cli("crossing-sim", *common) == 0
    assert run_cli("crossing-fit", *common,
                   "--input", str(tmp_path / "crossing.csv")) == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["objective_value"] < 1e-6
    assert fit["kappa_s_rad_per_s"] == pytest.approx(TWO_PI * 42e6, rel=0.01)
    assert fit["kappa_c_rad_per_s"] == pytest.approx(TWO_PI * 660e3, rel=0.01)
    assert fit["kappa_th_rad_per_s"] == pytest.approx(TWO_PI * 120e3, rel=0.01)


def test_noise_predict_uses_bundled_spectra(tmp_path):
    assert run_cli("noise-predict", "--output-dir", str(tmp_path)) == 0
    lines = (tmp_path / "predicted_noise.csv").read_text().splitlines()
    assert lines[0] == "offset_hz,value,unit"
    assert all(line.endswith("V2_per_Hz") for line in lines[1:])
    # Gamma from the term-by-term reference, n_cav pinned at the carrier
    cfg = parse_config({})
    cav, ens, drive = cfg.cavity(), cfg.ensemble(), cfg.drive()
    data = importlib.resources.files("rubymag") / "data"
    phase = iqnoise.read_spectrum_csv(data / "phase_noise.csv")
    amp = iqnoise.read_spectrum_csv(data / "amplitude_noise.csv")
    pos = phase.offsets * TWO_PI
    offsets = np.concatenate([-pos[::-1], [0.0], pos])
    omega_d = drive.omega_d + offsets
    pi_term = interaction_term(ens.g_s, ens.N, ens.kappa_s, ens.kappa_th,
                               ens.omega_s, omega_d,
                               photon_number(drive, cav.kappa_c))
    gamma = reflection_coefficient(cav.kappa_c0, cav.kappa_c1, cav.omega_c,
                                   omega_d, pi_term)
    want = iqnoise.predict_noise_psd(amp, phase, phase.offsets, gamma, 0.0)
    got = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.allclose(got, want.density, rtol=1e-12, atol=0.0)
    # the output is on the phase spectrum's own offsets, cell for cell
    given = (data / "phase_noise.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines] \
        == [line.split(",")[0] for line in given]


def test_noise_predict_zero_amplitude_density(tmp_path):
    """A zero V2_per_Hz density off the phase offsets resamples to 0 on
    each interval it bounds: the result equals that of a spectrum already
    on the phase offsets (100, 200, 500, ... Hz) with those zeros."""
    data = importlib.resources.files("rubymag") / "data"
    offsets = [line.split(",")[0] for line in
               (data / "phase_noise.csv").read_text().splitlines()[1:]]
    given = {"sparse": ["100,0", "300,1e-12"],
             "on_grid": ["100,0", "200,0"] + [f"{f},1e-12" for f in offsets[2:]]}
    got = {}
    for name, rows in given.items():
        path = tmp_path / f"{name}.csv"
        path.write_text("offset_hz,value,unit\n"
                        + "".join(f"{row},V2_per_Hz\n" for row in rows))
        assert run_cli("noise-predict", "--output-dir", str(tmp_path / name),
                       "--amplitude-noise-csv", str(path)) == 0
        lines = (tmp_path / name / "predicted_noise.csv").read_text()
        got[name] = [float(line.split(",")[1])
                     for line in lines.splitlines()[1:]]
    assert len(got["sparse"]) == len(offsets)
    assert np.all(np.isfinite(got["sparse"]))
    assert np.allclose(got["sparse"], got["on_grid"], rtol=1e-12, atol=0.0)


def test_sensitivity_outputs(tmp_path):
    assert run_cli("sensitivity", "--output-dir", str(tmp_path)) == 0
    summary = json.loads((tmp_path / "sensitivity.json").read_text())
    assert summary["m_max_v_per_t"] > 0
    assert 0 < summary["eta_t_per_rthz"] < 1e-9
    assert summary["eta_th_t_per_rthz"] < summary["eta_t_per_rthz"]
    assert (tmp_path / "sweep.csv").exists()


def read_strict_json(path):
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_sensitivity_sweep_through_zero_field(tmp_path):
    """A bias sweep from -4 G to +6 G runs: the field is signed along the
    c-axis."""
    assert run_cli("sensitivity", "--output-dir", str(tmp_path),
                   "--bias-b-gauss", "1", "--b-span-gauss", "10") == 0
    summary = read_strict_json(tmp_path / "sensitivity.json")
    assert summary["m_max_v_per_t"] > 0
    b = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)[:, 0]
    assert b[0] == pytest.approx(-4e-4) and b[-1] == pytest.approx(6e-4)


@pytest.mark.parametrize("command", ["sensitivity", "report"])
def test_unbounded_phase_noise_budget_is_null(tmp_path, command):
    """e_n = e_th leaves no phase noise, so no source requirement exists."""
    assert run_cli(command, "--output-dir", str(tmp_path),
                   "--noise-floor-nv-per-rthz", "13",
                   "--e-th-nv-per-rthz", "13") == 0
    summary = read_strict_json(tmp_path / f"{command}.json")
    assert summary["phi_required_dbc_per_hz"] is None
    if command == "sensitivity":
        assert summary["e_p_v_per_rthz"] == 0.0


# acceptance criterion 13's non-idealities, in config units
_CRITERION_13_NONIDEAL = {
    "o_r": -0.008, "o_i": 0.12, "amplitude_a": 0.003,
    "slope_b_per_hz": 1e-9 * TWO_PI, "psi_rad": 0.14, "tau_s": -1.2e-8,
    "omega_s_off_mhz": -7.3 / TWO_PI, "omega_d_off_mhz": -0.56 / TWO_PI}


@pytest.mark.parametrize("nonideal", [{}, _CRITERION_13_NONIDEAL],
                         ids=["default", "criterion-13"])
def test_optimize_matches_window_polyfit(tmp_path, nonideal):
    """optimize's 9x9 table: each 21-point window of half-width b_span/8 is
    swept, its centre slope taken from a five-point np.polyfit, and
    e_n, scaled by sqrt(P/P_ref), divided by it."""
    raw = {"nonideal": nonideal}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run_cli("optimize", "--config", str(path),
                   "--output-dir", str(out)) == 0
    cfg = parse_config(raw)
    s, drive = cfg["sweep"], cfg.drive()
    b_values = np.linspace(s["bias_b_gauss"] - s["b_span_gauss"] / 2.0,
                           s["bias_b_gauss"] + s["b_span_gauss"] / 2.0, 9)
    p_ref_dbm = 10.0 * math.log10(drive.power / 1e-3)
    p_dbm = np.linspace(p_ref_dbm - 6.0, p_ref_dbm + 6.0, 9)
    half = s["b_span_gauss"] / 8.0
    want = np.empty((9, 9))
    for j, dbm in enumerate(p_dbm):
        power = dbm_to_watts(float(dbm))
        e_n = s["noise_floor_nv_per_rthz"] * math.sqrt(power / drive.power)
        for i, b0 in enumerate(b_values):
            b = np.linspace(b0 - half, b0 + half, 21)
            v = bias_sweep_trace(cfg.spin_system(), cfg.cavity(),
                                 cfg.ensemble(), cfg.nonideal(),
                                 replace(drive, power=power), b,
                                 chain_gain_db=s["chain_gain_db"])
            slope = np.polyfit(b[8:13] - b[10], v.imag[8:13], 2)[1]
            want[i, j] = e_n / abs(slope)
    table = np.loadtxt(out / "eta_table.csv", delimiter=",", skiprows=1)
    assert np.allclose(table[:, 0], np.repeat(b_values * 1e4, 9),
                       rtol=1e-12, atol=0)
    assert np.allclose(table[:, 1], np.tile(p_dbm, 9), rtol=1e-12, atol=0)
    assert np.allclose(table[:, 2], want.ravel(), rtol=1e-9, atol=0)
    summary = read_strict_json(out / "optimize.json")
    assert np.allclose(summary["eta_mag_t_per_rthz"], want.min(axis=1),
                       rtol=1e-9, atol=0)
    assert np.allclose(summary["eta_mw_t_per_rthz"], want.min(axis=0),
                       rtol=1e-9, atol=0)
    assert summary["best_p_dbm_per_bias"] == pytest.approx(
        p_dbm[want.argmin(axis=1)], rel=1e-12)
    assert summary["best_b_gauss_per_power"] == pytest.approx(
        b_values[want.argmin(axis=0)] * 1e4, rel=1e-12)


def test_calibrate_solenoid_value(tmp_path):
    assert run_cli("calibrate", "--output-dir", str(tmp_path)) == 0
    summary = json.loads((tmp_path / "calibrate.json").read_text())
    assert summary["b_solenoid_t"] == pytest.approx(220e-9, rel=0.01)


def test_calibrate_equal_fields_write_null_r_squared(tmp_path):
    """Equal fields leave r^2 undefined, but the line is well defined."""
    path = tmp_path / "in.csv"
    path.write_text("current_a,field_t\n0.1,2e-6\n0.2,2e-6\n0.3,2e-6\n")
    out = tmp_path / "out"
    assert run_cli("calibrate", "--output-dir", str(out),
                   "--input", str(path)) == 0
    summary = read_strict_json(out / "calibrate.json")
    assert summary["slope_t_per_a"] == 0.0
    assert summary["intercept_t"] == pytest.approx(2e-6, rel=1e-12)
    assert summary["r_squared"] is None


def test_report_contains_acceptance_quantities(tmp_path):
    assert run_cli("report", "--output-dir", str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["cooperativity_xi"] == pytest.approx(1.8, rel=0.25)
    assert report["n_total_spins"] == pytest.approx(8e17, rel=0.1)
    assert report["n_polarized_spins"] == pytest.approx(3.5e14, rel=0.15)
    assert report["t2_s"] == pytest.approx(7.6e-9, rel=0.02)
    assert report["t1_s"] == pytest.approx(1.3e-6, rel=0.03)
    assert report["phi_required_dbc_per_hz"] == pytest.approx(-140.0, abs=0.5)
    assert report["eta_th_t_per_rthz"] > 0


def test_output_dir_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("RUBYMAG_OUTDIR", str(tmp_path / "env"))
    assert run_cli("calibrate") == 0
    assert (tmp_path / "env" / "calibrate.json").exists()


def test_flag_overrides_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("RUBYMAG_OUTDIR", str(tmp_path / "env"))
    assert run_cli("calibrate", "--output-dir", str(tmp_path / "flag")) == 0
    assert (tmp_path / "flag" / "calibrate.json").exists()
    assert not (tmp_path / "env" / "calibrate.json").exists()


def test_negative_exponent_flag_value(tmp_path):
    """'--tau-s -1.2e-08' reaches its flag, same as the config key."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"nonideal": {"tau_s": -1.2e-08}}')
    common = ["--n-omega-s", "4", "--n-omega-d", "5"]
    assert run_cli("crossing-sim", *common, "--output-dir",
                   str(tmp_path / "flag"), "--tau-s", "-1.2e-08") == 0
    assert run_cli("crossing-sim", *common, "--output-dir",
                   str(tmp_path / "file"), "--config", str(cfg)) == 0
    assert run_cli("crossing-sim", *common, "--output-dir",
                   str(tmp_path / "zero")) == 0
    flag = (tmp_path / "flag" / "crossing.csv").read_bytes()
    assert flag == (tmp_path / "file" / "crossing.csv").read_bytes()
    assert flag != (tmp_path / "zero" / "crossing.csv").read_bytes()


@pytest.mark.parametrize("source", ["flag", "file"])
def test_non_finite_config_value_exits_two(tmp_path, capsys, source):
    if source == "flag":
        argv = ["--kappa-s-mhz", "NaN"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"ensemble": {"kappa_s_mhz": Infinity}}')
        argv = ["--config", str(cfg)]
    assert run_cli("report", "--output-dir", str(tmp_path), *argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR UnitMismatch: ")
    assert "kappa_s_mhz" in err[0]
    assert not (tmp_path / "report.json").exists()


def test_non_finite_result_fails_command(tmp_path, capsys, monkeypatch):
    """A zero slope fails optimize as ZeroSignal, as it fails sensitivity
    and report; a non-finite result, an overflowed phase-noise requirement
    included, fails the command before any of its files is written."""
    out = tmp_path / "optimize"
    assert run_cli("optimize", "--output-dir", str(out), "--n-spins", "0") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR ZeroSignal: "), err
    assert not out.exists()
    from rubymag import magnetometry
    monkeypatch.setattr(magnetometry, "sensitivity",
                        lambda *args: math.nan)
    assert run_cli("sensitivity", "--output-dir", str(tmp_path)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR NonFiniteOutput: ")
    assert not (tmp_path / "sensitivity.json").exists()
    monkeypatch.undo()
    # a requirement that overflows to +inf is no unbounded one (e_p = 0)
    for command in ("report", "sensitivity"):
        out = tmp_path / f"overflow-{command}"
        assert run_cli(command, "--output-dir", str(out),
                       "--phi-measured-dbc-per-hz", "1e308",
                       "--ell-db", "1e308") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("ERROR NonFiniteOutput: ")
        assert f"{command}.json" in err[0]
        assert not out.exists()


def test_crossing_fit_ragged_csv_exits_two(tmp_path, capsys):
    assert run_cli("crossing-sim", "--output-dir", str(tmp_path),
                   "--n-omega-s", "4", "--n-omega-d", "4") == 0
    path = tmp_path / "crossing.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    capsys.readouterr()
    assert run_cli("crossing-fit", "--output-dir", str(tmp_path),
                   "--input", str(path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR ParseError: ")
    assert not (tmp_path / "fit.json").exists()
