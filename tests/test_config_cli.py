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

import rubymag
from rubymag import iqnoise
from rubymag.cavity import (dbm_to_watts, interaction_term, photon_number,
                            reflection_coefficient, single_spin_coupling)
from rubymag.cli import COMMANDS, _build_parser, main, split_seed
from rubymag.config import FLAT_KEYS, apply_overrides, flag_name, parse_config
from rubymag.errors import ParseError, UnitMismatch, UnknownKey
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
    raw = {"spin": {"d_ghz": -5.745}, "drive": {"power_dbm": 0.0},
           "grid": {"n_omega_s": 10, "noise_sigma": 0.01}}
    first = parse_config(json.loads(json.dumps(raw)))
    merged = apply_overrides(raw, {})
    second = parse_config(json.loads(json.dumps(merged)))
    assert first.values == second.values


def test_apply_overrides_merges_flags():
    raw = {"ensemble": {"kappa_s_mhz": 42.0}}
    merged = apply_overrides(raw, {("ensemble", "kappa_th_khz"): 100.0,
                                   ("run", "master_seed"): 7})
    cfg = parse_config(merged)
    assert cfg["ensemble"]["kappa_s_mhz"] == pytest.approx(TWO_PI * 42e6)
    assert cfg["ensemble"]["kappa_th_khz"] == pytest.approx(TWO_PI * 100e3)
    assert cfg["run"]["master_seed"] == 7


def test_flat_keys_unique_and_flag_names():
    assert len(FLAT_KEYS) == len(set(FLAT_KEYS))
    assert FLAT_KEYS["kappa_s_mhz"] == "ensemble"
    assert flag_name("kappa_s_mhz") == "--kappa-s-mhz"


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


@pytest.mark.parametrize("command, argv, error", [
    ("sensitivity", ["--chain-gain-db", "1e6"], "OverflowError"),
    ("report", ["--chain-gain-db", "1e6"], "OverflowError"),
    ("optimize", ["--chain-gain-db", "1e6"], "OverflowError"),
    ("sensitivity", ["--bias-b-gauss", "1e20"], "ValueError"),
])
def test_numeric_failure_prints_one_error_line(tmp_path, capsys, command,
                                               argv, error):
    """A ValueError or ArithmeticError inside a command is a runtime
    failure: exit 1 and one ERROR line, not a traceback."""
    assert run_cli(command, "--output-dir", str(tmp_path), *argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"ERROR {error}: "), err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["noise-predict", "sensitivity", "report"])
@pytest.mark.parametrize("flag", ["--kappa-s-mhz", "--kappa-th-khz"])
def test_zero_spin_rate_fails_command(tmp_path, capsys, command, flag):
    assert run_cli(command, "--output-dir", str(tmp_path), flag, "0") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR ConfigError: "), err
    assert "ensemble." + flag[2:].replace("-", "_") in err[0]
    assert "> 0" in err[0]
    assert list(tmp_path.iterdir()) == []


def run_python(code: str) -> str:
    """stdout of a fresh interpreter that imports this checkout's rubymag."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(rubymag.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_loads_no_scipy():
    out = run_python("import sys, rubymag.cli; "
                     "print(sorted(m for m in sys.modules "
                     "if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_commands_load_no_scipy(tmp_path):
    """Every command, crossing-fit included, runs on numpy alone."""
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
            "if m.split('.')[0] == 'scipy')]))")
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
        owner = sys.modules["rubymag." + module]
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


def test_parser_takes_every_config_flag_on_every_command():
    parser = _build_parser()
    for command in COMMANDS:
        for key in FLAT_KEYS:
            args = parser.parse_args([command, flag_name(key), "7"])
            assert getattr(args, key) == "7", (command, key)
        args = parser.parse_args([command, "--config", "c.json"])
        assert args.config == Path("c.json")
        if command in ("crossing-fit", "calibrate"):
            args = parser.parse_args([command, "--input", "in.csv"])
            assert args.input == Path("in.csv")
        else:
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--input", "in.csv"])


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
    want = iqnoise.predict_noise_psd(
        amp, phase, iqnoise.SampledGamma(offsets=offsets, values=gamma), 0.0)
    got = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.allclose(got, want.density, rtol=1e-12, atol=0.0)


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
            trace = bias_sweep_trace(cfg.spin_system(), cfg.cavity(),
                                     cfg.ensemble(), cfg.nonideal(),
                                     replace(drive, power=power), b,
                                     chain_gain_db=s["chain_gain_db"])
            slope = np.polyfit(b[8:13] - b[10], trace.dispersive[8:13], 2)[1]
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
    """A non-finite result fails the command before its file is written."""
    # without spins the slope is 0 and every eta in the table is infinite
    out = tmp_path / "optimize"
    assert run_cli("optimize", "--output-dir", str(out), "--n-spins", "0") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR NonFiniteOutput: ")
    assert "eta_table.csv" in err[0]
    assert list(out.iterdir()) == []
    from rubymag import magnetometry
    monkeypatch.setattr(magnetometry, "sensitivity",
                        lambda *args: math.nan)
    assert run_cli("sensitivity", "--output-dir", str(tmp_path)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR NonFiniteOutput: ")
    assert not (tmp_path / "sensitivity.json").exists()


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
