"""Command-line entry point: rubymag COMMAND [--key VALUE | --key=VALUE]...

Commands: eigen, crossing-sim, crossing-fit, noise-predict, sensitivity,
optimize, calibrate, report.  Configuration comes from an optional JSON file
(--config) with per-key flags named one-for-one after the config keys
(--kappa-s-mhz 42 overrides ensemble.kappa_s_mhz); crossing-fit and calibrate
also take --input CSV, and -h/--help in place of the command or of a flag
name lists the flags.  Exit codes: 0 on success, 2 on bad arguments and
configuration/validation errors, 1 on runtime errors (any ValueError or
ArithmeticError a command raises included); errors print one
machine-parsable line on stderr.  A cmd_* function returns its files, in
write order, as (name, render, *args); main() renders every file before it
makes run.output_dir, writes each, prints the last path, returns 0.
run() is the process entry point: it flushes stdout and stderr and ends the
process without interpreter teardown.
"""

from __future__ import annotations

import json
import math
import os
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import calibration as cal
from . import fitting, iqnoise, magnetometry as mag, thermal
from .cavity import (NonIdealityParams, cooperativity, dbm_to_watts,
                     gamma_prime, gamma_prime_params,
                     kappa_th_threshold_power, watts_to_dbm)
from .config import FLAT_KEYS, RunConfig, parse_config
from .csvio import render_json
from .errors import (ConfigError, ParseError, RubymagError, UnknownKey,
                     ZeroSignal)
from .spins import energy_level_sweep, render_energy_sweep_csv

_TWO_PI = 2.0 * math.pi


def split_seed(master_seed: int, label: str) -> np.random.SeedSequence:
    """Deterministic per-task stream: (master seed, CRC32 of the label)."""
    return np.random.SeedSequence([master_seed, zlib.crc32(label.encode())])


def _seed_int(master_seed: int, label: str) -> int:
    return int(split_seed(master_seed, label).generate_state(1)[0])


_HELP = ("-h", "--help")


def _read_argv(argv: list) -> tuple[str | None, dict]:
    """COMMAND, then --key VALUE or --key=VALUE pairs: (COMMAND, {key: text}).

    A key is a config key spelled with dashes, 'config', or 'input' on the
    commands that read a CSV.  The token after a flag is its value whatever
    it looks like, so '--tau-s -1.2e-08' reaches --tau-s and
    '--output-dir -h' names a directory.  -h or --help in place of the
    command or of a flag name asks for the usage: (None, {}).
    """
    if argv and argv[0] in _HELP:
        return None, {}
    if not argv or argv[0] not in _DISPATCH:
        raise UnknownKey(f"expected a command ({', '.join(_DISPATCH)}), "
                         f"got {argv[0] if argv else 'none'!r}")
    command, texts, tokens = argv[0], {}, iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            return None, {}
        name, eq, text = token.partition("=")
        key = name[2:].replace("-", "_")
        known = key in FLAT_KEYS or key == "config" or (
            key == "input" and command in ("crossing-fit", "calibrate"))
        if not name.startswith("--") or "_" in name or not known:
            raise UnknownKey(f"{command}: unknown flag {name!r}")
        if not eq:
            text = next(tokens, None)
            if text is None:
                raise ParseError(f"{command}: {name} needs a value")
        texts[key] = text
    return command, texts


def _usage() -> str:
    blocks = {}
    for key, block in FLAT_KEYS.items():
        blocks.setdefault(block, []).append("--" + key.replace("_", "-"))
    return "\n".join([
        "usage: rubymag COMMAND [--config JSON] [--input CSV] [--key VALUE]",
        "commands: " + ", ".join(_DISPATCH),
        "--input: crossing-fit and calibrate only",
        "config keys, as --key VALUE or --key=VALUE:",
        *(f"  {block}: {' '.join(flags)}" for block, flags in blocks.items())])


def _load_config(path, texts: dict) -> RunConfig:
    raw = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
            raw = json.loads(text) if text.strip() else {}
        except OSError as exc:
            raise ConfigError(str(exc)) from exc
        except (ValueError, RecursionError) as exc:   # undecodable text too
            raise ParseError(f"{path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ParseError(f"{path}: top-level JSON value must be "
                             "an object")
    env_dir = os.environ.get("RUBYMAG_OUTDIR")
    if env_dir and "output_dir" not in texts:
        texts = {**texts, "output_dir": env_dir}
    return parse_config(raw, texts)


def _axis(keys: str, centre, span: float, n: int) -> np.ndarray:
    """n points across centre +- span/2, a row per centre of an array; a
    ConfigError naming keys, the config keys that draw it, unless every row
    holds two or more strictly increasing points (a span too small for its
    centre collapses them, and numpy refuses too many)."""
    try:
        axis = np.linspace(centre - span / 2.0, centre + span / 2.0, n,
                           axis=-1)
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}") from exc
    if axis.shape[-1] < 2 or not np.all(np.diff(axis) > 0):
        raise ConfigError(f"{keys}: the axis needs two or more points, "
                          "strictly increasing")
    return axis


def _grid_spec(cfg: RunConfig) -> fitting.GridSpec:
    g = cfg["grid"]
    ens, drive = cfg.ensemble(), cfg.drive()
    ws = _axis("ensemble.omega_s_ghz, grid.omega_s_span_mhz, grid.n_omega_s",
               ens.omega_s, g["omega_s_span_mhz"], g["n_omega_s"])
    wd = _axis("drive.omega_d_ghz, grid.omega_d_span_mhz, grid.n_omega_d",
               drive.omega_d, g["omega_d_span_mhz"], g["n_omega_d"])
    return fitting.GridSpec(omega_s_values=ws, omega_d_values=wd,
                            drive_power=drive.power)


def _default_noise_csv(name: str) -> Path:
    # imported here: no other command needs importlib.resources
    import importlib.resources
    return importlib.resources.files("rubymag") / "data" / name


def cmd_eigen(cfg: RunConfig, input_csv) -> list:
    s = cfg["sweep"]
    b_values = _axis("sweep.b_max_gauss, sweep.n_points",
                     s["b_max_gauss"] / 2.0, s["b_max_gauss"], s["n_points"])
    energies = energy_level_sweep(cfg.spin_system(),
                                  math.radians(s["theta_deg"]), b_values)
    return [("energy_levels.csv", render_energy_sweep_csv, b_values, energies)]


def cmd_crossing_sim(cfg: RunConfig, input_csv) -> list:
    spec = _grid_spec(cfg)
    grid = fitting.simulate_crossing(
        cfg.cavity(), cfg.ensemble(), cfg.nonideal(), spec,
        noise_sigma=cfg["grid"]["noise_sigma"],
        seed=_seed_int(cfg["run"]["master_seed"], "crossing-sim"))
    return [("crossing.csv", fitting.write_grid_csv, grid)]


def cmd_crossing_fit(cfg: RunConfig, input_csv) -> list:
    if input_csv is None:
        raise ConfigError("crossing-fit requires --input CSV")
    grid = fitting.read_grid_csv(input_csv, cfg.drive().power)
    result = fitting.fit_crossing(grid, cfg.cavity(), cfg.ensemble(),
                                  cfg.nonideal())
    return [("fit.json", render_json, fitting.fit_result_to_dict(result))]


def cmd_noise_predict(cfg: RunConfig, input_csv) -> list:
    n = cfg["noise"]
    phase_path = n["phase_noise_csv"] or _default_noise_csv("phase_noise.csv")
    amp_path = n["amplitude_noise_csv"] \
        or _default_noise_csv("amplitude_noise.csv")
    phase = iqnoise.read_spectrum_csv(phase_path)
    amp = iqnoise.read_spectrum_csv(amp_path)
    cav, ens, drive = cfg.cavity(), cfg.ensemble(), cfg.drive()
    pos = phase.offsets * _TWO_PI
    offsets = np.concatenate([-pos[::-1], [0.0], pos])
    # Gamma without non-idealities, n_cav pinned at the carrier
    gamma = gamma_prime(ens.omega_s, drive.omega_d + offsets, drive.omega_d,
                        cav.omega_c, ens.g_s, drive.power,
                        gamma_prime_params(cav, ens, NonIdealityParams()),
                        omega_n=drive.omega_d)
    predicted = iqnoise.predict_noise_psd(amp, phase, phase.offsets, gamma,
                                          p0=n["p0_v2_per_hz"])
    return [("predicted_noise.csv", iqnoise.render_spectrum_csv, predicted)]


def _sensitivity_budget(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray,
                                                  dict]:
    """The bias sweep's fields and complex voltages, and the sensitivity
    budget drawn from its slope."""
    s = cfg["sweep"]
    n = cfg["noise"]
    b_values = _axis("sweep.bias_b_gauss, sweep.b_span_gauss, sweep.n_points",
                     s["bias_b_gauss"], s["b_span_gauss"], s["n_points"])
    v = mag.bias_sweep_trace(cfg.spin_system(), cfg.cavity(), cfg.ensemble(),
                             cfg.nonideal(), cfg.drive(), b_values,
                             chain_gain_db=s["chain_gain_db"])
    _, m_max = mag.dispersive_slope(b_values, v.imag)
    e_n = s["noise_floor_nv_per_rthz"]
    b_test = s["test_amplitude_nt"]
    v_m = m_max * b_test
    e_th = n["e_th_nv_per_rthz"]
    budget = {
        "m_max_v_per_t": m_max,
        "v_m_v": v_m,
        "eta_t_per_rthz": mag.sensitivity(e_n, v_m, b_test),
        "eta_th_t_per_rthz": mag.thermal_limit(s["chain_gain_db"],
                                               cfg.temperature(), m_max),
        "e_th_v_per_rthz": e_th,
    }
    if e_n >= e_th:
        # e_p = 0 puts no bound on the source; strict JSON spells that null
        budget["e_p_v_per_rthz"], budget["phi_required_dbc_per_hz"] = \
            mag.phase_noise_budget(e_n, e_th, n["phi_measured_dbc_per_hz"],
                                   n["ell_db"])
    return b_values, v, budget


def cmd_sensitivity(cfg: RunConfig, input_csv) -> list:
    b_values, v, budget = _sensitivity_budget(cfg)
    return [("sweep.csv", mag.render_sweep_csv, b_values, v),
            ("sensitivity.json", render_json, budget)]


def cmd_optimize(cfg: RunConfig, input_csv) -> list:
    s = cfg["sweep"]
    keys = "sweep.bias_b_gauss, sweep.b_span_gauss"
    b_values = _axis(keys, s["bias_b_gauss"], s["b_span_gauss"], 9)
    # a 21-point sweep around each bias, at each power, read at its centre:
    # only the centre five points, that point's slope window, are evaluated
    axes = _axis(keys, b_values, s["b_span_gauss"] / 4.0, 21)[:, 8:13]
    e_n_ref = s["noise_floor_nv_per_rthz"]
    sys_, cav, ens, ni, drive_ref = (cfg.spin_system(), cfg.cavity(),
                                     cfg.ensemble(), cfg.nonideal(),
                                     cfg.drive())
    p_ref = drive_ref.power
    p_values_dbm = np.linspace(watts_to_dbm(p_ref) - 6.0,
                               watts_to_dbm(p_ref) + 6.0, 9)
    powers = np.array([dbm_to_watts(float(p_dbm)) for p_dbm in p_values_dbm])
    v = np.stack([mag.bias_sweep_trace(
        sys_, cav, ens, ni, replace(drive_ref, power=power), axes,
        s["chain_gain_db"]).imag for power in powers], axis=1)
    slopes = np.abs(mag.dispersive_slope(axes[:, None], v)[0][..., 2])
    if np.any(slopes <= 0):
        raise ZeroSignal("the dispersive slope is 0 at some bias and power")
    eta = e_n_ref * np.sqrt(powers / p_ref) / slopes
    eta_mag, eta_mw, arg_p, arg_b = mag.optimize_grid(eta)
    summary = {
        "b_gauss": (b_values * 1e4).tolist(),
        "p_dbm": p_values_dbm.tolist(),
        "eta_mag_t_per_rthz": eta_mag.tolist(),
        "eta_mw_t_per_rthz": eta_mw.tolist(),
        "best_p_dbm_per_bias": [float(p_values_dbm[k]) for k in arg_p],
        "best_b_gauss_per_power": [float(b_values[k] * 1e4) for k in arg_b],
    }
    return [("eta_table.csv", mag.render_eta_table_csv, b_values, p_values_dbm,
             eta),
            ("optimize.json", render_json, summary)]


def cmd_calibrate(cfg: RunConfig, input_csv) -> list:
    coil = cfg.coil()
    current = cfg["calibration"]["current_ma"]
    b_solenoid = cal.solenoid_axial_field(coil, current)
    summary = {"b_solenoid_t": b_solenoid,
               "current_a": current}
    if input_csv is not None:
        currents, fields = cal.read_calibration_csv(input_csv)
        line = cal.linear_calibration(currents, fields)
        summary["slope_t_per_a"] = line.slope
        summary["intercept_t"] = line.intercept
        # equal fields leave r^2 undefined, which strict JSON spells null
        summary["r_squared"] = (None if math.isnan(line.r_squared)
                                else line.r_squared)
    return [("calibrate.json", render_json, summary)]


# the keys of the sensitivity budget that report.json repeats
_REPORT_BUDGET_KEYS = ("m_max_v_per_t", "eta_t_per_rthz", "eta_th_t_per_rthz",
                       "phi_required_dbc_per_hz")


def cmd_report(cfg: RunConfig, input_csv) -> list:
    sys_, matp = cfg.spin_system(), cfg.material()
    cav, ens, drive = cfg.cavity(), cfg.ensemble(), cfg.drive()
    populations = thermal.boltzmann_populations(sys_, cfg.temperature())
    t1, t2 = fitting.relaxation_times(ens)
    *_, budget = _sensitivity_budget(cfg)
    summary = {
        "populations": list(populations),
        "polarization": thermal.polarization(populations),
        "n_total_spins": thermal.total_interrogated_spins(matp),
        "n_polarized_spins": thermal.polarized_spin_count(matp, populations),
        "g_eff_rad_per_s": ens.g_eff,
        "cooperativity_xi": cooperativity(ens, cav),
        "t1_s": t1,
        "t2_s": t2,
        "kappa_th_threshold_dbm": watts_to_dbm(kappa_th_threshold_power(
            t1, t2, ens.g_s, drive.omega_d, cav.kappa_c)),
    }
    summary.update((key, budget[key]) for key in _REPORT_BUDGET_KEYS
                   if key in budget)
    return [("report.json", render_json, summary)]


_DISPATCH = {
    "eigen": cmd_eigen,
    "crossing-sim": cmd_crossing_sim,
    "crossing-fit": cmd_crossing_fit,
    "noise-predict": cmd_noise_predict,
    "sensitivity": cmd_sensitivity,
    "optimize": cmd_optimize,
    "calibrate": cmd_calibrate,
    "report": cmd_report,
}


def _fail(name: str, exc: BaseException, code: int) -> int:
    """Print exc as one ERROR line, whatever line breaks its message holds."""
    message = " ".join(str(exc).splitlines())
    print(f"ERROR {name}: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        command, texts = _read_argv(argv)
        if command is None:
            print(_usage())
            return 0
        input_csv = texts.pop("input", None)
        cfg = _load_config(texts.pop("config", None), texts)
        # a float overflow or an invalid operation fails the command as a
        # FloatingPointError instead of printing numpy's RuntimeWarning
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            outputs = _DISPATCH[command](cfg, input_csv)
            out = Path(cfg["run"]["output_dir"])
            files = {out / f: render(out / f, *a) for f, render, *a in outputs}
        out.mkdir(parents=True, exist_ok=True)
        for path, text in files.items():
            path.write_text(text, newline="")
        print(path)
        return 0
    except ConfigError as exc:
        return _fail(type(exc).__name__, exc, 2)
    except (RubymagError, ValueError, ArithmeticError) as exc:
        return _fail(type(exc).__name__, exc, 1)
    except MemoryError as exc:   # numpy raises its subclass _ArrayMemoryError
        return _fail("MemoryError", exc, 1)
    except OSError as exc:
        return _fail("IOError", exc, 1)


def run() -> None:
    """Process entry point: main(), then flush and end without teardown.

    Tearing the interpreter down (module cleanup, garbage collection, atexit
    hooks) is most of what a short command spends after its work is done,
    so the process ends with os._exit once stdout and stderr are flushed.
    A failed flush (a closed pipe) is one ERROR IOError line and exit 1.
    An exception escaping main() takes the normal exit path and its
    traceback.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        code = _fail("IOError", exc, 1)   # stderr is line-buffered
    os._exit(code)


if __name__ == "__main__":
    run()
