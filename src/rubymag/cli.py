"""Command-line entry point.

Subcommands: eigen, crossing-sim, crossing-fit, noise-predict, sensitivity,
optimize, calibrate, report.  Configuration comes from an optional JSON file
(--config) with per-key flag overrides generated one-for-one from the config
schema (--kappa-s-mhz 42 overrides ensemble.kappa_s_mhz).  Exit codes: 0 on
success, 2 on configuration/validation errors, 1 on runtime errors (any
ValueError or ArithmeticError a command raises included); errors print one
machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import importlib.resources
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
from .cavity import (NonIdealityParams, check_drive, cooperativity,
                     dbm_to_watts, gamma_prime, gamma_prime_params,
                     kappa_th_threshold_power, watts_to_dbm)
from .config import (FLAT_KEYS, RunConfig, apply_overrides, flag_name,
                     parse_config)
from .csvio import write_json
from .errors import ConfigError, ParseError, RubymagError
from .spins import energy_level_sweep, write_energy_sweep_csv

_TWO_PI = 2.0 * math.pi

COMMANDS = ("eigen", "crossing-sim", "crossing-fit", "noise-predict",
            "sensitivity", "optimize", "calibrate", "report")


def split_seed(master_seed: int, label: str) -> np.random.SeedSequence:
    """Deterministic per-task stream: (master seed, CRC32 of the label)."""
    return np.random.SeedSequence([master_seed, zlib.crc32(label.encode())])


def _seed_int(master_seed: int, label: str) -> int:
    return int(split_seed(master_seed, label).generate_state(1)[0])


def _build_parser() -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", type=Path, default=None,
                       help="JSON configuration file")
    for key in FLAT_KEYS:
        flags.add_argument(flag_name(key), dest=key, default=None,
                           metavar="VALUE")
    parser = argparse.ArgumentParser(prog="rubymag")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, parents=[flags])
        if name in ("crossing-fit", "calibrate"):
            p.add_argument("--input", type=Path, default=None,
                           help="input CSV produced by a previous step")
    return parser


def _attach_negative_values(argv: list) -> list:
    """Spell '--flag -1.2e-08' as '--flag=-1.2e-08'.

    argparse reads any token that starts with '-' and is not a plain decimal
    as an option, so a negative value in exponent form would never reach its
    flag.
    """
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and token.startswith("-") and _is_number(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _load_config(args) -> RunConfig:
    raw = {}
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.config}: {exc}") from exc
        try:
            raw = json.loads(text) if text.strip() else {}
        except json.JSONDecodeError as exc:
            raise ParseError(f"{args.config}: line {exc.lineno} column "
                             f"{exc.colno}: {exc.msg}") from exc
        if not isinstance(raw, dict):
            raise ParseError(f"{args.config}: top-level JSON value must be "
                             "an object")
    overrides = {}
    for key, block in FLAT_KEYS.items():
        value = getattr(args, key, None)
        if value is not None:
            try:
                parsed = json.loads(value)
            except json.JSONDecodeError:
                parsed = value
            overrides[(block, key)] = parsed
    env_dir = os.environ.get("RUBYMAG_OUTDIR")
    if env_dir and ("run", "output_dir") not in overrides:
        overrides[("run", "output_dir")] = env_dir
    return parse_config(apply_overrides(raw, overrides))


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg["run"]["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _grid_spec(cfg: RunConfig) -> fitting.GridSpec:
    g = cfg["grid"]
    ens = cfg.ensemble()
    drive = cfg.drive()
    try:
        ws = np.linspace(ens.omega_s - g["omega_s_span_mhz"] / 2.0,
                         ens.omega_s + g["omega_s_span_mhz"] / 2.0,
                         g["n_omega_s"])
        wd = np.linspace(drive.omega_d - g["omega_d_span_mhz"] / 2.0,
                         drive.omega_d + g["omega_d_span_mhz"] / 2.0,
                         g["n_omega_d"])
        return fitting.GridSpec(omega_s_values=ws, omega_d_values=wd,
                                drive_power=drive.power)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _default_noise_csv(name: str) -> Path:
    return importlib.resources.files("rubymag") / "data" / name


def cmd_eigen(cfg: RunConfig, args) -> int:
    s = cfg["sweep"]
    b_values, energies = energy_level_sweep(
        cfg.spin_system(), math.radians(s["theta_deg"]),
        (0.0, s["b_max_gauss"]), s["n_points"])
    path = _outdir(cfg) / "energy_levels.csv"
    write_energy_sweep_csv(path, b_values, energies)
    print(path)
    return 0


def cmd_crossing_sim(cfg: RunConfig, args) -> int:
    spec = _grid_spec(cfg)
    grid = fitting.simulate_crossing(
        cfg.cavity(), cfg.ensemble(), cfg.nonideal(), spec,
        noise_sigma=cfg["grid"]["noise_sigma"],
        seed=_seed_int(cfg["run"]["master_seed"], "crossing-sim"))
    path = _outdir(cfg) / "crossing.csv"
    fitting.write_grid_csv(path, grid)
    print(path)
    return 0


def cmd_crossing_fit(cfg: RunConfig, args) -> int:
    if args.input is None:
        raise ConfigError("crossing-fit requires --input CSV")
    grid = fitting.read_grid_csv(args.input, cfg.drive().power)
    result = fitting.fit_crossing(grid, cfg.cavity(), cfg.ensemble(),
                                  cfg.nonideal())
    path = _outdir(cfg) / "fit.json"
    write_json(path, fitting.fit_result_to_dict(result))
    print(path)
    return 0


def cmd_noise_predict(cfg: RunConfig, args) -> int:
    n = cfg["noise"]
    phase_path = n["phase_noise_csv"] or _default_noise_csv("phase_noise.csv")
    amp_path = n["amplitude_noise_csv"] \
        or _default_noise_csv("amplitude_noise.csv")
    phase = iqnoise.read_spectrum_csv(phase_path)
    amp = iqnoise.read_spectrum_csv(amp_path)
    cav, ens, drive = cfg.cavity(), cfg.ensemble(), cfg.drive()
    pos = phase.offsets * _TWO_PI
    offsets = np.concatenate([-pos[::-1], [0.0], pos])
    check_drive(cav, ens, drive)
    # Gamma without non-idealities, n_cav pinned at the carrier
    gamma = gamma_prime(ens.omega_s, drive.omega_d + offsets, drive.omega_d,
                        cav.omega_c, ens.g_s, drive.power,
                        gamma_prime_params(cav, ens, NonIdealityParams()),
                        omega_n=drive.omega_d)
    sampled = iqnoise.SampledGamma(offsets=offsets, values=gamma)
    predicted = iqnoise.predict_noise_psd(amp, phase, sampled,
                                          p0=n["p0_v2_per_hz"])
    path = _outdir(cfg) / "predicted_noise.csv"
    iqnoise.write_spectrum_csv(path, predicted)
    print(path)
    return 0


def _sensitivity_budget(cfg: RunConfig) -> tuple[mag.SweepTrace, dict]:
    """The bias sweep and the sensitivity budget drawn from its slope."""
    s = cfg["sweep"]
    n = cfg["noise"]
    b_values = np.linspace(s["bias_b_gauss"] - s["b_span_gauss"] / 2.0,
                           s["bias_b_gauss"] + s["b_span_gauss"] / 2.0,
                           s["n_points"])
    trace = mag.bias_sweep_trace(cfg.spin_system(), cfg.cavity(),
                                 cfg.ensemble(), cfg.nonideal(), cfg.drive(),
                                 b_values, chain_gain_db=s["chain_gain_db"])
    _, m_max = mag.dispersive_slope(trace)
    scfg = mag.SensitivityConfig(G_db=s["chain_gain_db"],
                                 T=cfg.temperature(),
                                 ell_db=n["ell_db"])
    e_n = s["noise_floor_nv_per_rthz"]
    b_test = s["test_amplitude_nt"]
    v_m = m_max * b_test
    e_th = n["e_th_nv_per_rthz"]
    budget = {
        "m_max_v_per_t": m_max,
        "v_m_v": v_m,
        "eta_t_per_rthz": mag.sensitivity(e_n, v_m, b_test),
        "eta_th_t_per_rthz": mag.thermal_limit(scfg, m_max),
        "e_th_v_per_rthz": e_th,
    }
    if e_n >= e_th:
        phase = mag.phase_noise_budget(e_n, e_th,
                                       n["phi_measured_dbc_per_hz"], scfg)
        budget["e_p_v_per_rthz"] = phase.e_p
        # e_p = 0 puts no bound on the source; strict JSON spells that null
        budget["phi_required_dbc_per_hz"] = (None if phase.unbounded
                                             else phase.phi_required_dbc)
    return trace, budget


def cmd_sensitivity(cfg: RunConfig, args) -> int:
    trace, budget = _sensitivity_budget(cfg)
    out = _outdir(cfg)
    mag.write_sweep_csv(out / "sweep.csv", trace)
    path = out / "sensitivity.json"
    write_json(path, budget)
    print(path)
    return 0


def cmd_optimize(cfg: RunConfig, args) -> int:
    s = cfg["sweep"]
    e_n_ref = s["noise_floor_nv_per_rthz"]
    sys_, cav, ens, ni, drive_ref = (cfg.spin_system(), cfg.cavity(),
                                     cfg.ensemble(), cfg.nonideal(),
                                     cfg.drive())
    p_ref = drive_ref.power
    b_values = np.linspace(s["bias_b_gauss"] - s["b_span_gauss"] / 2.0,
                           s["bias_b_gauss"] + s["b_span_gauss"] / 2.0, 9)
    p_values_dbm = np.linspace(watts_to_dbm(p_ref) - 6.0,
                               watts_to_dbm(p_ref) + 6.0, 9)
    eta = np.empty((b_values.size, p_values_dbm.size))
    sweep_half = s["b_span_gauss"] / 8.0
    for j, p_dbm in enumerate(p_values_dbm):
        drive = replace(drive_ref, power=dbm_to_watts(float(p_dbm)))
        e_n = e_n_ref * math.sqrt(drive.power / p_ref)
        for i, b0 in enumerate(b_values):
            grid = np.linspace(b0 - sweep_half, b0 + sweep_half, 21)
            trace = mag.bias_sweep_trace(sys_, cav, ens, ni, drive, grid,
                                         chain_gain_db=s["chain_gain_db"])
            slopes, _ = mag.dispersive_slope(trace)
            m_here = abs(slopes[slopes.size // 2])
            eta[i, j] = e_n / m_here if m_here > 0 else math.inf
    eta_mag, eta_mw, arg_p, arg_b = mag.optimize_grid(eta)
    out = _outdir(cfg)
    mag.write_eta_table_csv(out / "eta_table.csv", b_values, p_values_dbm, eta)
    summary = {
        "b_gauss": (b_values * 1e4).tolist(),
        "p_dbm": p_values_dbm.tolist(),
        "eta_mag_t_per_rthz": eta_mag.tolist(),
        "eta_mw_t_per_rthz": eta_mw.tolist(),
        "best_p_dbm_per_bias": [float(p_values_dbm[k]) for k in arg_p],
        "best_b_gauss_per_power": [float(b_values[k] * 1e4) for k in arg_b],
    }
    path = out / "optimize.json"
    write_json(path, summary)
    print(path)
    return 0


def cmd_calibrate(cfg: RunConfig, args) -> int:
    coil = cfg.coil()
    current = cfg["calibration"]["current_ma"]
    b_solenoid = cal.solenoid_axial_field(coil, current)
    summary = {"b_solenoid_t": b_solenoid,
               "current_a": current}
    if args.input is not None:
        currents, fields = cal.read_calibration_csv(args.input)
        line = cal.linear_calibration(currents, fields)
        summary["slope_t_per_a"] = line.slope
        summary["intercept_t"] = line.intercept
        summary["r_squared"] = line.r_squared
    path = _outdir(cfg) / "calibrate.json"
    write_json(path, summary)
    print(path)
    return 0


# the keys of the sensitivity budget that report.json repeats
_REPORT_BUDGET_KEYS = ("m_max_v_per_t", "eta_t_per_rthz", "eta_th_t_per_rthz",
                       "phi_required_dbc_per_hz")


def cmd_report(cfg: RunConfig, args) -> int:
    sys_, matp = cfg.spin_system(), cfg.material()
    cav, ens, drive = cfg.cavity(), cfg.ensemble(), cfg.drive()
    state = thermal.boltzmann_populations(sys_, cfg.temperature())
    t1, t2 = fitting.relaxation_times(ens)
    _, budget = _sensitivity_budget(cfg)
    summary = {
        "populations": list(state.populations),
        "polarization": state.polarization,
        "n_total_spins": thermal.total_interrogated_spins(matp),
        "n_polarized_spins": thermal.polarized_spin_count(matp, state),
        "g_eff_rad_per_s": ens.g_eff,
        "cooperativity_xi": cooperativity(ens, cav),
        "t1_s": t1,
        "t2_s": t2,
        "kappa_th_threshold_dbm": watts_to_dbm(kappa_th_threshold_power(
            t1, t2, ens.g_s, drive.omega_d, cav.kappa_c)),
    }
    summary.update((key, budget[key]) for key in _REPORT_BUDGET_KEYS
                   if key in budget)
    path = _outdir(cfg) / "report.json"
    write_json(path, summary)
    print(path)
    return 0


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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_attach_negative_values(argv))
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ERROR ConfigError: {exc}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[args.command](cfg, args)
    except ConfigError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (RubymagError, ValueError, ArithmeticError) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR IOError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
