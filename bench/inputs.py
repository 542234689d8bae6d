"""Seeded inputs: rubymag configs and CSVs, plus the SI truth behind them.

rubymag only ever receives the files written here.  Every value goes through a
``--config`` JSON file, never a command-line flag: argparse reads a negative
number in exponent form as an option, so ``crossing-sim --tau-s -1.2e-08``
fails with "expected one argument" (a CLI defect left for a later change).

Each generated config spells out every key the checks depend on, so the
reference side (``si_params``) needs no knowledge of rubymag's defaults.
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi

# rubymag's documented defaults, in config units
BASE = {
    "spin": {"d_ghz": -5.745, "g_par": 2.0, "g_perp": 2.0},
    "material": {"v_cav_mm3": 52.2, "v_cell_nm3": 0.2548, "alpha_cr": 0.0005,
                 "m_al2o3_g_per_mol": 101.96, "m_cr2o3_g_per_mol": 151.99,
                 "n_cell": 12, "zeta": 0.69, "temperature_k": 293.0},
    "cavity": {"omega_c_ghz": 11.4, "kappa_c0_khz": 330.0,
               "kappa_c1_khz": 330.0},
    "ensemble": {"g_s_hz": None, "n_spins": None, "kappa_s_mhz": 42.0,
                 "kappa_th_khz": 120.0, "omega_s_ghz": 11.4},
    "drive": {"omega_d_ghz": 11.4, "power_dbm": 11.0},
    "nonideal": {"o_r": 0.0, "o_i": 0.0, "amplitude_a": 0.0,
                 "slope_b_per_hz": 0.0, "psi_rad": 0.0, "tau_s": 0.0,
                 "omega_s_off_mhz": 0.0, "omega_d_off_mhz": 0.0},
    "grid": {"omega_s_span_mhz": 100.0, "omega_d_span_mhz": 10.0,
             "n_omega_s": 50, "n_omega_d": 50, "noise_sigma": 0.0},
    "sweep": {"bias_b_gauss": 31.0, "b_span_gauss": 4.0, "n_points": 201,
              "theta_deg": 0.0, "b_max_gauss": 2000.0, "chain_gain_db": 21.0,
              "test_amplitude_nt": 242.0, "noise_floor_nv_per_rthz": 26.0},
    "noise": {"p0_v2_per_hz": 0.0, "e_th_nv_per_rthz": 13.0,
              "phi_measured_dbc_per_hz": -129.5, "ell_db": -6.0},
    "calibration": {"n_turns": 8, "coil_radius_mm": 15.68,
                    "coil_distance_mm": 30.0, "current_ma": 6.9},
    "run": {"master_seed": 0, "output_dir": "."},
}

# acceptance criterion 13's non-idealities, in config units
CRITERION_13_NONIDEAL = {
    "o_r": -0.008, "o_i": 0.12, "amplitude_a": 0.003,
    "slope_b_per_hz": 1e-9 * TWO_PI, "psi_rad": 0.14, "tau_s": -1.2e-8,
    "omega_s_off_mhz": -7.3e6 / TWO_PI / 1e6,
    "omega_d_off_mhz": -5.6e5 / TWO_PI / 1e6,
}

# the five physical parameters a fit recovers, with their relative tolerances
# (criterion 13's noisy-data tolerances; kappa_c0 shares kappa_c1's)
FIT_TOLERANCE = {"kappa_c0": 0.10, "kappa_c1": 0.10, "kappa_s": 0.10,
                 "kappa_th": 0.30, "g_eff": 0.10}


def si_params(raw: dict) -> dict:
    """Flat SI view of a full config, for ``reference``."""
    s, m, c, e = raw["spin"], raw["material"], raw["cavity"], raw["ensemble"]
    d, n, g, w = raw["drive"], raw["nonideal"], raw["grid"], raw["sweep"]
    nz, cal = raw["noise"], raw["calibration"]
    mhz, khz, ghz = TWO_PI * 1e6, TWO_PI * 1e3, TWO_PI * 1e9
    return {
        "D": s["d_ghz"] * ghz, "g_par": s["g_par"], "g_perp": s["g_perp"],
        "V_cav": m["v_cav_mm3"] * 1e-9, "V_cell": m["v_cell_nm3"] * 1e-27,
        "alpha": m["alpha_cr"], "m_al2o3": m["m_al2o3_g_per_mol"],
        "m_cr2o3": m["m_cr2o3_g_per_mol"], "n_cell": m["n_cell"],
        "T": m["temperature_k"],
        "omega_c": c["omega_c_ghz"] * ghz, "kappa_c0": c["kappa_c0_khz"] * khz,
        "kappa_c1": c["kappa_c1_khz"] * khz,
        "g_s": None if e["g_s_hz"] is None else e["g_s_hz"] * TWO_PI,
        "N": e["n_spins"], "kappa_s": e["kappa_s_mhz"] * mhz,
        "kappa_th": e["kappa_th_khz"] * khz, "omega_s": e["omega_s_ghz"] * ghz,
        "omega_d": d["omega_d_ghz"] * ghz,
        "power": 10.0 ** (d["power_dbm"] / 10.0) * 1e-3,
        "o_r": n["o_r"], "o_i": n["o_i"], "A": n["amplitude_a"],
        "b": n["slope_b_per_hz"] / TWO_PI, "psi": n["psi_rad"],
        "tau": n["tau_s"], "omega_s_off": n["omega_s_off_mhz"] * mhz,
        "omega_d_off": n["omega_d_off_mhz"] * mhz,
        "omega_s_span": g["omega_s_span_mhz"] * mhz,
        "omega_d_span": g["omega_d_span_mhz"] * mhz,
        "n_omega_s": g["n_omega_s"], "n_omega_d": g["n_omega_d"],
        "noise_sigma": g["noise_sigma"],
        "bias_b": w["bias_b_gauss"] * 1e-4, "b_span": w["b_span_gauss"] * 1e-4,
        "n_points": w["n_points"], "theta": math.radians(w["theta_deg"]),
        "b_max": w["b_max_gauss"] * 1e-4, "chain_gain_db": w["chain_gain_db"],
        "b_test": w["test_amplitude_nt"] * 1e-9,
        "e_n": w["noise_floor_nv_per_rthz"] * 1e-9,
        "p0": nz["p0_v2_per_hz"], "e_th": nz["e_th_nv_per_rthz"] * 1e-9,
        "phi_measured": nz["phi_measured_dbc_per_hz"], "ell_db": nz["ell_db"],
        "n_turns": cal["n_turns"], "coil_radius": cal["coil_radius_mm"] * 1e-3,
        "coil_distance": cal["coil_distance_mm"] * 1e-3,
        "current": cal["current_ma"] * 1e-3,
    }


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def fit_inputs() -> dict:
    """Truth config for ``crossing-sim`` and guess config for ``crossing-fit``.

    The truth scales the five rates around the defaults by factors drawn once
    from U(0.8, 1.2), takes criterion 13's non-idealities and adds noise of
    sigma 0.01 (master seed 0).  The guess is the default config.

    These inputs do not depend on the workload seed.  Nelder-Mead's path, and
    so its evaluation count, changes with any change of the data: on the
    reference machine fits took 22-45 s over truths drawn per seed, and 24 s
    and 35 s over two noise seeds of this truth.  No run-to-run bound could
    hold across seeds, so the benchmark pins the data and a change of fit
    time is the code's.
    """
    from reference import ensemble

    truth = copy.deepcopy(BASE)
    scale = dict(zip(("kappa_c0", "kappa_c1", "kappa_s", "kappa_th", "g_eff"),
                     np.random.default_rng(0).uniform(0.8, 1.2, 5)))
    truth["cavity"]["kappa_c0_khz"] *= scale["kappa_c0"]
    truth["cavity"]["kappa_c1_khz"] *= scale["kappa_c1"]
    truth["ensemble"]["kappa_s_mhz"] *= scale["kappa_s"]
    truth["ensemble"]["kappa_th_khz"] *= scale["kappa_th"]
    _, n_default = ensemble(si_params(BASE))
    truth["ensemble"]["n_spins"] = n_default * scale["g_eff"] ** 2
    truth["nonideal"] = dict(CRITERION_13_NONIDEAL)
    truth["grid"]["noise_sigma"] = 0.01
    guess = {"run": {"master_seed": 0, "output_dir": "."}}
    p = si_params(truth)
    g_s, n = ensemble(p)
    expected = {"kappa_c0": p["kappa_c0"], "kappa_c1": p["kappa_c1"],
                "kappa_s": p["kappa_s"], "kappa_th": p["kappa_th"],
                "g_eff": g_s * math.sqrt(n)}
    # L1 norm of the noise alone: 2 n sigma sqrt(2/pi) over n complex points
    points = truth["grid"]["n_omega_s"] * truth["grid"]["n_omega_d"]
    noise_l1 = 2.0 * points * 0.01 * math.sqrt(2.0 / math.pi)
    return {"truth": truth, "guess": guess, "expected": expected,
            "noise_l1": noise_l1}


def cli_inputs(seed: int) -> dict:
    """One config shared by the seven ``cli`` commands, plus calibration data.

    Rates, drive and bias move a few per cent around the defaults, the eigen
    sweep angle is drawn in 10-60 degrees, and the calibration CSV holds 12
    noisy (current, field) points on a line.
    """
    rng = _rng(seed, "cli")
    raw = copy.deepcopy(BASE)
    for block, key in (("cavity", "kappa_c0_khz"), ("cavity", "kappa_c1_khz"),
                       ("ensemble", "kappa_s_mhz"),
                       ("ensemble", "kappa_th_khz")):
        raw[block][key] *= rng.uniform(0.9, 1.1)
    raw["nonideal"] = {k: v * rng.uniform(0.5, 1.0)
                       for k, v in CRITERION_13_NONIDEAL.items()}
    raw["drive"]["power_dbm"] = 11.0 + rng.uniform(-1.0, 1.0)
    raw["sweep"]["bias_b_gauss"] = 31.0 + rng.uniform(-0.5, 0.5)
    raw["sweep"]["theta_deg"] = rng.uniform(10.0, 60.0)
    raw["grid"]["noise_sigma"] = rng.uniform(0.005, 0.02)
    raw["calibration"]["current_ma"] = rng.uniform(5.0, 9.0)
    raw["run"]["master_seed"] = seed
    currents = np.linspace(0.0, 0.01, 12)
    fields = 2.1e-5 * rng.uniform(0.9, 1.1) * currents \
        + 1e-9 * rng.standard_normal(currents.size)
    return {"config": raw, "currents": currents, "fields": fields}


def write_json(path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, allow_nan=False) + "\n")


def write_calibration_csv(path, currents, fields) -> None:
    lines = ["current_a,field_t"]
    lines += [f"{float(i)!r},{float(b)!r}" for i, b in zip(currents, fields)]
    path.write_text("\n".join(lines) + "\n")
