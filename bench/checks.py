"""Output checks.  Each returns a list of problems; an empty list is a pass.

JSON outputs are parsed strictly (``NaN`` and ``Infinity`` rejected) and CSV
numbers must be finite.  ``cli`` outputs are compared with ``reference``,
computed independently from the same seeded inputs; ``fit`` outputs with the
seeded truth.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

RTOL = 1e-6


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def read_csv(path: Path, numeric: int | None = None) -> tuple[list, np.ndarray]:
    """(header, float rows of the first ``numeric`` columns); all finite."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    k = numeric if numeric is not None else len(header)
    data = np.array([[float(v) for v in r[:k]] for r in body], dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path.name}: non-finite value")
    return header, data


def _close(problems: list, what: str, got, want, rtol=RTOL, atol=0.0):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{what}: shape {got.shape} != {want.shape}")
    elif not np.allclose(got, want, rtol=rtol, atol=atol):
        err = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300))
        problems.append(f"{what}: max relative error {err:.3g}")


# --- cli -------------------------------------------------------------------

def check_report(out: Path, p: dict) -> list:
    r, problems = strict_json(out / "report.json"), []
    pop = ref.populations(p)
    g_s, n = ref.ensemble(p)
    g_eff = g_s * math.sqrt(n)
    kc = p["kappa_c0"] + p["kappa_c1"]
    m = ref.m_max(p)
    threshold_w = (p["kappa_s"] * p["kappa_th"] / (2.0 * g_s ** 2)) \
        * ref.HBAR * p["omega_d"] * kc
    _close(problems, "populations", r["populations"], pop, rtol=1e-9)
    _close(problems, "polarization", r["polarization"], abs(pop[0] - pop[2]))
    _close(problems, "n_total_spins", r["n_total_spins"], ref.n_total(p))
    _close(problems, "n_polarized_spins", r["n_polarized_spins"], n)
    _close(problems, "g_eff", r["g_eff_rad_per_s"], g_eff)
    _close(problems, "cooperativity", r["cooperativity_xi"],
           4.0 * g_eff ** 2 / (p["kappa_s"] * kc))
    _close(problems, "t1", r["t1_s"], 1.0 / p["kappa_th"])
    _close(problems, "t2", r["t2_s"], 2.0 / p["kappa_s"])
    _close(problems, "threshold", r["kappa_th_threshold_dbm"],
           10.0 * math.log10(threshold_w / 1e-3))
    _close(problems, "m_max", r["m_max_v_per_t"], m)
    _close(problems, "eta", r["eta_t_per_rthz"], p["e_n"] / m)
    _close(problems, "eta_th", r["eta_th_t_per_rthz"], ref.thermal_limit(p, m))
    _close(problems, "phi_required", r["phi_required_dbc_per_hz"],
           ref.phase_budget(p)[1])
    return problems


def check_eigen(out: Path, p: dict) -> list:
    _, data = read_csv(out / "energy_levels.csv")
    problems = []
    b = np.linspace(0.0, p["b_max"], p["n_points"])
    _close(problems, "B_gauss", data[:, 0], b * 1e4, atol=1e-9)
    want = ref.sorted_levels(p, b, p["theta"]) / ref.TWO_PI
    scale = np.max(np.abs(want))
    _close(problems, "levels", np.sort(data[:, 1:], axis=1), want,
           rtol=0.0, atol=1e-9 * scale)
    return problems


def check_crossing(out: Path, p: dict, master_seed: int) -> list:
    _, data = read_csv(out / "crossing.csv")
    ws, wd, values = ref.crossing_grid(p, master_seed)
    problems = []
    _close(problems, "omega_s", data[:, 0], np.repeat(ws, wd.size) / ref.TWO_PI)
    _close(problems, "omega_d", data[:, 1], np.tile(wd, ws.size) / ref.TWO_PI)
    _close(problems, "re", data[:, 2], values.real.ravel(), rtol=0, atol=1e-9)
    _close(problems, "im", data[:, 3], values.imag.ravel(), rtol=0, atol=1e-9)
    return problems


def check_noise(out: Path, p: dict, data_dir: Path) -> list:
    header, data = read_csv(out / "predicted_noise.csv", numeric=2)
    offsets, want = ref.predicted_noise(p, data_dir / "phase_noise.csv",
                                        data_dir / "amplitude_noise.csv")
    problems = []
    _close(problems, "offsets", data[:, 0], offsets)
    _close(problems, "density", data[:, 1], want)
    return problems


def check_sensitivity(out: Path, p: dict) -> list:
    s, problems = strict_json(out / "sensitivity.json"), []
    m = ref.m_max(p)
    e_p, phi = ref.phase_budget(p)
    _close(problems, "m_max", s["m_max_v_per_t"], m)
    _close(problems, "v_m", s["v_m_v"], m * p["b_test"])
    _close(problems, "eta", s["eta_t_per_rthz"], p["e_n"] / m)
    _close(problems, "eta_th", s["eta_th_t_per_rthz"], ref.thermal_limit(p, m))
    _close(problems, "e_th", s["e_th_v_per_rthz"], p["e_th"])
    _close(problems, "e_p", s["e_p_v_per_rthz"], e_p)
    _close(problems, "phi_required", s["phi_required_dbc_per_hz"], phi)
    _, trace = read_csv(out / "sweep.csv")
    b = ref.bias_grid(p, p["n_points"], p["b_span"])
    v = ref.bias_trace(p, b, p["power"])
    _close(problems, "sweep b", trace[:, 0], b)
    _close(problems, "sweep absorptive", trace[:, 1], v.real)
    _close(problems, "sweep dispersive", trace[:, 2], v.imag)
    return problems


def check_optimize(out: Path, p: dict) -> list:
    o, problems = strict_json(out / "optimize.json"), []
    b, p_dbm, eta = ref.eta_table(p)
    _close(problems, "b_gauss", o["b_gauss"], b * 1e4)
    _close(problems, "p_dbm", o["p_dbm"], p_dbm)
    _close(problems, "eta_mag", o["eta_mag_t_per_rthz"], eta.min(axis=1))
    _close(problems, "eta_mw", o["eta_mw_t_per_rthz"], eta.min(axis=0))
    # the chosen optimum must reach the reference minimum (robust to ties)
    best_p = [int(np.argmin(np.abs(p_dbm - v))) for v in o["best_p_dbm_per_bias"]]
    best_b = [int(np.argmin(np.abs(b * 1e4 - v)))
              for v in o["best_b_gauss_per_power"]]
    _close(problems, "best power", eta[np.arange(9), best_p], eta.min(axis=1))
    _close(problems, "best bias", eta[best_b, np.arange(9)], eta.min(axis=0))
    _, table = read_csv(out / "eta_table.csv")
    _close(problems, "eta_table", table[:, 2], eta.ravel())
    return problems


def check_calibrate(out: Path, p: dict, currents, fields) -> list:
    c, problems = strict_json(out / "calibrate.json"), []
    slope, intercept, r2 = ref.ols(currents, fields)
    _close(problems, "b_solenoid", c["b_solenoid_t"], ref.solenoid_field(p))
    _close(problems, "current", c["current_a"], p["current"])
    _close(problems, "slope", c["slope_t_per_a"], slope)
    _close(problems, "intercept", c["intercept_t"], intercept,
           atol=1e-9 * abs(slope) * float(np.max(np.abs(currents))))
    _close(problems, "r_squared", c["r_squared"], r2)
    return problems


# --- fit ---------------------------------------------------------------------

FIT_KEYS = {"kappa_c0": "kappa_c0_rad_per_s", "kappa_c1": "kappa_c1_rad_per_s",
            "kappa_s": "kappa_s_rad_per_s", "kappa_th": "kappa_th_rad_per_s",
            "g_eff": "g_eff_rad_per_s"}


def check_fit(out: Path, expected: dict, tolerance: dict,
              noise_l1: float) -> tuple[list, dict]:
    """Problems plus the fit's objective and parameter errors.

    The objective must lie within 20 % of the noise's own L1 norm: a fit in a
    worse basin leaves model error on top of the noise.
    """
    fit, problems = strict_json(out / "fit.json"), []
    errors = {k: abs(fit[key] / expected[k] - 1.0) for k, key in FIT_KEYS.items()}
    for k, err in errors.items():
        if not err <= tolerance[k]:
            problems.append(f"{k}: relative error {err:.3g} > {tolerance[k]}")
    objective = fit["objective_value"]
    if not 0.8 * noise_l1 <= objective <= 1.2 * noise_l1:
        problems.append(f"objective {objective:.6g} outside 0.8-1.2 x the "
                        f"noise L1 {noise_l1:.6g}")
    return problems, {"objective": objective, "param_err": max(errors.values()),
                      "param_errors": errors}
