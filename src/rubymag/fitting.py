"""Synthesis and fitting of 2D avoided-crossing reflection grids.

The forward model is the non-ideality-wrapped reflection coefficient
evaluated over an (omega_s, omega_d) grid.  Fitting minimizes the L1 norm of
the complex residuals.  Strictly-positive rates are fit in log-space and every
parameter is mapped through a logistic transform onto its bounds, so the
search itself runs unconstrained, on numpy alone, in the two stages of
minimize: Levenberg-Marquardt on the real and imaginary residuals reaches the
least-squares optimum in a few steps, and iteratively reweighted least squares
(weights 1/sqrt|r|) moves it to the L1 optimum.  Every step takes one
Jacobian: cavity.gamma_prime_jacobian's closed-form derivatives, chained
through the bound transform.  Successive reweighted steps point nearly the
same way and each covers only part of the distance, so each accepted one is
extrapolated to 3, 9, 27... times its length while the L1 objective keeps
dropping, each trial costing one value evaluation and no Jacobian.

A crossing grid is its two axes omega_s and omega_d (rad/s) and its complex
values, rows over omega_s and columns over omega_d; the drive power (W),
which the CSV does not store, is passed beside them, and the model's
reference omega_ref is the mean of omega_d.

Every function here takes the model as cavity.gamma_prime's params record,
a dict keyed by cavity.MODEL_NAMES.  fit_crossing takes a record as its
guess, whose rates set every bound (default_bounds), and an evaluation
budget; the thirteen PARAM_NAMES are free, and omega_c and g_s stay the
guess's.  Its result's params is a record again, so it serves unchanged as
the next fit's guess or as the truth of simulate_crossing.  An objective
evaluation builds one dict and performs one complex division per grid point.

Only g_eff = g_s sqrt(N) is identifiable from the reflection data; g_s is
supplied (from the modal-volume coupling formula) and fit.json derives N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import PARAM_NAMES, gamma_prime, gamma_prime_jacobian
from .csvio import read_columns, render_columns
from .errors import AllZeroBorder, InvalidBounds, ParseError, ZeroRate


@dataclass
class FitResult:
    """The fitted params record, with the fit's L1 objective, steps and
    outcome."""

    params: dict                  # a record: the 13 fitted PARAM_NAMES, and
                                  # the guess's omega_c and g_s, held fixed
    objective_value: float
    iterations: int
    converged: bool               # IRLS reached _IRLS_TOL (see minimize)


def evaluate_model_grid(params: dict, omega_s: np.ndarray, omega_d: np.ndarray,
                        power: float) -> np.ndarray:
    """Vectorized Gamma' of the record params over the (omega_s, omega_d)
    grid at the drive power (W), referenced to the mean omega_d; rows index
    omega_s, columns omega_d."""
    return gamma_prime(omega_s, omega_d, float(np.mean(omega_d)), power,
                       params)


def simulate_crossing(params: dict, omega_s: np.ndarray, omega_d: np.ndarray,
                      power: float, noise_sigma: float = 0.0,
                      seed: int = 0) -> np.ndarray:
    """Forward model plus complex Gaussian noise; deterministic per seed."""
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    values = evaluate_model_grid(params, omega_s, omega_d, power)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        values = values + noise_sigma * (rng.standard_normal(values.shape)
                                         + 1j * rng.standard_normal(values.shape))
    return values


def normalize_grid(values: np.ndarray) -> np.ndarray:
    """Divide by the median |value| over the outermost border frame."""
    border = np.concatenate([values[0], values[-1], values[1:-1, 0],
                             values[1:-1, -1]])
    scale = float(np.median(np.abs(border)))
    if scale == 0.0:
        raise AllZeroBorder("border frame has zero magnitude; cannot normalize")
    return values / scale


def dip_trajectory(omega_d: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Drive frequency minimizing |Gamma| for each omega_s row (rad/s).

    omega_d is read in increasing order, one column of values per point.
    The minimum bin is refined with a parabolic fit through its neighbors so
    the reported dip is not quantized to the grid step.
    """
    mags = np.abs(values)
    rows = np.arange(mags.shape[0])
    k = np.argmin(mags, axis=1)
    inner = (k > 0) & (k < omega_d.size - 1)
    # every row reads a three-point window; only inner rows use it
    kc = np.clip(k, 1, omega_d.size - 2)
    y0, y1, y2 = mags[rows, kc - 1], mags[rows, kc], mags[rows, kc + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = np.zeros(rows.size)
    np.divide(0.5 * (y0 - y2), denom, out=shift, where=inner & (denom != 0))
    step = omega_d[kc + 1] - omega_d[kc]
    return np.where(inner, omega_d[kc] + shift * step, omega_d[k])


# ---------------------------------------------------------------------------
# bounded fit: Levenberg-Marquardt, then IRLS

DEFAULT_AUX_BOUNDS = {
    "o_r": (-0.5, 0.5),
    "o_i": (-0.5, 0.5),
    "A": (-0.5, 0.5),
    "b": (-1e-7, 1e-7),
    "psi": (-1.5, 1.5),
    "tau": (-1e-6, 1e-6),
    "omega_s_off": (-math.tau * 20e6, math.tau * 20e6),
    "omega_d_off": (-math.tau * 20e6, math.tau * 20e6),
}


def default_bounds(guess: dict) -> dict:
    """Rates bounded a factor 10 around the guess record's; auxiliaries at
    fixed ranges.

    A guess rate that is not > 0, NaN included, raises InvalidBounds.
    """
    for name in PARAM_NAMES[:5]:
        if not guess[name] > 0:
            raise InvalidBounds(f"the fit's guess for {name} must be > 0 to "
                                f"bound it, got {guess[name]!r}")
    bounds = {name: (guess[name] / 10.0, guess[name] * 10.0)
              for name in PARAM_NAMES[:5]}
    bounds.update(DEFAULT_AUX_BOUNDS)
    return bounds


def objective_l1(residual: np.ndarray) -> float:
    """Sum of |Re| + |Im| of the complex residuals, given as their floats."""
    return float(np.abs(residual).sum())


# damped Gauss-Newton and IRLS constants
_INITIAL_DAMPING = 1e-3
_MIN_DAMPING = 1e-12
_MAX_DAMPING = 1e10
_IRLS_FLOOR = 1e-6   # |r| below which IRLS weights stop growing
_LM_TOL = 1e-10      # relative sum r^2 gain of one step that ends LM
_IRLS_TOL = 1e-8     # relative L1 gain of one reweighted step that ends IRLS
_EXTRAPOLATION = 3.0  # growth of each trial length of an accepted IRLS step


class _BudgetSpent(Exception):
    """The fit's evaluation budget is used up; steps counts the accepted
    steps of the stage it ended."""

    steps = 0


def _levenberg_marquardt(evaluate, jacobian, x: np.ndarray, r: np.ndarray,
                         f: float, l1: bool, tol: float) -> tuple:
    """Damped Gauss-Newton steps from x; returns (x, r, steps, reached_tol).

    evaluate(x) gives the real residuals and their L1 norm, jacobian(x) their
    derivatives in x, one row per residual; r and f are the residuals and
    the objective at x.  With l1 False the objective is sum r^2.
    With l1 True it is sum |r|, and each step weights the normal equations by
    w^2 = 1/max(|r|, _IRLS_FLOOR) (iteratively reweighted least squares), so
    that sum w^2 r^2 equals sum |r| at x wherever |r| exceeds the floor; one
    Jacobian serves one reweighted step, and an accepted reweighted step dx
    is extrapolated to x + c dx for c = _EXTRAPOLATION, its square and so on,
    for as long as each trial lowers the objective further (one value
    evaluation per trial).  A step is kept only if the objective drops.
    Stops when an accepted step, extrapolation included, gains less than tol
    relative, or when no damping up to _MAX_DAMPING lowers the objective;
    reached_tol is True in the first case, and in the second only if the
    objective is at most tol, so that no step could gain more (a fit down to
    rounding error).
    """
    damping = _INITIAL_DAMPING
    steps = 0
    try:
        while True:
            jac = jacobian(x)
            weighted = jac.T
            if l1:
                weighted = weighted * (1.0 / np.maximum(np.abs(r),
                                                        _IRLS_FLOOR))
            normal = weighted @ jac
            grad = weighted @ r
            scale = np.diag(np.diag(normal))
            while True:
                dx = np.linalg.lstsq(normal + damping * scale, -grad,
                                     rcond=None)[0]
                r_new, l1_new = evaluate(x + dx)
                f_new = l1_new if l1 else r_new @ r_new
                if f_new < f:
                    break
                damping *= 10.0
                if damping > _MAX_DAMPING:
                    return x, r, steps, bool(f <= tol)
            steps += 1
            x_new = x + dx
            if l1:   # lengthen the step while the L1 objective keeps dropping
                c = _EXTRAPOLATION
                while True:
                    x_try = x + c * dx
                    r_try, f_try = evaluate(x_try)
                    if not f_try < f_new:
                        break
                    x_new, r_new, f_new = x_try, r_try, f_try
                    c *= _EXTRAPOLATION
            gain = f - f_new
            x, r, f = x_new, r_new, f_new
            damping = max(damping / 10.0, _MIN_DAMPING)
            if gain <= tol * f:
                return x, r, steps, True
    except _BudgetSpent as spent:
        spent.steps = steps
        raise


def minimize(evaluate, jacobian, x0: np.ndarray,
             r0: np.ndarray) -> tuple[int, bool]:
    """Levenberg-Marquardt on sum r^2 from x0, then IRLS on sum |r|.

    evaluate, jacobian and r0 are as for _levenberg_marquardt; _LM_TOL ends
    the first stage and _IRLS_TOL the second.  Returns (accepted steps,
    converged), converged being the second stage's reached_tol, or False once
    evaluate or jacobian raises _BudgetSpent.
    """
    steps = 0
    try:
        x, r, steps, _ = _levenberg_marquardt(evaluate, jacobian, x0, r0,
                                              r0 @ r0, False, _LM_TOL)
        _, _, irls_steps, converged = _levenberg_marquardt(
            evaluate, jacobian, x, r, np.abs(r).sum(), True, _IRLS_TOL)
    except _BudgetSpent as spent:
        return steps + spent.steps, False
    return steps + irls_steps, converged


def fit_crossing(omega_s: np.ndarray, omega_d: np.ndarray, values: np.ndarray,
                 power: float, guess: dict,
                 max_evaluations: int = 150000) -> FitResult:
    """Fit the non-ideality model to a (normalized) reflection grid: values
    of shape (omega_s.size, omega_d.size), else ValueError, at the drive
    power (W).

    guess is a params record, a previous fit's result included; its rates
    set the bounds (see default_bounds), and its omega_c and g_s are held
    fixed.  Levenberg-Marquardt on the real and imaginary residuals
    takes the guess to the least-squares optimum and IRLS carries that to the
    L1 optimum (see minimize, which decides converged).  Every model
    evaluation counts against max_evaluations, and so does every Jacobian, as
    one evaluation; converged is False once the budget runs out.  Returns the
    lowest-L1 point evaluated.
    """
    expected = (np.size(omega_s), np.size(omega_d))
    if np.shape(values) != expected:
        raise ValueError(f"grid shape {np.shape(values)} != axes' shape "
                         f"{expected}")
    # each parameter p = lo + span/(1 + exp(-x)) of an unconstrained x, the
    # rates through their logarithm, so that the search moves them in
    # relative rather than absolute steps
    bounds = default_bounds(guess)
    log = np.array([name in PARAM_NAMES[:5] for name in PARAM_NAMES])
    lo, hi = np.array([[math.log(b) for b in bounds[name]] if is_log
                       else bounds[name]
                       for name, is_log in zip(PARAM_NAMES, log)]).T
    span = hi - lo
    p0 = np.array([guess[name] for name in PARAM_NAMES])
    u0 = np.where(log, np.log(np.maximum(p0, 1e-300)), p0)
    frac = np.clip((u0 - lo) / span, 1e-12, 1.0 - 1e-12)
    x0 = np.log(frac / (1.0 - frac))
    omega_d_mean = float(np.mean(omega_d))
    fixed = {"omega_c": guess["omega_c"], "g_s": guess["g_s"]}

    def bounded(x):
        """The parameters p at x, and t = exp(-x)."""
        # exp(-x) would overflow, with a warning, below x = -709; the cap
        # keeps such trial points at the lower bound quietly
        t = np.exp(np.minimum(-x, 500.0))
        p = lo + span / (1.0 + t)
        p[log] = np.exp(p[log])
        return p, t

    def record(p):
        return dict(zip(PARAM_NAMES, p.tolist()), **fixed)

    evals = 0
    best_x, best_f = x0, math.inf

    def spend():
        nonlocal evals
        if evals >= max_evaluations:
            raise _BudgetSpent
        evals += 1

    def evaluate(x):
        nonlocal best_x, best_f
        spend()
        model = gamma_prime(omega_s, omega_d, omega_d_mean, power,
                            record(bounded(x)[0]))
        model -= values
        r = model.ravel().view(float)
        f = objective_l1(r)
        if f < best_f:
            best_x, best_f = x.copy(), f
        return r, f

    def jacobian(x):
        # the rows of dGamma'/dp, each viewed as the interleaved floats of
        # evaluate's residuals and scaled by dp/dx
        spend()
        p, t = bounded(x)
        slope = span * (t / (1.0 + t)) / (1.0 + t)   # dp/dx, finite at the cap
        slope[log] *= p[log]
        jac = gamma_prime_jacobian(omega_s, omega_d, omega_d_mean, power,
                                   record(p))
        jac = jac.reshape(len(x), -1).view(float)
        jac *= slope[:, None]
        return jac.T

    iterations, converged = 0, False
    if max_evaluations > 0:
        r0, _ = evaluate(x0)
        iterations, converged = minimize(evaluate, jacobian, x0, r0)

    return FitResult(params=record(bounded(best_x)[0]),
                     objective_value=best_f, iterations=iterations,
                     converged=converged)


def relaxation_times(params: dict) -> tuple[float, float]:
    """(T1, T2) in seconds from the params record's kappa_th = 1/T1 and
    kappa_s = 2/T2."""
    kappa_th, kappa_s = params["kappa_th"], params["kappa_s"]
    if kappa_th <= 0 or kappa_s <= 0:
        raise ZeroRate("relaxation rates must be positive")
    return 1.0 / kappa_th, 2.0 / kappa_s


# ---------------------------------------------------------------------------
# serialization

def write_grid_csv(path, omega_s: np.ndarray, omega_d: np.ndarray,
                   values: np.ndarray) -> str:
    """CSV text, row-major in omega_s: omega_s_hz, omega_d_hz, re, im."""
    ws, wd = np.meshgrid(omega_s / math.tau, omega_d / math.tau,
                         indexing="ij")
    return render_columns(path, ("omega_s_hz", "omega_d_hz", "re", "im"),
                          np.column_stack([ws.ravel(), wd.ravel(),
                                           values.real.ravel(),
                                           values.imag.ravel()]))


def read_grid_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of write_grid_csv: (omega_s, omega_d, values), each axis
    increasing and values of shape (omega_s.size, omega_d.size).

    Rows may come in any order; each is placed at its (omega_s, omega_d)
    point.  A missing column, a non-finite or non-numeric value, or a grid
    point given twice or not at all raises ParseError.
    """
    table, _ = read_columns(path, ("omega_s_hz", "omega_d_hz", "re", "im"))
    ws, i = np.unique(table[:, 0] * math.tau, return_inverse=True)
    wd, j = np.unique(table[:, 1] * math.tau, return_inverse=True)
    if ws.size < 2 or wd.size < 2:
        raise ParseError(f"{path}: need at least 2 omega_s and 2 omega_d "
                         f"values, got {ws.size} and {wd.size}")
    counts = np.zeros((ws.size, wd.size), dtype=int)
    np.add.at(counts, (i, j), 1)
    if (counts > 1).any():
        raise ParseError(f"{path}: duplicate grid point(s), "
                         f"{int((counts > 1).sum())} of {counts.size}")
    if (counts == 0).any():
        raise ParseError(f"{path}: {int((counts == 0).sum())} of "
                         f"{counts.size} grid point(s) missing")
    values = np.empty((ws.size, wd.size), dtype=complex)
    values[i, j] = table[:, 2] + 1j * table[:, 3]
    return ws, wd, values


# fit.json's keys for the fitted values, in PARAM_NAMES order
_FIT_KEYS = ("kappa_c0_rad_per_s", "kappa_c1_rad_per_s", "kappa_s_rad_per_s",
             "kappa_th_rad_per_s", "g_eff_rad_per_s", "o_r", "o_i",
             "amplitude_correction", "asymmetry_slope_s", "phase_offset_rad",
             "delay_s", "omega_s_off_rad_per_s", "omega_d_off_rad_per_s")


def fit_result_to_dict(result: FitResult) -> dict:
    """The fit.json record, with explicit units in the key names."""
    p = result.params
    return {
        **{key: p[name] for key, name in zip(_FIT_KEYS, PARAM_NAMES)},
        "omega_c_rad_per_s": p["omega_c"],
        "g_s_rad_per_s": p["g_s"],
        "kappa_c_rad_per_s": p["kappa_c0"] + p["kappa_c1"],
        "n_polarized_spins": (p["g_eff"] / p["g_s"]) ** 2,
        # a result never evaluated carries math.inf, which JSON spells null
        "objective_value": (None if result.objective_value == math.inf
                            else result.objective_value),
        "iterations": result.iterations,
        "converged": result.converged,
    }
