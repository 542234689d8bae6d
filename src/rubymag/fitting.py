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

fit_crossing takes a guess, whose rates set every bound (default_bounds),
and an evaluation budget; all thirteen parameters are free.

Both evaluate_model_grid and the fit evaluate the model with
cavity.gamma_prime, which takes plain floats and arrays, so an objective
evaluation builds no parameter objects and performs one complex division per
grid point.

Only g_eff = g_s sqrt(N) is identifiable from the reflection data; g_s is
supplied (from the modal-volume coupling formula) and N is derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import (CavityParams, EnsembleParams, NonIdealityParams,
                     gamma_prime, gamma_prime_jacobian, gamma_prime_params)
from .csvio import read_columns, render_columns
from .errors import AllZeroBorder, InvalidBounds, ParseError, ZeroRate

_TWO_PI = 2.0 * math.pi


@dataclass
class GridSpec:
    """Strictly increasing (omega_s, omega_d) axes and the drive power."""

    omega_s_values: np.ndarray    # rad/s, strictly increasing
    omega_d_values: np.ndarray    # rad/s, strictly increasing
    drive_power: float            # W

    def __post_init__(self):
        for name in ("omega_s_values", "omega_d_values"):
            vals = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, vals)
            # NaN, which compares False, fails the check
            if vals.size < 2 or not np.all(np.diff(vals) > 0):
                raise ValueError(f"{name} must be strictly increasing, length >= 2")

    @property
    def omega_d_mean(self) -> float:
        return float(np.mean(self.omega_d_values))


@dataclass
class ComplexGrid2D:
    """Complex values on a GridSpec; rows index omega_s, columns omega_d."""

    spec: GridSpec
    values: np.ndarray            # complex, shape (n_omega_s, n_omega_d)

    def __post_init__(self):
        self.values = vals = np.asarray(self.values, dtype=complex)
        expected = (self.spec.omega_s_values.size, self.spec.omega_d_values.size)
        if vals.shape != expected:
            raise ValueError(f"grid shape {vals.shape} != spec shape {expected}")


@dataclass
class FitResult:
    """Fitted parameters with the fit's L1 objective, steps and outcome."""

    cavity: CavityParams
    ensemble: EnsembleParams
    nonideal: NonIdealityParams
    objective_value: float
    iterations: int
    converged: bool               # IRLS reached _IRLS_TOL (see minimize)


def evaluate_model_grid(cav: CavityParams, ens: EnsembleParams,
                        ni: NonIdealityParams, spec: GridSpec) -> np.ndarray:
    """Vectorized Gamma' over the grid; rows index omega_s, columns omega_d."""
    return gamma_prime(spec.omega_s_values, spec.omega_d_values,
                       spec.omega_d_mean, cav.omega_c, ens.g_s,
                       spec.drive_power, gamma_prime_params(cav, ens, ni))


def simulate_crossing(cav: CavityParams, ens: EnsembleParams,
                      ni: NonIdealityParams, spec: GridSpec,
                      noise_sigma: float = 0.0, seed: int = 0) -> ComplexGrid2D:
    """Forward model plus complex Gaussian noise; deterministic per seed."""
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    values = evaluate_model_grid(cav, ens, ni, spec)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        values = values + noise_sigma * (rng.standard_normal(values.shape)
                                         + 1j * rng.standard_normal(values.shape))
    return ComplexGrid2D(spec=spec, values=values)


def normalize_grid(grid: ComplexGrid2D) -> ComplexGrid2D:
    """Divide by the median |value| over the outermost border frame."""
    v = grid.values
    border = np.concatenate([v[0, :], v[-1, :], v[1:-1, 0], v[1:-1, -1]])
    scale = float(np.median(np.abs(border)))
    if scale == 0.0:
        raise AllZeroBorder("border frame has zero magnitude; cannot normalize")
    return ComplexGrid2D(spec=grid.spec, values=v / scale)


def dip_trajectory(grid: ComplexGrid2D) -> np.ndarray:
    """Drive frequency minimizing |Gamma| for each omega_s row (rad/s).

    The minimum bin is refined with a parabolic fit through its neighbors so
    the reported dip is not quantized to the grid step.
    """
    wd = grid.spec.omega_d_values
    mags = np.abs(grid.values)
    rows = np.arange(mags.shape[0])
    k = np.argmin(mags, axis=1)
    inner = (k > 0) & (k < wd.size - 1)
    # every row reads a three-point window; only inner rows use it
    kc = np.clip(k, 1, wd.size - 2)
    y0, y1, y2 = mags[rows, kc - 1], mags[rows, kc], mags[rows, kc + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = np.zeros(rows.size)
    np.divide(0.5 * (y0 - y2), denom, out=shift, where=inner & (denom != 0))
    return np.where(inner, wd[kc] + shift * (wd[kc + 1] - wd[kc]), wd[k])


# ---------------------------------------------------------------------------
# bounded fit: Levenberg-Marquardt, then IRLS

_PHYSICAL = ("kappa_c0", "kappa_c1", "kappa_s", "kappa_th", "g_eff")
_AUXILIARY = ("o_r", "o_i", "A", "b", "psi", "tau", "omega_s_off", "omega_d_off")
PARAM_NAMES = _PHYSICAL + _AUXILIARY   # the order of cavity.gamma_prime_params

DEFAULT_AUX_BOUNDS = {
    "o_r": (-0.5, 0.5),
    "o_i": (-0.5, 0.5),
    "A": (-0.5, 0.5),
    "b": (-1e-7, 1e-7),
    "psi": (-1.5, 1.5),
    "tau": (-1e-6, 1e-6),
    "omega_s_off": (-_TWO_PI * 20e6, _TWO_PI * 20e6),
    "omega_d_off": (-_TWO_PI * 20e6, _TWO_PI * 20e6),
}


def default_bounds(cav: CavityParams, ens: EnsembleParams) -> dict:
    """Rates bounded a factor 10 around the guess; auxiliaries at fixed ranges.

    A guess rate that is not > 0, NaN included, raises InvalidBounds.
    """
    phys = {
        "kappa_c0": cav.kappa_c0,
        "kappa_c1": cav.kappa_c1,
        "kappa_s": ens.kappa_s,
        "kappa_th": ens.kappa_th,
        "g_eff": ens.g_eff,
    }
    for name, val in phys.items():
        if not val > 0:
            raise InvalidBounds(f"the fit's guess for {name} must be > 0 to "
                                f"bound it, got {val!r}")
    bounds = {name: (val / 10.0, val * 10.0) for name, val in phys.items()}
    bounds.update(DEFAULT_AUX_BOUNDS)
    return bounds


class _BoundTransform:
    """Logistic mapping between bounded parameters and unconstrained space.

    Rates (the physical block) live in log-space before the logistic map, so
    the search moves in relative rather than absolute steps for them.
    """

    def __init__(self, bounds: dict):
        self.lo = np.empty(len(PARAM_NAMES))
        self.hi = np.empty(len(PARAM_NAMES))
        self.log = np.array([name in _PHYSICAL for name in PARAM_NAMES])
        for k, name in enumerate(PARAM_NAMES):
            lo, hi = bounds[name]
            if self.log[k]:
                lo, hi = math.log(lo), math.log(hi)
            self.lo[k], self.hi[k] = lo, hi
        self.span = self.hi - self.lo

    def to_unconstrained(self, params: np.ndarray) -> np.ndarray:
        u = np.where(self.log, np.log(np.maximum(params, 1e-300)), params)
        frac = np.clip((u - self.lo) / self.span, 1e-12, 1.0 - 1e-12)
        return np.log(frac / (1.0 - frac))

    def to_bounded(self, x: np.ndarray) -> np.ndarray:
        return self._to_bounded(np.exp(np.minimum(-x, 500.0)))

    def to_bounded_slope(self, x: np.ndarray) -> tuple:
        """The bounded parameters p at x and dp/dx, elementwise."""
        # exp(-x) would overflow, with a warning, below x = -709; the cap
        # keeps such trial points at the lower bound quietly
        t = np.exp(np.minimum(-x, 500.0))
        u = self._to_bounded(t)
        slope = self.span * (t / (1.0 + t)) / (1.0 + t)   # finite at the cap
        slope[self.log] *= u[self.log]
        return u, slope

    def _to_bounded(self, t: np.ndarray) -> np.ndarray:
        """The bounded parameters at the x where t = exp(-x)."""
        u = self.lo + self.span / (1.0 + t)
        u[self.log] = np.exp(u[self.log])
        return u


def _vector_to_params(vec: np.ndarray, cav: CavityParams,
                      ens: EnsembleParams) -> tuple[
        CavityParams, EnsembleParams, NonIdealityParams]:
    kappa_c0, kappa_c1, kappa_s, kappa_th, g_eff = vec[:5]
    cav = CavityParams(omega_c=cav.omega_c,
                       kappa_c0=kappa_c0, kappa_c1=kappa_c1)
    g_s = ens.g_s
    ens = EnsembleParams(g_s=g_s, N=(g_eff / g_s) ** 2, kappa_s=kappa_s,
                         kappa_th=kappa_th, omega_s=ens.omega_s)
    ni = NonIdealityParams(o_r=vec[5], o_i=vec[6], A=vec[7], b=vec[8],
                           psi=vec[9], tau=vec[10], omega_s_off=vec[11],
                           omega_d_off=vec[12])
    return cav, ens, ni


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


def fit_crossing(data: ComplexGrid2D, cav: CavityParams,
                 ens: EnsembleParams, ni: NonIdealityParams,
                 max_evaluations: int = 150000) -> FitResult:
    """Fit the non-ideality model to a (normalized) reflection grid.

    cav, ens and ni are the guess, and its rates set the bounds (see
    default_bounds).  Levenberg-Marquardt on the real and imaginary residuals
    takes the guess to the least-squares optimum and IRLS carries that to the
    L1 optimum (see minimize, which decides converged).  Every model
    evaluation counts against max_evaluations, and so does every Jacobian, as
    one evaluation; converged is False once the budget runs out.  Returns the
    lowest-L1 point evaluated.
    """
    transform = _BoundTransform(default_bounds(cav, ens))
    spec = data.spec
    omega_d_mean = spec.omega_d_mean
    x0 = transform.to_unconstrained(gamma_prime_params(cav, ens, ni))
    omega_c, g_s = cav.omega_c, ens.g_s
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
        model = gamma_prime(spec.omega_s_values, spec.omega_d_values,
                            omega_d_mean, omega_c, g_s, spec.drive_power,
                            transform.to_bounded(x).tolist())
        model -= data.values
        r = model.ravel().view(float)
        f = objective_l1(r)
        if f < best_f:
            best_x, best_f = x.copy(), f
        return r, f

    def jacobian(x):
        # the rows of dGamma'/dp, each viewed as the interleaved floats of
        # evaluate's residuals and scaled by dp/dx
        spend()
        params, slope = transform.to_bounded_slope(x)
        jac = gamma_prime_jacobian(spec.omega_s_values, spec.omega_d_values,
                                   omega_d_mean, omega_c, g_s,
                                   spec.drive_power, params.tolist())
        jac = jac.reshape(len(x), -1).view(float)
        jac *= slope[:, None]
        return jac.T

    iterations, converged = 0, False
    if max_evaluations > 0:
        r0, _ = evaluate(x0)
        iterations, converged = minimize(evaluate, jacobian, x0, r0)

    cav, ens, ni = _vector_to_params(transform.to_bounded(best_x), cav, ens)
    return FitResult(cavity=cav, ensemble=ens, nonideal=ni,
                     objective_value=best_f, iterations=iterations,
                     converged=converged)


def relaxation_times(ens: EnsembleParams) -> tuple[float, float]:
    """(T1, T2) in seconds from kappa_th = 1/T1 and kappa_s = 2/T2."""
    if ens.kappa_th <= 0 or ens.kappa_s <= 0:
        raise ZeroRate("relaxation rates must be positive")
    return 1.0 / ens.kappa_th, 2.0 / ens.kappa_s


# ---------------------------------------------------------------------------
# serialization

def write_grid_csv(path, grid: ComplexGrid2D) -> str:
    """CSV text, row-major in omega_s: omega_s_hz, omega_d_hz, re, im."""
    ws, wd = np.meshgrid(grid.spec.omega_s_values / _TWO_PI,
                         grid.spec.omega_d_values / _TWO_PI, indexing="ij")
    return render_columns(path, ("omega_s_hz", "omega_d_hz", "re", "im"),
                          np.column_stack([ws.ravel(), wd.ravel(),
                                           grid.values.real.ravel(),
                                           grid.values.imag.ravel()]))


def read_grid_csv(path, drive_power: float) -> ComplexGrid2D:
    """Inverse of write_grid_csv; drive power is not stored in the CSV.

    Rows may come in any order; each is placed at its (omega_s, omega_d)
    point.  A missing column, a non-finite or non-numeric value, or a grid
    point given twice or not at all raises ParseError.
    """
    table, _ = read_columns(path, ("omega_s_hz", "omega_d_hz", "re", "im"))
    ws, i = np.unique(table[:, 0] * _TWO_PI, return_inverse=True)
    wd, j = np.unique(table[:, 1] * _TWO_PI, return_inverse=True)
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
    spec = GridSpec(omega_s_values=ws, omega_d_values=wd,
                    drive_power=drive_power)
    return ComplexGrid2D(spec=spec, values=values)


def fit_result_to_dict(result: FitResult) -> dict:
    """The fit.json record, with explicit units in the key names."""
    ni = result.nonideal
    return {
        "omega_c_rad_per_s": result.cavity.omega_c,
        "kappa_c_rad_per_s": result.cavity.kappa_c,
        "kappa_c0_rad_per_s": result.cavity.kappa_c0,
        "kappa_c1_rad_per_s": result.cavity.kappa_c1,
        "kappa_s_rad_per_s": result.ensemble.kappa_s,
        "kappa_th_rad_per_s": result.ensemble.kappa_th,
        "g_s_rad_per_s": result.ensemble.g_s,
        "g_eff_rad_per_s": result.ensemble.g_eff,
        "n_polarized_spins": result.ensemble.N,
        "o_r": ni.o_r,
        "o_i": ni.o_i,
        "amplitude_correction": ni.A,
        "asymmetry_slope_s": ni.b,
        "phase_offset_rad": ni.psi,
        "delay_s": ni.tau,
        "omega_s_off_rad_per_s": ni.omega_s_off,
        "omega_d_off_rad_per_s": ni.omega_d_off,
        # a result never evaluated carries math.inf, which JSON spells null
        "objective_value": (None if result.objective_value == math.inf
                            else result.objective_value),
        "iterations": result.iterations,
        "converged": result.converged,
    }
