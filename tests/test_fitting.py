import copy
import importlib.util
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rubymag.cavity import (dbm_to_watts, gamma_prime_jacobian,
                            kappa_th_threshold_power, single_spin_coupling,
                            watts_to_dbm)
from rubymag import cli, fitting
from rubymag import constants as CONST
from rubymag.config import parse_config
from rubymag.csvio import render_json
from rubymag.errors import InvalidBounds, NonFiniteOutput, ParseError
from rubymag.fitting import (PARAM_NAMES, FitResult, default_bounds,
                             evaluate_model_grid, fit_crossing,
                             fit_result_to_dict, objective_l1, read_grid_csv,
                             relaxation_times, simulate_crossing,
                             write_grid_csv)
from oracle import dip_trajectory, normalize_grid

TWO_PI = 2.0 * math.pi
G_S = single_spin_coupling(52.2e-9, TWO_PI * 11.4e9)
DEFAULTS = parse_config({})

# target parameter set: g_eff = 2 pi x 3.5 MHz, kappa_c = 2 pi x 660 kHz,
# kappa_s = 2 pi x 42 MHz, kappa_th = 2 pi x 120 kHz
PHYS = {**DEFAULTS.model(), "g_s": G_S, "g_eff": TWO_PI * 3.5e6}
# fitted auxiliary values; tau and b nonzero so the overall-scale direction
# (kappa_c1 versus o_r, o_i, A) stays identifiable
NI = {"o_r": -0.008, "o_i": 0.12, "A": 0.003, "b": 1e-9, "psi": 0.14,
      "tau": -1.2e-8, "omega_s_off": -7.3e6, "omega_d_off": -5.6e5}
TRUTH = {**PHYS, **NI}


def wide_grid(n_s=50, n_d=50, power_dbm=0.0):
    """(omega_s, omega_d, power): omega_s swept +-50 MHz across the cavity,
    omega_d +-5 MHz, driven at power_dbm."""
    return (np.linspace(TWO_PI * 11.35e9, TWO_PI * 11.45e9, n_s),
            np.linspace(TWO_PI * 11.395e9, TWO_PI * 11.405e9, n_d),
            dbm_to_watts(power_dbm))


# the five fitted rates, in the order guess_from draws their perturbations
_RATES = ("kappa_c0", "kappa_c1", "g_eff", "kappa_s", "kappa_th")


def guess_from(phys, ni, rng=None, rel=0.2):
    """The guess record: the record phys with the non-idealities ni and the
    five rates perturbed +-rel."""
    p = (lambda x: x) if rng is None else (lambda x: x * rng.uniform(1 - rel,
                                                                     1 + rel))
    return {**phys, **{name: p(phys[name]) for name in _RATES}, **ni}


def physical_errors(res, truth):
    """The relative error of each fitted rate against the record truth."""
    return {name: res.params[name] / truth[name] - 1 for name in _RATES}


def unfitted():
    """A FitResult left at the truth, with a noiseless fit's objective."""
    return FitResult(params=dict(TRUTH), objective_value=0.0,
                     iterations=0, converged=False)


# ---------------------------------------------------------------------------
# simulate_crossing


def test_simulate_deterministic_and_exact_at_zero_noise():
    grid = wide_grid(12, 10)
    a = simulate_crossing(TRUTH, *grid, 0.02, seed=5)
    b = simulate_crossing(TRUTH, *grid, 0.02, seed=5)
    assert np.array_equal(a, b)
    clean = simulate_crossing(TRUTH, *grid, 0.0, seed=5)
    assert np.allclose(clean, evaluate_model_grid(TRUTH, *grid),
                       rtol=0, atol=0)
    with pytest.raises(ValueError):
        simulate_crossing(TRUTH, *grid, -0.1, seed=5)


def test_simulate_zero_coupling_rows_identical():
    values = simulate_crossing({**TRUTH, "g_eff": 0.0}, *wide_grid(8, 20),
                               0.0, seed=0)
    for row in values[1:]:
        assert np.allclose(row, values[0], rtol=0, atol=0)


def test_simulate_rejects_zero_kappa_th():
    with pytest.raises(ValueError, match="kappa_th must be positive when"):
        simulate_crossing({**TRUTH, "kappa_th": 0.0}, *wide_grid(4, 4))


def test_bare_cavity_dip_sits_at_cavity_resonance():
    ws, wd, power = wide_grid(6, 101)
    values = simulate_crossing({**PHYS, "g_eff": 0.0}, ws, wd, power, 0.0,
                               seed=0)
    dips = dip_trajectory(wd, values)
    step = wd[1] - wd[0]
    assert np.all(np.abs(dips - PHYS["omega_c"]) < step)


def _dip_trajectory_loop(wd, values):
    """dip_trajectory as a per-row loop: the reference for the vectorized
    form."""
    mags = np.abs(values)
    dips = np.empty(mags.shape[0])
    for r, row in enumerate(mags):
        k = int(np.argmin(row))
        if 0 < k < len(wd) - 1:
            y0, y1, y2 = row[k - 1], row[k], row[k + 1]
            denom = y0 - 2.0 * y1 + y2
            shift = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
            dips[r] = wd[k] + shift * (wd[k + 1] - wd[k])
        else:
            dips[r] = wd[k]
    return dips


def test_dip_trajectory_equals_row_loop():
    """Bit for bit the per-row loop, on random grids with rows whose
    minimum sits at either edge and flat rows.  A flat stretch gives a zero
    parabola denominator in the window next to an edge minimum, which must
    divide nothing (every numpy floating-point error raises here)."""
    rng = np.random.default_rng(11)
    for n_s, n_d in ((2, 2), (7, 2), (9, 3), (40, 5), (25, 61)):
        wd = np.sort(rng.uniform(6e10, 8e10, n_d))
        values = rng.standard_normal((n_s, n_d)) \
            + 1j * rng.standard_normal((n_s, n_d))
        values[0] = 1.0                           # flat: minimum at k = 0
        values[1, 0] = 0.0                        # minimum at the left edge
        if n_s > 2:
            values[2, -1] = 0.0                   # minimum at the right edge
        if n_s > 3 and n_d > 3:
            values[3] = 2.0
            values[3, 1:4] = 0.5                  # flat floor: first point
        with np.errstate(all="raise"):
            got = dip_trajectory(wd, values)
        want = _dip_trajectory_loop(wd, values)
        assert got.tobytes() == want.tobytes(), (n_s, n_d)


# ---------------------------------------------------------------------------
# normalize_grid


def test_normalize_constant_grid():
    out = normalize_grid(np.full((5, 5), 3.0 * np.exp(0.4j)))
    assert np.allclose(np.abs(out), 1.0, atol=1e-12)
    assert np.allclose(np.angle(out), 0.4, atol=1e-12)


def test_normalize_scale_invariance():
    values = simulate_crossing(TRUTH, *wide_grid(10, 10), 0.0, seed=0)
    assert np.allclose(normalize_grid(5.0 * values), normalize_grid(values),
                       atol=1e-12)


def test_normalize_all_zero_border_rejected():
    vals = np.zeros((5, 5), dtype=complex)
    vals[2, 2] = 1.0
    with pytest.raises(ValueError, match="border frame has zero magnitude"):
        normalize_grid(vals)


def test_normalized_border_near_unity():
    # far-detuned |Gamma| -> 1, so the border frame should sit near 1
    out = normalize_grid(simulate_crossing(TRUTH, *wide_grid(), 0.0, seed=0))
    border = np.concatenate([out[0], out[-1], out[1:-1, 0], out[1:-1, -1]])
    assert np.median(np.abs(border)) == pytest.approx(1.0, abs=0.05)


# ---------------------------------------------------------------------------
# fit_crossing


def test_fit_crossing_refuses_misshapen_values():
    """values must be shaped (omega_s.size, omega_d.size): transposed, one
    row or flat, they would broadcast through the residuals."""
    ws, wd, power = wide_grid(4, 3)
    values = simulate_crossing(TRUTH, ws, wd, power)
    for bad in (values.T, values[:1], values[0], values.ravel()):
        with pytest.raises(ValueError, match="shape"):
            fit_crossing(ws, wd, bad, power, TRUTH)


def test_objective_at_truth_is_zero():
    grid = wide_grid(20, 20)
    values = simulate_crossing(TRUTH, *grid, 0.0, seed=0)
    model = evaluate_model_grid(TRUTH, *grid)
    assert objective_l1((model - values).view(float)) < 1e-9


def test_fit_from_truth_stays_at_truth():
    ws, wd, power = wide_grid(15, 15)
    values = simulate_crossing(TRUTH, ws, wd, power, 0.0, seed=0)
    init = guess_from(PHYS, NI)
    res = fit_crossing(ws, wd, values, power, init)
    assert res.objective_value < 1e-9
    for err in physical_errors(res, PHYS).values():
        assert abs(err) < 1e-6


def test_fit_determinism():
    ws, wd, power = wide_grid(12, 12)
    values = simulate_crossing(TRUTH, ws, wd, power, 0.01, seed=1)
    rng = np.random.default_rng(0)
    init = guess_from(PHYS, NI, rng)
    a = fit_crossing(ws, wd, values, power, init)
    b = fit_crossing(ws, wd, values, power, init)
    assert a.objective_value == b.objective_value
    assert a.params == b.params


def test_invalid_bounds_rejected():
    """A guess rate that is not positive leaves nothing to bound."""
    ws, wd, power = wide_grid(5, 5)
    values = simulate_crossing(TRUTH, ws, wd, power, 0.0, seed=0)
    for name in ("g_eff", "kappa_th"):
        with pytest.raises(InvalidBounds, match=name):
            fit_crossing(ws, wd, values, power, {**TRUTH, name: 0.0})


def reference_model(params, grid, omega_c, g_s, omega_d_mean):
    """Gamma' written term by term, as three nested complex divisions."""
    (kappa_c0, kappa_c1, kappa_s, kappa_th, g_eff,
     o_r, o_i, A, b, psi, tau, omega_s_off, omega_d_off) = params
    omega_s, omega_d, power = grid
    ws = omega_s[:, None] - omega_s_off
    wd = omega_d[None, :] - omega_d_off
    kappa_c = kappa_c0 + kappa_c1
    n_cav = power / (CONST.hbar * wd * kappa_c)
    delta = wd - ws
    saturation = (g_s ** 2 * n_cav * kappa_s / (2.0 * kappa_th)) \
        / (kappa_s / 2.0 - 1j * delta)
    pi_term = g_s ** 2 * (g_eff / g_s) ** 2 \
        / (kappa_s / 2.0 + 1j * delta + saturation)
    gamma = -1.0 + kappa_c1 / (kappa_c / 2.0 + 1j * (wd - omega_c) + pi_term)
    d = omega_d[None, :] - omega_d_mean
    envelope = np.exp(1j * (psi + d * tau)) * (1.0 + A + b * d)
    return o_r + 1j * o_i + envelope * gamma


def reference_l1(model, data):
    resid = model - data
    return float(np.sum(np.abs(resid.real)) + np.sum(np.abs(resid.imag)))


def test_fused_objective_matches_reference(monkeypatch):
    """The fit's residuals and L1 objective equal the term-by-term model.

    A stand-in for the damped Gauss-Newton stage hands fit_crossing's
    evaluation chosen unconstrained points, so the bound transform and the
    residual layout are checked along with the Gamma' kernel, in both the
    least-squares and the IRLS stage.
    """
    grid = wide_grid(20, 24)
    ws, wd, power = grid
    values = simulate_crossing(TRUTH, *grid, 0.02, seed=9)
    init = guess_from(PHYS, NI)
    bounds = default_bounds(TRUTH)
    rng = np.random.default_rng(21)
    checked = []
    points = []
    for _ in range(16):
        frac = rng.uniform(0.02, 0.98, len(PARAM_NAMES))
        params = np.empty(len(PARAM_NAMES))
        for k, name in enumerate(PARAM_NAMES):
            lo, hi = bounds[name]
            if k < 5:
                params[k] = math.exp(math.log(lo)
                                     + frac[k] * math.log(hi / lo))
            else:
                params[k] = lo + frac[k] * (hi - lo)
        want = reference_model(params, grid, PHYS["omega_c"], G_S,
                               float(np.mean(wd)))
        points.append((np.log(frac / (1.0 - frac)), params, want))

    def stand_in_lm(evaluate, jacobian, x, r, f, l1, tol):
        for y, _, want in points:
            resid, l1_norm = evaluate(y)
            expected = (want - values).ravel().view(float)
            assert np.allclose(resid, expected, rtol=1e-12, atol=1e-12)
            assert l1_norm == pytest.approx(
                reference_l1(want, values), rel=1e-12)
            checked.append(l1)
        return x, r, 0, False

    monkeypatch.setattr(fitting, "_levenberg_marquardt", stand_in_lm)
    fit_crossing(ws, wd, values, power, init)
    for _, params, want in points:
        got = evaluate_model_grid(dict(zip(PARAM_NAMES, params),
                                       omega_c=PHYS["omega_c"], g_s=G_S),
                                  *grid)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    # each of the 16 points was checked by both stages
    assert checked.count(False) == checked.count(True) == 16


def counting_kernel(monkeypatch):
    """Record every model evaluation, a Gamma' value or a Jacobian, as
    ("value" or "jacobian", params record), and count the objective_l1
    calls."""
    calls, objective_calls = [], []
    real_objective = fitting.objective_l1

    def counted(kind, real_kernel):
        def kernel(*args):
            calls.append((kind, args[4]))
            return real_kernel(*args)
        return kernel

    def objective(residual):
        objective_calls.append(1)
        return real_objective(residual)

    monkeypatch.setattr(fitting, "gamma_prime",
                        counted("value", fitting.gamma_prime))
    monkeypatch.setattr(fitting, "gamma_prime_jacobian",
                        counted("jacobian", fitting.gamma_prime_jacobian))
    monkeypatch.setattr(fitting, "objective_l1", objective)
    return calls, objective_calls


def test_fit_calls_objective_once_per_evaluation(monkeypatch):
    """One objective per value evaluation, the guess evaluated once and
    first, and _MAX_STEPS ending either stage unconverged."""
    ws, wd, power = wide_grid(10, 10)
    data = simulate_crossing(TRUTH, ws, wd, power, 0.01, seed=2)
    init = guess_from(PHYS, NI, np.random.default_rng(3))
    guess = [init[name] for name in PARAM_NAMES]
    calls, objective_calls = counting_kernel(monkeypatch)
    res = fit_crossing(ws, wd, data, power, init)
    assert res.converged
    values = [p for kind, p in calls if kind == "value"]
    assert len(objective_calls) == len(values)
    at_guess = [p for p in values
                if np.allclose([p[name] for name in PARAM_NAMES], guess,
                               rtol=1e-12, atol=0.0)]
    assert len(at_guess) == 1 and calls[0][1] is at_guess[0]
    # a cap that ends either stage: 1 and 3 inside Levenberg-Marquardt (5
    # steps here), 20 and 31 inside IRLS (32 steps); the steps accepted
    # before it count, those of the stage it ends included
    converged_iterations = res.iterations
    iterations = []
    for cap in (1, 3, 20, 31):
        monkeypatch.setattr(fitting, "_MAX_STEPS", cap)
        del calls[:], objective_calls[:]
        res = fit_crossing(ws, wd, data, power, init)
        assert len(objective_calls) == sum(kind == "value"
                                           for kind, _ in calls)
        assert not res.converged
        assert math.isfinite(res.objective_value)
        iterations.append(res.iterations)
    assert iterations[0] == 2
    assert iterations == sorted(iterations)
    assert iterations[-1] <= converged_iterations


def test_each_stage_stops_unconverged_at_the_step_cap(monkeypatch):
    """A stub objective that drops by a tenth or more with every step, so
    never by less than a tolerance, runs each stage to _MAX_STEPS: its
    Jacobian is ten times too steep, so that each step covers a tenth of
    the way to the optimum, and IRLS's extrapolation nine tenths."""
    monkeypatch.setattr(fitting, "_MAX_STEPS", 5)

    def evaluate(x):
        return x.copy(), float(np.abs(x).sum())

    def jacobian(x):
        return np.array([[10.0]])

    for l1, tol in ((False, fitting._LM_TOL), (True, fitting._IRLS_TOL)):
        x, _, steps, reached_tol = fitting._levenberg_marquardt(
            evaluate, jacobian, np.ones(1), np.ones(1), 1.0, l1, tol)
        assert (steps, reached_tol) == (5, False)
        assert 0.0 < abs(x[0]) < 1.0
    assert fitting.minimize(evaluate, jacobian, np.ones(1)) == (10, False)


def test_minimize_stops_unconverged_when_damping_runs_out():
    """An objective that never drops exhausts the damping of both stages."""
    r0 = np.linspace(-1.0, 1.0, 8)
    assert fitting.minimize(lambda x: (r0, float(np.abs(r0).sum())),
                            lambda x: np.zeros((r0.size, x.size)),
                            np.zeros(3)) == (0, False)


def five_point_difference(f, x, k, h):
    """Central difference of f in x[k], with error O(h^4)."""
    def at(t):
        y = np.array(x, dtype=float)
        y[k] += t * h
        return f(y)
    return (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * h)


def test_fit_jacobian_matches_central_differences(monkeypatch):
    """The Jacobian fit_crossing hands minimize, chained through the bound
    transform, equals central differences of its residuals in x, quietly
    beyond the transform's exp cap too."""
    ws, wd, power = wide_grid(20, 24)
    values = simulate_crossing(TRUTH, ws, wd, power, 0.02, seed=9)
    init = guess_from(PHYS, NI)
    rng = np.random.default_rng(8)
    closures = []

    def stand_in(evaluate, jacobian, x0):
        closures.append((evaluate, jacobian))
        return 0, False

    monkeypatch.setattr(fitting, "minimize", stand_in)
    fit_crossing(ws, wd, values, power, init)
    (evaluate, jacobian), = closures
    n = len(PARAM_NAMES)
    beyond = rng.uniform(-3.0, 3.0, n)
    beyond[:3] = -800.0, 800.0, -600.0
    for x in [rng.uniform(-3.0, 3.0, n) for _ in range(3)] + [beyond]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jac = jacobian(x)
            assert jac.shape == (2 * values.size, n)
            for k in range(n):
                # a step that moves the residuals by at most 3e-4
                h = 3e-4 / max(np.abs(jac[:, k]).max(), 1.0)
                want = five_point_difference(lambda y: evaluate(y)[0],
                                             x, k, h)
                assert np.abs(jac[:, k] - want).max() \
                    <= 1e-6 * np.abs(want).max() + 1e-13 / h, k


def test_noiseless_fit_converges():
    """A grid fitted to rounding error reports converged, from the truth
    itself (where no step lowers the objective) and from a guess off it."""
    ws, wd, power = wide_grid(10, 10)
    values = simulate_crossing(TRUTH, ws, wd, power, 0.0, seed=0)
    for rng in (None, np.random.default_rng(3)):
        res = fit_crossing(ws, wd, values, power, guess_from(PHYS, NI, rng))
        assert res.converged is True
        assert res.objective_value < 1e-8


def test_criterion_13_noisy_fit_converges_within_budget(monkeypatch):
    """Criterion 13's noisy 50x50 fit converges in under 20 000 evaluations
    and at most 60 steps, no higher than the 40.98254358427529 that IRLS
    without extrapolated steps reached in 80."""
    ws, wd, power = wide_grid()
    values = normalize_grid(simulate_crossing(TRUTH, ws, wd, power, 0.01,
                                              seed=200))
    init = guess_from(PHYS, NI, np.random.default_rng(100))
    params, _ = counting_kernel(monkeypatch)
    res = fit_crossing(ws, wd, values, power, init)
    assert res.converged
    assert len(params) <= 20000
    assert res.iterations <= 60
    assert res.objective_value <= 40.98254358427529
    for name, err in physical_errors(res, PHYS).items():
        assert abs(err) < (0.30 if name == "kappa_th" else 0.10), name


def _bench_inputs():
    path = Path(__file__).parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def _bench_truth(inputs, k):
    """Truth k of the benchmark's fit recipe (see test_fit_over_forty_truths)
    and the grid crossing-sim's command simulates from it, as
    (omega_s, omega_d, values, power): fit_crossing's first arguments."""
    raw = copy.deepcopy(inputs.BASE)
    scale = np.random.default_rng(k).uniform(0.8, 1.2, 5)
    raw["cavity"]["kappa_c0_khz"] *= scale[0]
    raw["cavity"]["kappa_c1_khz"] *= scale[1]
    raw["ensemble"]["kappa_s_mhz"] *= scale[2]
    raw["ensemble"]["kappa_th_khz"] *= scale[3]
    raw["ensemble"]["n_spins"] = parse_config(inputs.BASE).ensemble()[1] \
        * scale[4] ** 2
    raw["nonideal"] = dict(inputs.CRITERION_13_NONIDEAL)
    raw["grid"]["noise_sigma"] = 0.01
    raw["run"]["master_seed"] = k
    truth = parse_config(raw)
    [(_, _, ws, wd, values)] = cli.cmd_crossing_sim(truth, None)
    return truth, (ws, wd, values, truth["drive"]["power_dbm"])


def test_fit_result_is_a_guess_and_a_truth():
    """A fit's params is a record that needs no rebuilding: simulated, it
    gives the fit's L1 objective bit for bit, and as the next fit's guess
    it ends no higher, at the same five rates and the same fixed omega_c
    and g_s.  The data is the benchmark recipe's truth 0."""
    _, data = _bench_truth(_bench_inputs(), 0)
    ws, wd, values, power = data
    res = fit_crossing(*data, DEFAULTS.model())
    model = simulate_crossing(res.params, ws, wd, power)
    assert objective_l1((model - values).ravel().view(float)) \
        == res.objective_value
    again = fit_crossing(*data, res.params)
    assert again.objective_value <= res.objective_value
    for name in PARAM_NAMES[:5]:
        assert again.params[name] == pytest.approx(res.params[name],
                                                   rel=1e-9), name
    assert (again.params["omega_c"], again.params["g_s"]) \
        == (res.params["omega_c"], res.params["g_s"])


@pytest.mark.slow
def test_fit_over_forty_truths():
    """The benchmark's fit recipe over 40 truths: truth k scales the five
    rates of bench/inputs.BASE by default_rng(k).uniform(0.8, 1.2, 5), as
    fit_inputs does (g_eff through n_spins), takes criterion 13's
    non-idealities and sigma = 0.01 noise with master seed k, and is
    simulated by crossing-sim's command; each fit starts from the default
    config.

    Pinned as counts, not per truth: truths 11, 12 and 32 end with kappa_s
    off by 11.1-11.6 % against criterion 13's 10 %, at 0.99-1.00 times the
    noise L1, which sigma = 0.01 noise alone can do on a 50x50 grid.
    Truth 11 also reports converged False: IRLS ran out of damping."""
    inputs = _bench_inputs()
    within = converged = 0
    steps = []
    for k in range(40):
        truth, data = _bench_truth(inputs, k)
        res = fit_crossing(*data, DEFAULTS.model())
        noise_l1 = 2.0 * data[2].size * 0.01 * math.sqrt(2.0 / math.pi)
        assert 0.8 <= res.objective_value / noise_l1 <= 1.2, k
        errors = physical_errors(res, truth.model())
        within += all(abs(err) < inputs.FIT_TOLERANCE[name]
                      for name, err in errors.items())
        converged += res.converged
        steps.append(res.iterations)
    assert max(steps) <= 60
    assert converged >= 39
    assert within >= 37


@pytest.mark.slow
def test_fit_over_forty_truths_with_outliers():
    """Why the fit ends on the L1 norm: test_fit_over_forty_truths's 40
    grids, each with 1 % of its points hit by a 100 sigma outlier.  Truth
    k's outliers are drawn from rng = default_rng(1000 + k): the points
    rng.choice(values.size, values.size // 100, replace=False), each given
    100 sigma (rng.standard_normal(m) + 1j rng.standard_normal(m)) more.

    Measured with this draw: 37 of 40 fits within FIT_TOLERANCE (truths 11,
    12 and 32 miss, as without outliers), all 40 converged, and every L1 at
    1.73-2.20 times the noise L1 of the Gaussian part alone.  The LM stage
    alone, which minimizes sum r^2, brings 5 of 40 within tolerance on the
    same grids; that count is not asserted, since reaching it means
    replacing minimize."""
    inputs = _bench_inputs()
    within = converged = 0
    ratios = []
    for k in range(40):
        truth, (ws, wd, values, power) = _bench_truth(inputs, k)
        rng = np.random.default_rng(1000 + k)
        hit = rng.choice(values.size, values.size // 100, replace=False)
        values = values.copy()
        values.flat[hit] += 100 * 0.01 * (rng.standard_normal(hit.size)
                                          + 1j * rng.standard_normal(hit.size))
        res = fit_crossing(ws, wd, values, power, DEFAULTS.model())
        noise_l1 = 2.0 * values.size * 0.01 * math.sqrt(2.0 / math.pi)
        ratios.append(res.objective_value / noise_l1)
        errors = physical_errors(res, truth.model())
        within += all(abs(err) < inputs.FIT_TOLERANCE[name]
                      for name, err in errors.items())
        converged += res.converged
    assert 1.73 <= min(ratios) and max(ratios) <= 2.21, (min(ratios),
                                                         max(ratios))
    assert converged == 40
    assert within >= 37


@pytest.mark.slow
def test_round_trip_twenty_random_truths():
    """Noiseless fits recover physical params within 1%, auxiliaries to 5%."""
    rng = np.random.default_rng(7)
    ws, wd, power = wide_grid(30, 30)
    for _ in range(20):
        u = lambda x: x * rng.uniform(0.5, 1.5)
        phys = {**PHYS, "kappa_c0": u(TWO_PI * 330e3),
                "kappa_c1": u(TWO_PI * 330e3), "g_eff": u(TWO_PI * 3.5e6),
                "kappa_s": u(TWO_PI * 42e6), "kappa_th": u(TWO_PI * 120e3)}
        ni = {"o_r": u(-0.008), "o_i": u(0.12), "A": u(0.003),
              "b": u(1e-9), "psi": u(0.14), "tau": u(-1.2e-8),
              "omega_s_off": u(-7.3e6), "omega_d_off": u(-5.6e5)}
        values = simulate_crossing({**phys, **ni}, ws, wd, power, 0.0, seed=0)
        res = fit_crossing(ws, wd, values, power, guess_from(phys, ni, rng))
        for name, err in physical_errors(res, phys).items():
            assert abs(err) < 0.01, (name, err)
        got, want = res.params, ni
        for name in ("o_r", "o_i", "A", "psi"):
            assert got[name] == pytest.approx(
                want[name], rel=0.05, abs=1e-4), name
        for name in ("b", "tau", "omega_s_off", "omega_d_off"):
            assert got[name] == pytest.approx(want[name], rel=0.05), name


@pytest.mark.slow
def test_kappa_th_power_sensitivity():
    """kappa_th recovery degrades far below the threshold power.

    At the threshold drive the saturation term is strong enough that noisy
    grids still pin kappa_th to better than 20%; ten dB lower the estimate
    error blows past 50%.
    """
    p_th = kappa_th_threshold_power(1 / PHYS["kappa_th"], 2 / PHYS["kappa_s"],
                                    G_S, TWO_PI * 11.4e9,
                                    PHYS["kappa_c0"] + PHYS["kappa_c1"])
    p_th_dbm = watts_to_dbm(p_th)

    def kth_error(power_dbm, seed):
        ws, wd, power = wide_grid(power_dbm=power_dbm)
        values = simulate_crossing(TRUTH, ws, wd, power, 0.05, seed=seed)
        init = guess_from(PHYS, NI)
        res = fit_crossing(ws, wd, normalize_grid(values), power, init)
        return abs(res.params["kappa_th"] / PHYS["kappa_th"] - 1)

    for seed in (0, 1):
        assert kth_error(p_th_dbm, seed) < 0.20
    for seed in (5, 6):
        assert kth_error(p_th_dbm - 10.0, seed) > 0.50


def fisher_matrix(params, omega_s, omega_d, power, sigma=0.01):
    """F = J^T J / sigma^2 of a grid's residuals under complex noise sigma,
    with the five rates in log units and the auxiliaries in units of their
    bound widths (fitting.DEFAULT_AUX_BOUNDS); J is gamma_prime_jacobian's,
    the real and imaginary part of each point a row.  The Cramer-Rao bound
    on each parameter's standard error is sqrt(diag F^-1)."""
    jac = gamma_prime_jacobian(omega_s, omega_d, float(np.mean(omega_d)),
                               power, params)
    units = [params[name] for name in PARAM_NAMES[:5]] \
        + [hi - lo for lo, hi in fitting.DEFAULT_AUX_BOUNDS.values()]
    j = (jac.reshape(len(PARAM_NAMES), -1)
         * np.array(units)[:, None]).view(float)
    return j @ j.T / sigma ** 2


def test_kappa_th_threshold_marks_the_best_measured_power():
    """kappa_th_threshold_power against the Cramer-Rao bound on the default
    50 x 50 grid, with sigma = 0.01 and tau = -12 ns.

    Below the threshold, kappa_th's relative standard error falls about
    tenfold per 10 dB of power: 12.4 at 30 dB below it, 1.25 at 20 dB
    below.  It is least, 2.7 %, 2.25 dB above the threshold, and rises again
    above that as saturation broadens the line.  The docstring's "below this
    power kappa_th becomes hard to estimate" holds; the best power lies
    2-5 dB above the threshold, not at it.  kappa_th enters Gamma' only
    through S, proportional to P / kappa_th, and the threshold is
    proportional to kappa_th, so kappa_th times 1/3 and 3 give the same
    curve in P / P_th: the best power moves with the threshold.  At
    b = tau = 0 the gauge family makes F singular to rounding; at
    tau = -12 ns its condition number at the threshold is 3.6e7."""
    cfg = parse_config({"nonideal": {"tau_s": -1.2e-8}})
    ws, wd = cli._grid_spec(cfg)
    model = cfg.model()

    def fisher(params, offset_db):
        t1, t2 = relaxation_times(params)
        threshold = kappa_th_threshold_power(
            t1, t2, params["g_s"], cfg["drive"]["omega_d_ghz"],
            params["kappa_c0"] + params["kappa_c1"])
        return fisher_matrix(params, ws, wd,
                             threshold * 10.0 ** (offset_db / 10.0))

    def kth_error(params, offset_db):
        return math.sqrt(np.linalg.inv(fisher(params, offset_db))[3, 3])

    below = [kth_error(model, offset) for offset in range(-30, 1, 5)]
    assert all(a > b for a, b in zip(below, below[1:]))
    assert below[2] > 1.0                       # 20 dB below: over 100 %
    offsets = np.arange(0.0, 8.01, 0.25)
    for scale in (1 / 3, 1.0, 3.0):
        params = {**model, "kappa_th": model["kappa_th"] * scale}
        errors = [kth_error(params, offset) for offset in offsets]
        assert 2.0 <= offsets[int(np.argmin(errors))] <= 5.0, scale
        assert min(errors) < 0.03, scale
    gauge = np.linalg.eigvalsh(fisher({**model, "b": 0.0, "tau": 0.0}, 0.0))
    assert abs(gauge[0]) <= 1e-14 * gauge[-1]
    eigenvalues = np.linalg.eigvalsh(fisher(model, 0.0))
    assert eigenvalues[-1] / eigenvalues[0] < 1e10


# ---------------------------------------------------------------------------
# relaxation times


def test_relaxation_times_paper_values():
    t1, t2 = relaxation_times(PHYS)
    assert t2 == pytest.approx(7.6e-9, rel=0.02)
    assert t1 == pytest.approx(1.3e-6, rel=0.03)


def test_relaxation_times_trivial_and_errors():
    t1, t2 = relaxation_times({**PHYS, "kappa_s": 2.0, "kappa_th": 1.0})
    assert t2 == 1.0
    assert t1 == 1.0
    with pytest.raises(ValueError, match="relaxation rates must be positive"):
        relaxation_times({**PHYS, "kappa_s": 0.0})


# ---------------------------------------------------------------------------
# serialization


def test_grid_csv_round_trip(tmp_path):
    ws, wd, power = wide_grid(6, 5)
    values = simulate_crossing(TRUTH, ws, wd, power, 0.01, seed=3)
    path = tmp_path / "grid.csv"
    path.write_text(write_grid_csv(path, ws, wd, values))
    back_ws, back_wd, back = read_grid_csv(path)
    assert np.allclose(back_ws, ws)
    assert np.allclose(back_wd, wd)
    assert np.allclose(back, values, atol=1e-12)


def test_fit_json_units_in_keys(tmp_path):
    d = fit_result_to_dict(unfitted())
    assert d["kappa_s_rad_per_s"] == pytest.approx(PHYS["kappa_s"])
    assert d["kappa_c_rad_per_s"] == pytest.approx(PHYS["kappa_c0"]
                                                   + PHYS["kappa_c1"])
    path = tmp_path / "fit.json"
    path.write_text(render_json(path, d))
    loaded = json.loads(path.read_text())
    assert loaded["g_eff_rad_per_s"] == pytest.approx(PHYS["g_eff"])
    assert loaded["delay_s"] == pytest.approx(NI["tau"])


def test_fit_json_reports_the_fitted_g_eff():
    """fit.json's g_eff is the fitted value bit for bit, and its N is
    (g_eff / g_s)^2, for 10 000 random g_eff in 0.5-2 times the default.
    Read back as g_s sqrt(N), about one g_eff in nine would differ in its
    last bit."""
    model = DEFAULTS.model()
    init = unfitted()
    init.params["g_s"] = model["g_s"]
    rng = np.random.default_rng(0)
    for g_eff in (model["g_eff"] * rng.uniform(0.5, 2.0, 10_000)).tolist():
        d = fit_result_to_dict(replace(init, params={**init.params,
                                                     "g_eff": g_eff}))
        assert d["g_eff_rad_per_s"].hex() == g_eff.hex()
        assert d["n_polarized_spins"] == (g_eff / model["g_s"]) ** 2
    assert sorted(d) == [
        "amplitude_correction", "asymmetry_slope_s", "converged", "delay_s",
        "g_eff_rad_per_s", "g_s_rad_per_s", "iterations",
        "kappa_c0_rad_per_s", "kappa_c1_rad_per_s", "kappa_c_rad_per_s",
        "kappa_s_rad_per_s", "kappa_th_rad_per_s", "n_polarized_spins", "o_i",
        "o_r", "objective_value", "omega_c_rad_per_s", "omega_d_off_rad_per_s",
        "omega_s_off_rad_per_s", "phase_offset_rad"]


def test_grid_csv_rows_in_any_order(tmp_path):
    ws, wd, power = wide_grid(6, 5)
    values = simulate_crossing(TRUTH, ws, wd, power, 0.01, seed=3)
    path = tmp_path / "grid.csv"
    path.write_text(write_grid_csv(path, ws, wd, values))
    header, *rows = path.read_text().splitlines()
    rows.sort(key=lambda line: -float(line.split(",")[1]))
    path.write_text("\n".join([header] + rows) + "\n")
    back_ws, back_wd, back = read_grid_csv(path)
    assert np.allclose(back_ws, ws)
    assert np.allclose(back_wd, wd)
    assert np.allclose(back, values, atol=1e-12)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:-1], "missing"),
    (lambda lines: lines + [lines[3]], "duplicate"),
    (lambda lines: [lines[0].replace(",im", ",imag")] + lines[1:], "column"),
    (lambda lines: lines[:4] + [lines[4].rsplit(",", 1)[0] + ",nan"]
     + lines[5:], "non-finite"),
    (lambda lines: lines[:4] + [lines[4].rsplit(",", 1)[0] + ",x"]
     + lines[5:], "x"),
    (lambda lines: lines[:1], "at least 2"),
    # a short row and a ragged row (one cell too many)
    (lambda lines: lines[:4] + [lines[4].rsplit(",", 1)[0]] + lines[5:],
     "line 5 has 3 cells"),
    (lambda lines: lines[:4] + [lines[4] + ",0.5"] + lines[5:],
     "line 5 has 5 cells"),
])
def test_grid_csv_malformed_rejected(tmp_path, edit, message):
    ws, wd, power = wide_grid(4, 3)
    path = tmp_path / "grid.csv"
    text = write_grid_csv(path, ws, wd, simulate_crossing(TRUTH, ws, wd, power,
                                                          0.0, seed=0))
    path.write_text("\n".join(edit(text.splitlines())) + "\n")
    with pytest.raises(ParseError, match=message):
        read_grid_csv(path)


def test_fit_json_is_strict(tmp_path):
    init = unfitted()
    text = render_json(tmp_path / "fit.json", fit_result_to_dict(init))
    json.loads(text, parse_constant=pytest.fail)
    broken = replace(init, params={**init.params, "psi": math.nan})
    with pytest.raises(NonFiniteOutput, match="broken.json"):
        render_json(tmp_path / "broken.json", fit_result_to_dict(broken))

