import copy
import importlib.util
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rubymag.cavity import (CavityParams, EnsembleParams, NonIdealityParams,
                            dbm_to_watts, kappa_th_threshold_power,
                            single_spin_coupling, watts_to_dbm)
from rubymag import cli, fitting
from rubymag import constants as CONST
from rubymag.config import parse_config
from rubymag.csvio import render_json
from rubymag.errors import (AllZeroBorder, InvalidBounds, NonFiniteOutput,
                            ParseError, ZeroKappaTh, ZeroRate)
from rubymag.fitting import (PARAM_NAMES, ComplexGrid2D, FitResult,
                             GridSpec, default_bounds,
                             dip_trajectory, evaluate_model_grid, fit_crossing,
                             fit_result_to_dict, normalize_grid, objective_l1,
                             read_grid_csv, relaxation_times,
                             simulate_crossing, write_grid_csv)

TWO_PI = 2.0 * math.pi
G_S = single_spin_coupling(52.2e-9, TWO_PI * 11.4e9)
DEFAULTS = parse_config({})

# target parameter set: g_eff = 2 pi x 3.5 MHz, kappa_c = 2 pi x 660 kHz,
# kappa_s = 2 pi x 42 MHz, kappa_th = 2 pi x 120 kHz
CAV = DEFAULTS.cavity()
ENS = replace(DEFAULTS.ensemble(), g_s=G_S, N=(TWO_PI * 3.5e6 / G_S) ** 2)
# fitted auxiliary values; tau and b nonzero so the overall-scale direction
# (kappa_c1 versus o_r, o_i, A) stays identifiable
NI = NonIdealityParams(o_r=-0.008, o_i=0.12, A=0.003, b=1e-9, psi=0.14,
                       tau=-1.2e-8, omega_s_off=-7.3e6, omega_d_off=-5.6e5)


def wide_spec(n_s=50, n_d=50, power_dbm=0.0):
    """omega_s swept +-50 MHz across the cavity, omega_d +-5 MHz."""
    return GridSpec(
        omega_s_values=np.linspace(TWO_PI * 11.35e9, TWO_PI * 11.45e9, n_s),
        omega_d_values=np.linspace(TWO_PI * 11.395e9, TWO_PI * 11.405e9, n_d),
        drive_power=dbm_to_watts(power_dbm))


def guess_from(cav, ens, ni, spec, rng=None, rel=0.2):
    """Initial (cav, ens, ni) with physical rates perturbed +-rel."""
    p = (lambda x: x) if rng is None else (lambda x: x * rng.uniform(1 - rel,
                                                                     1 + rel))
    return (CavityParams(omega_c=cav.omega_c, kappa_c0=p(cav.kappa_c0),
                         kappa_c1=p(cav.kappa_c1)),
            EnsembleParams(g_s=ens.g_s, N=(p(ens.g_eff) / ens.g_s) ** 2,
                           kappa_s=p(ens.kappa_s), kappa_th=p(ens.kappa_th),
                           omega_s=ens.omega_s),
            ni)


def physical_errors(res, cav, ens):
    return {
        "kappa_c0": res.cavity.kappa_c0 / cav.kappa_c0 - 1,
        "kappa_c1": res.cavity.kappa_c1 / cav.kappa_c1 - 1,
        "kappa_s": res.ensemble.kappa_s / ens.kappa_s - 1,
        "kappa_th": res.ensemble.kappa_th / ens.kappa_th - 1,
        "g_eff": res.ensemble.g_eff / ens.g_eff - 1,
    }


# ---------------------------------------------------------------------------
# types


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(omega_s_values=np.array([1.0]),
                 omega_d_values=np.array([1.0, 2.0]), drive_power=1e-3)
    with pytest.raises(ValueError):
        GridSpec(omega_s_values=np.array([2.0, 1.0]),
                 omega_d_values=np.array([1.0, 2.0]), drive_power=1e-3)
    with pytest.raises(ValueError):
        GridSpec(omega_s_values=np.array([1.0, 1.0]),
                 omega_d_values=np.array([1.0, 2.0]), drive_power=1e-3)


def test_grid_shape_must_match_spec():
    spec = wide_spec(4, 3)
    with pytest.raises(ValueError):
        ComplexGrid2D(spec=spec, values=np.zeros((3, 4), dtype=complex))
    grid = ComplexGrid2D(spec=spec, values=np.zeros((4, 3), dtype=complex))
    assert grid.values.shape == (4, 3)


# ---------------------------------------------------------------------------
# simulate_crossing


def test_simulate_deterministic_and_exact_at_zero_noise():
    spec = wide_spec(12, 10)
    a = simulate_crossing(CAV, ENS, NI, spec, 0.02, seed=5)
    b = simulate_crossing(CAV, ENS, NI, spec, 0.02, seed=5)
    assert np.array_equal(a.values, b.values)
    clean = simulate_crossing(CAV, ENS, NI, spec, 0.0, seed=5)
    assert np.allclose(clean.values, evaluate_model_grid(CAV, ENS, NI, spec),
                       rtol=0, atol=0)
    with pytest.raises(ValueError):
        simulate_crossing(CAV, ENS, NI, spec, -0.1, seed=5)


def test_simulate_zero_coupling_rows_identical():
    spec = wide_spec(8, 20)
    empty = replace(ENS, N=0.0)
    grid = simulate_crossing(CAV, empty, NI, spec, 0.0, seed=0)
    for row in grid.values[1:]:
        assert np.allclose(row, grid.values[0], rtol=0, atol=0)


def test_simulate_rejects_zero_kappa_th():
    with pytest.raises(ZeroKappaTh):
        simulate_crossing(CAV, replace(ENS, kappa_th=0.0), NI, wide_spec(4, 4))


def test_bare_cavity_dip_sits_at_cavity_resonance():
    spec = wide_spec(6, 101)
    empty = replace(ENS, N=0.0)
    grid = simulate_crossing(CAV, empty, NonIdealityParams(), spec, 0.0,
                             seed=0)
    dips = dip_trajectory(grid)
    step = spec.omega_d_values[1] - spec.omega_d_values[0]
    assert np.all(np.abs(dips - CAV.omega_c) < step)


def _dip_trajectory_loop(grid):
    """dip_trajectory as a per-row loop: the reference for the vectorized
    form."""
    wd = grid.spec.omega_d_values
    mags = np.abs(grid.values)
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
        spec = GridSpec(omega_s_values=np.arange(float(n_s)),
                        omega_d_values=np.sort(rng.uniform(6e10, 8e10, n_d)),
                        drive_power=1e-3)
        values = rng.standard_normal((n_s, n_d)) \
            + 1j * rng.standard_normal((n_s, n_d))
        values[0] = 1.0                           # flat: minimum at k = 0
        values[1, 0] = 0.0                        # minimum at the left edge
        if n_s > 2:
            values[2, -1] = 0.0                   # minimum at the right edge
        if n_s > 3 and n_d > 3:
            values[3] = 2.0
            values[3, 1:4] = 0.5                  # flat floor: first point
        grid = ComplexGrid2D(spec=spec, values=values)
        with np.errstate(all="raise"):
            got = dip_trajectory(grid)
        want = _dip_trajectory_loop(grid)
        assert got.tobytes() == want.tobytes(), (n_s, n_d)


# ---------------------------------------------------------------------------
# normalize_grid


def test_normalize_constant_grid():
    spec = wide_spec(5, 5)
    c = 3.0 * np.exp(0.4j)
    grid = ComplexGrid2D(spec=spec, values=np.full((5, 5), c))
    out = normalize_grid(grid)
    assert np.allclose(np.abs(out.values), 1.0, atol=1e-12)
    assert np.allclose(np.angle(out.values), 0.4, atol=1e-12)


def test_normalize_scale_invariance():
    spec = wide_spec(10, 10)
    grid = simulate_crossing(CAV, ENS, NI, spec, 0.0, seed=0)
    scaled = ComplexGrid2D(spec=spec, values=5.0 * grid.values)
    assert np.allclose(normalize_grid(scaled).values,
                       normalize_grid(grid).values, atol=1e-12)


def test_normalize_all_zero_border_rejected():
    spec = wide_spec(5, 5)
    vals = np.zeros((5, 5), dtype=complex)
    vals[2, 2] = 1.0
    with pytest.raises(AllZeroBorder):
        normalize_grid(ComplexGrid2D(spec=spec, values=vals))


def test_normalized_border_near_unity():
    # far-detuned |Gamma| -> 1, so the border frame should sit near 1
    grid = simulate_crossing(CAV, ENS, NI, wide_spec(), 0.0, seed=0)
    out = normalize_grid(grid).values
    border = np.concatenate([out[0], out[-1], out[1:-1, 0], out[1:-1, -1]])
    assert np.median(np.abs(border)) == pytest.approx(1.0, abs=0.05)


# ---------------------------------------------------------------------------
# fit_crossing


def test_objective_at_truth_is_zero():
    spec = wide_spec(20, 20)
    grid = simulate_crossing(CAV, ENS, NI, spec, 0.0, seed=0)
    model = evaluate_model_grid(CAV, ENS, NI, spec)
    assert objective_l1((model - grid.values).view(float)) < 1e-9


def test_fit_from_truth_stays_at_truth():
    spec = wide_spec(15, 15)
    grid = simulate_crossing(CAV, ENS, NI, spec, 0.0, seed=0)
    init = guess_from(CAV, ENS, NI, spec)
    res = fit_crossing(grid, *init, max_evaluations=20000)
    assert res.objective_value < 1e-9
    for err in physical_errors(res, CAV, ENS).values():
        assert abs(err) < 1e-6


def test_fit_determinism():
    spec = wide_spec(12, 12)
    grid = simulate_crossing(CAV, ENS, NI, spec, 0.01, seed=1)
    rng = np.random.default_rng(0)
    init = guess_from(CAV, ENS, NI, spec, rng)
    a = fit_crossing(grid, *init, max_evaluations=4000)
    b = fit_crossing(grid, *init, max_evaluations=4000)
    assert a.objective_value == b.objective_value
    assert a.cavity == b.cavity
    assert a.ensemble == b.ensemble
    assert a.nonideal == b.nonideal


def test_invalid_bounds_rejected():
    """A guess rate that is not positive leaves nothing to bound."""
    spec = wide_spec(5, 5)
    grid = simulate_crossing(CAV, ENS, NI, spec, 0.0, seed=0)
    for ens, name in ((replace(ENS, N=0.0), "g_eff"),
                      (replace(ENS, kappa_th=0.0), "kappa_th")):
        with pytest.raises(InvalidBounds, match=name):
            fit_crossing(grid, CAV, ens, NI)


def reference_model(params, spec, omega_c, g_s, omega_d_mean):
    """Gamma' written term by term, as three nested complex divisions."""
    (kappa_c0, kappa_c1, kappa_s, kappa_th, g_eff,
     o_r, o_i, A, b, psi, tau, omega_s_off, omega_d_off) = params
    ws = spec.omega_s_values[:, None] - omega_s_off
    wd = spec.omega_d_values[None, :] - omega_d_off
    kappa_c = kappa_c0 + kappa_c1
    n_cav = spec.drive_power / (CONST.hbar * wd * kappa_c)
    delta = wd - ws
    saturation = (g_s ** 2 * n_cav * kappa_s / (2.0 * kappa_th)) \
        / (kappa_s / 2.0 - 1j * delta)
    pi_term = g_s ** 2 * (g_eff / g_s) ** 2 \
        / (kappa_s / 2.0 + 1j * delta + saturation)
    gamma = -1.0 + kappa_c1 / (kappa_c / 2.0 + 1j * (wd - omega_c) + pi_term)
    d = spec.omega_d_values[None, :] - omega_d_mean
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
    spec = wide_spec(20, 24)
    grid = simulate_crossing(CAV, ENS, NI, spec, 0.02, seed=9)
    init = guess_from(CAV, ENS, NI, spec)
    bounds = default_bounds(CAV, ENS)
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
        want = reference_model(params, spec, CAV.omega_c, ENS.g_s,
                               spec.omega_d_mean)
        points.append((np.log(frac / (1.0 - frac)), params, want))

    def stand_in_lm(evaluate, jacobian, x, r, f, l1, tol):
        for y, _, want in points:
            resid, l1_norm = evaluate(y)
            expected = (want - grid.values).ravel().view(float)
            assert np.allclose(resid, expected, rtol=1e-12, atol=1e-12)
            assert l1_norm == pytest.approx(
                reference_l1(want, grid.values), rel=1e-12)
            checked.append(l1)
        return x, r, 0, False

    monkeypatch.setattr(fitting, "_levenberg_marquardt", stand_in_lm)
    fit_crossing(grid, *init)
    for _, params, want in points:
        ni = NonIdealityParams(*params[5:])
        cav = CavityParams(omega_c=CAV.omega_c, kappa_c0=params[0],
                           kappa_c1=params[1])
        ens = replace(ENS, N=(params[4] / G_S) ** 2, kappa_s=params[2],
                      kappa_th=params[3])
        assert np.allclose(evaluate_model_grid(cav, ens, ni, spec), want,
                           rtol=1e-12, atol=1e-12)
    # each of the 16 points was checked by both stages
    assert checked.count(False) == checked.count(True) == 16


def counting_kernel(monkeypatch):
    """Record every model evaluation, a Gamma' value or a Jacobian, as
    ("value" or "jacobian", parameter list), and count the objective_l1
    calls."""
    calls, objective_calls = [], []
    real_objective = fitting.objective_l1

    def counted(kind, real_kernel):
        def kernel(*args):
            calls.append((kind, args[6]))
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
    first, and max_evaluations bounding every value and Jacobian of every
    stage."""
    spec = wide_spec(10, 10)
    grid = simulate_crossing(CAV, ENS, NI, spec, 0.01, seed=2)
    init = guess_from(CAV, ENS, NI, spec, np.random.default_rng(3))
    cav, ens, _ = init
    guess = [cav.kappa_c0, cav.kappa_c1, ens.kappa_s, ens.kappa_th,
             ens.g_eff, NI.o_r, NI.o_i, NI.A, NI.b, NI.psi, NI.tau,
             NI.omega_s_off, NI.omega_d_off]
    calls, objective_calls = counting_kernel(monkeypatch)
    res = fit_crossing(grid, *init, max_evaluations=20000)
    assert res.converged
    values = [p for kind, p in calls if kind == "value"]
    assert len(objective_calls) == len(values)
    assert len(calls) <= 20000
    at_guess = [p for p in values
                if np.allclose(p, guess, rtol=1e-12, atol=0.0)]
    assert len(at_guess) == 1 and calls[0][1] is at_guess[0]
    # a budget that ends inside either stage is spent exactly: 7 inside
    # Levenberg-Marquardt, 100 inside an extrapolation trial of IRLS (the
    # whole fit takes 150), and the steps accepted before it ran out count,
    # those of the stage it ends included
    converged_iterations = res.iterations
    iterations = []
    for budget in (1, 7, 60, 100, 149):
        del calls[:], objective_calls[:]
        res = fit_crossing(grid, *init, max_evaluations=budget)
        assert len(calls) == budget
        assert len(objective_calls) == sum(kind == "value"
                                           for kind, _ in calls)
        assert not res.converged
        assert math.isfinite(res.objective_value)
        iterations.append(res.iterations)
    assert iterations[0] == 0 and iterations[1] >= 1
    assert iterations == sorted(iterations)
    assert iterations[-1] <= converged_iterations


def test_minimize_stops_unconverged_when_damping_runs_out():
    """An objective that never drops exhausts the damping of both stages."""
    r0 = np.linspace(-1.0, 1.0, 8)
    assert fitting.minimize(lambda x: (r0, float(np.abs(r0).sum())),
                            lambda x: np.zeros((r0.size, x.size)),
                            np.zeros(3), r0) == (0, False)


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
    spec = wide_spec(20, 24)
    grid = simulate_crossing(CAV, ENS, NI, spec, 0.02, seed=9)
    init = guess_from(CAV, ENS, NI, spec)
    rng = np.random.default_rng(8)
    closures = []

    def stand_in(evaluate, jacobian, x0, r0):
        closures.append((evaluate, jacobian))
        return 0, False

    monkeypatch.setattr(fitting, "minimize", stand_in)
    fit_crossing(grid, *init)
    (evaluate, jacobian), = closures
    n = len(PARAM_NAMES)
    beyond = rng.uniform(-3.0, 3.0, n)
    beyond[:3] = -800.0, 800.0, -600.0
    for x in [rng.uniform(-3.0, 3.0, n) for _ in range(3)] + [beyond]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jac = jacobian(x)
            assert jac.shape == (2 * grid.values.size, n)
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
    spec = wide_spec(10, 10)
    grid = simulate_crossing(CAV, ENS, NI, spec, 0.0, seed=0)
    for rng in (None, np.random.default_rng(3)):
        res = fit_crossing(grid, *guess_from(CAV, ENS, NI, spec, rng))
        assert res.converged is True
        assert res.objective_value < 1e-8


def test_criterion_13_noisy_fit_converges_within_budget(monkeypatch):
    """Criterion 13's noisy 50x50 fit converges in under 20 000 evaluations
    and at most 60 steps, no higher than the 40.98254358427529 that IRLS
    without extrapolated steps reached in 80."""
    spec = wide_spec()
    grid = normalize_grid(simulate_crossing(CAV, ENS, NI, spec, 0.01,
                                            seed=200))
    init = guess_from(CAV, ENS, NI, spec, np.random.default_rng(100))
    params, _ = counting_kernel(monkeypatch)
    res = fit_crossing(grid, *init)
    assert res.converged
    assert len(params) <= 20000
    assert res.iterations <= 60
    assert res.objective_value <= 40.98254358427529
    for name, err in physical_errors(res, CAV, ENS).items():
        assert abs(err) < (0.30 if name == "kappa_th" else 0.10), name


def _bench_inputs():
    path = Path(__file__).parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


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
    n_default = parse_config(inputs.BASE).ensemble().N
    within = converged = 0
    steps = []
    for k in range(40):
        raw = copy.deepcopy(inputs.BASE)
        scale = np.random.default_rng(k).uniform(0.8, 1.2, 5)
        raw["cavity"]["kappa_c0_khz"] *= scale[0]
        raw["cavity"]["kappa_c1_khz"] *= scale[1]
        raw["ensemble"]["kappa_s_mhz"] *= scale[2]
        raw["ensemble"]["kappa_th_khz"] *= scale[3]
        raw["ensemble"]["n_spins"] = n_default * scale[4] ** 2
        raw["nonideal"] = dict(inputs.CRITERION_13_NONIDEAL)
        raw["grid"]["noise_sigma"] = 0.01
        raw["run"]["master_seed"] = k
        truth = parse_config(raw)
        [(_, _, grid)] = cli.cmd_crossing_sim(truth, None)
        res = fit_crossing(grid, DEFAULTS.cavity(), DEFAULTS.ensemble(),
                           DEFAULTS.nonideal())
        noise_l1 = 2.0 * grid.values.size * 0.01 * math.sqrt(2.0 / math.pi)
        assert 0.8 <= res.objective_value / noise_l1 <= 1.2, k
        errors = physical_errors(res, truth.cavity(), truth.ensemble())
        within += all(abs(err) < inputs.FIT_TOLERANCE[name]
                      for name, err in errors.items())
        converged += res.converged
        steps.append(res.iterations)
    assert max(steps) <= 60
    assert converged >= 39
    assert within >= 37


@pytest.mark.slow
def test_round_trip_twenty_random_truths():
    """Noiseless fits recover physical params within 1%, auxiliaries to 5%."""
    rng = np.random.default_rng(7)
    spec = wide_spec(30, 30)
    for _ in range(20):
        u = lambda x: x * rng.uniform(0.5, 1.5)
        cav = replace(CAV, kappa_c0=u(TWO_PI * 330e3),
                      kappa_c1=u(TWO_PI * 330e3))
        ens = replace(ENS, N=(u(TWO_PI * 3.5e6) / G_S) ** 2,
                      kappa_s=u(TWO_PI * 42e6), kappa_th=u(TWO_PI * 120e3))
        ni = NonIdealityParams(o_r=u(-0.008), o_i=u(0.12), A=u(0.003),
                               b=u(1e-9), psi=u(0.14), tau=u(-1.2e-8),
                               omega_s_off=u(-7.3e6), omega_d_off=u(-5.6e5))
        grid = simulate_crossing(cav, ens, ni, spec, 0.0, seed=0)
        init = guess_from(cav, ens, ni, spec, rng)
        res = fit_crossing(grid, *init)
        for name, err in physical_errors(res, cav, ens).items():
            assert abs(err) < 0.01, (name, err)
        got, want = res.nonideal, ni
        for name in ("o_r", "o_i", "A", "psi"):
            assert getattr(got, name) == pytest.approx(
                getattr(want, name), rel=0.05, abs=1e-4), name
        assert got.b == pytest.approx(want.b, rel=0.05)
        assert got.tau == pytest.approx(want.tau, rel=0.05)
        assert got.omega_s_off == pytest.approx(want.omega_s_off, rel=0.05)
        assert got.omega_d_off == pytest.approx(want.omega_d_off, rel=0.05)


@pytest.mark.slow
def test_kappa_th_power_sensitivity():
    """kappa_th recovery degrades far below the threshold power.

    At the threshold drive the saturation term is strong enough that noisy
    grids still pin kappa_th to better than 20%; ten dB lower the estimate
    error blows past 50%.
    """
    p_th = kappa_th_threshold_power(1 / ENS.kappa_th, 2 / ENS.kappa_s, G_S,
                                    TWO_PI * 11.4e9, CAV.kappa_c)
    p_th_dbm = watts_to_dbm(p_th)

    def kth_error(power_dbm, seed):
        spec = wide_spec(power_dbm=power_dbm)
        grid = simulate_crossing(CAV, ENS, NI, spec, 0.05, seed=seed)
        init = guess_from(CAV, ENS, NI, spec)
        res = fit_crossing(normalize_grid(grid), *init)
        return abs(res.ensemble.kappa_th / ENS.kappa_th - 1)

    for seed in (0, 1):
        assert kth_error(p_th_dbm, seed) < 0.20
    for seed in (5, 6):
        assert kth_error(p_th_dbm - 10.0, seed) > 0.50


# ---------------------------------------------------------------------------
# relaxation times


def test_relaxation_times_paper_values():
    t1, t2 = relaxation_times(ENS)
    assert t2 == pytest.approx(7.6e-9, rel=0.02)
    assert t1 == pytest.approx(1.3e-6, rel=0.03)


def test_relaxation_times_trivial_and_errors():
    ens = replace(ENS, g_s=1.0, N=1.0, kappa_s=2.0, kappa_th=1.0)
    t1, t2 = relaxation_times(ens)
    assert t2 == 1.0
    assert t1 == 1.0
    with pytest.raises(ZeroRate):
        relaxation_times(replace(ENS, g_s=1.0, N=1.0, kappa_s=0.0))


# ---------------------------------------------------------------------------
# serialization


def test_grid_csv_round_trip(tmp_path):
    spec = wide_spec(6, 5)
    grid = simulate_crossing(CAV, ENS, NI, spec, 0.01, seed=3)
    path = tmp_path / "grid.csv"
    path.write_text(write_grid_csv(path, grid))
    back = read_grid_csv(path, drive_power=spec.drive_power)
    assert np.allclose(back.spec.omega_s_values, spec.omega_s_values)
    assert np.allclose(back.spec.omega_d_values, spec.omega_d_values)
    assert np.allclose(back.values, grid.values, atol=1e-12)


def test_fit_json_units_in_keys(tmp_path):
    spec = wide_spec(5, 5)
    init = FitResult(*guess_from(CAV, ENS, NI, spec), objective_value=math.inf,
                     iterations=0, converged=False)
    d = fit_result_to_dict(init)
    assert d["kappa_s_rad_per_s"] == pytest.approx(ENS.kappa_s)
    assert d["kappa_c_rad_per_s"] == pytest.approx(CAV.kappa_c)
    path = tmp_path / "fit.json"
    path.write_text(render_json(path, d))
    loaded = json.loads(path.read_text())
    assert loaded["g_eff_rad_per_s"] == pytest.approx(ENS.g_eff)
    assert loaded["delay_s"] == pytest.approx(NI.tau)


def test_grid_csv_rows_in_any_order(tmp_path):
    spec = wide_spec(6, 5)
    grid = simulate_crossing(CAV, ENS, NI, spec, 0.01, seed=3)
    path = tmp_path / "grid.csv"
    path.write_text(write_grid_csv(path, grid))
    header, *rows = path.read_text().splitlines()
    rows.sort(key=lambda line: -float(line.split(",")[1]))
    path.write_text("\n".join([header] + rows) + "\n")
    back = read_grid_csv(path, drive_power=spec.drive_power)
    assert np.allclose(back.spec.omega_s_values, spec.omega_s_values)
    assert np.allclose(back.spec.omega_d_values, spec.omega_d_values)
    assert np.allclose(back.values, grid.values, atol=1e-12)


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
    spec = wide_spec(4, 3)
    path = tmp_path / "grid.csv"
    text = write_grid_csv(path, simulate_crossing(CAV, ENS, NI, spec, 0.0,
                                                  seed=0))
    path.write_text("\n".join(edit(text.splitlines())) + "\n")
    with pytest.raises(ParseError, match=message):
        read_grid_csv(path, drive_power=spec.drive_power)


def test_fit_json_is_strict(tmp_path):
    spec = wide_spec(5, 5)
    init = FitResult(*guess_from(CAV, ENS, NI, spec), objective_value=math.inf,
                     iterations=0, converged=False)
    text = render_json(tmp_path / "fit.json", fit_result_to_dict(init))
    assert json.loads(text, parse_constant=pytest.fail)["objective_value"] \
        is None
    broken = replace(init, nonideal=replace(init.nonideal, psi=math.nan))
    with pytest.raises(NonFiniteOutput, match="broken.json"):
        render_json(tmp_path / "broken.json", fit_result_to_dict(broken))

