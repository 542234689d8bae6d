"""rubymag benchmark: one seeded workload, checked, with every metric printed.

    python3 bench/run.py --workload {fit,cli} --seed N --seconds S \
        --trace {0,1}

Run it from anywhere inside a source tree that has ``src/rubymag``; nothing is
installed or built.  Working files go to ``.bench_out/`` at the tree's root
and are removed at the end, apart from one JSON record per run in
``.bench_out/results/``.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer ones with ``--trace 1``).  The line before it is
the full record: every metric with its unit, the latency tail where a run has
enough operations, the error rate, per-function layer figures and the
environment.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PY = sys.executable

CLI_CYCLE = ("report", "eigen", "crossing-sim", "noise-predict", "sensitivity",
             "optimize", "calibrate")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RUBYMAG_OUTDIR", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


ENV = child_env()


class Child:
    """One finished subprocess: spawn stamp, wall time, exit code, output."""

    def __init__(self, args, cwd: Path):
        cwd.mkdir(parents=True, exist_ok=True)
        self.spawn = time.monotonic()
        try:
            proc = subprocess.run(args, cwd=cwd, env=ENV, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            self.code, self.stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired as exc:
            self.code = None
            self.stderr = f"timed out after {exc.timeout} s"
        self.wall = time.monotonic() - self.spawn
        self.cwd = cwd

    def problems(self) -> list:
        """Non-zero exit and stderr ERROR lines."""
        out = []
        if self.code != 0:
            out.append(f"exit code {self.code}: {self.stderr.strip()[-300:]}")
        out += [line for line in self.stderr.splitlines()
                if line.startswith("ERROR")]
        return out


def cli_args(command: str, config: Path, extra=(), spans: Path | None = None,
             op: int = 0) -> list:
    """Untraced: ``python3 -m rubymag.cli``; traced: through the launcher."""
    tail = [command, "--config", str(config), *extra]
    if spans is None:
        return [PY, "-m", "rubymag.cli", *tail]
    return [PY, str(BENCH / "launcher.py"), str(SRC), str(spans), str(op),
            *tail]


def checked(child: Child, check) -> list:
    """Child problems, then the output check's (an exception is a problem)."""
    problems = child.problems()
    if problems:
        return problems
    try:
        return check()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"output check raised {type(exc).__name__}: {exc}"]


class SetupFailed(RuntimeError):
    """Set-up could not produce the inputs; the run prints no result."""


# --- workloads -------------------------------------------------------------------
#
# Each workload returns a dict with: setup (list of seconds), children (one
# finished subprocess per operation), window_s (wall of the timed loop),
# problems (per operation) and, when traced, traced (the traced operations).
# collect_children turns the children into latencies, spans and start-up stamps.


def closed_loop(seconds: float, op, whole=1) -> tuple[list, float]:
    """Run ``op(k)`` back to back until ``seconds`` have passed, in whole
    groups of ``whole`` operations; at least one group."""
    results = []
    start = time.monotonic()
    k = 0
    while k == 0 or time.monotonic() - start < seconds:
        for _ in range(whole):
            results.append(op(k))
            k += 1
    return results, time.monotonic() - start


def workload_fit(run: Path, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import inputs

    data = run / "data"

    def setup() -> tuple[float, dict]:
        t = time.monotonic()
        spec = inputs.fit_inputs()
        data.mkdir(parents=True, exist_ok=True)
        inputs.write_json(data / "truth.json", spec["truth"])
        inputs.write_json(data / "guess.json", spec["guess"])
        child = Child(cli_args("crossing-sim", data / "truth.json"), data)
        return time.monotonic() - t, {"spec": spec, "child": child}

    samples = [setup() for _ in range(1 if trace else SETUP_REPEATS)]
    spec = samples[-1][1]["spec"]
    truth = spec["truth"]
    sim = checked(samples[-1][1]["child"], lambda: checks.check_crossing(
        data, inputs.si_params(truth), truth["run"]["master_seed"]))
    if sim:
        raise SetupFailed(f"crossing-sim: {sim}")

    def op(traced=False):
        def run_op(k):
            cwd = run / (f"traced_{k}" if traced else f"op_{k}")
            spans = cwd / "spans.npz" if traced else None
            child = Child(cli_args("crossing-fit", data / "guess.json",
                                   ("--input", str(data / "crossing.csv")),
                                   spans, k), cwd)
            child.command = "crossing-fit"
            return child
        return run_op

    quality = []

    def check_fit(child):
        problems, q = checks.check_fit(child.cwd, spec["expected"],
                                       inputs.FIT_TOLERANCE, spec["noise_l1"])
        quality.append(q)
        return problems

    children, window = closed_loop(seconds, op())
    result = {"setup": [s for s, _ in samples], "children": children,
              "window_s": window}
    if trace:
        result["traced"], _ = closed_loop(seconds, op(traced=True))
    result["problems"] = [checked(c, lambda c=c: check_fit(c))
                          for c in children + result.get("traced", [])]
    result["fit_quality"] = quality
    return result


def workload_cli(run: Path, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import inputs

    data = run / "data"
    pkg_data = SRC / "rubymag" / "data"

    def setup() -> tuple[float, dict]:
        t = time.monotonic()
        spec = inputs.cli_inputs(seed)
        data.mkdir(parents=True, exist_ok=True)
        inputs.write_json(data / "config.json", spec["config"])
        inputs.write_calibration_csv(data / "calibration.csv",
                                     spec["currents"], spec["fields"])
        child = Child(cli_args("report", data / "config.json"), run / "warm")
        return time.monotonic() - t, {"spec": spec, "child": child}

    samples = [setup() for _ in range(1 if trace else SETUP_REPEATS)]
    spec = samples[-1][1]["spec"]
    warm = samples[-1][1]["child"].problems()
    if warm:
        raise SetupFailed(f"report: {warm}")
    p = inputs.si_params(spec["config"])
    cal = ("--input", str(data / "calibration.csv"))

    def op(traced=False):
        def run_op(k):
            command = CLI_CYCLE[k % len(CLI_CYCLE)]
            cwd = run / (f"traced_{k}" if traced else f"op_{k}")
            spans = cwd / "spans.npz" if traced else None
            extra = cal if command == "calibrate" else ()
            child = Child(cli_args(command, data / "config.json", extra,
                                   spans, k), cwd)
            child.command = command
            return child
        return run_op

    verify = {
        "report": lambda d: checks.check_report(d, p),
        "eigen": lambda d: checks.check_eigen(d, p),
        "crossing-sim": lambda d: checks.check_crossing(d, p, seed),
        "noise-predict": lambda d: checks.check_noise(d, p, pkg_data),
        "sensitivity": lambda d: checks.check_sensitivity(d, p),
        "optimize": lambda d: checks.check_optimize(d, p),
        "calibrate": lambda d: checks.check_calibrate(
            d, p, spec["currents"], spec["fields"]),
    }
    whole = len(CLI_CYCLE)
    children, window = closed_loop(seconds, op(), whole)
    result = {"setup": [s for s, _ in samples], "children": children,
              "window_s": window}
    if trace:
        result["traced"], _ = closed_loop(seconds, op(traced=True), whole)
    result["problems"] = [
        checked(c, lambda c=c: verify[c.command](c.cwd))
        for c in children + result.get("traced", [])]
    return result


WORKLOADS = {"fit": workload_fit, "cli": workload_cli}


# --- metrics ---------------------------------------------------------------------

def tail(latencies: list) -> dict | None:
    """Highest of p90/p95/p99/p99.9 with at least ten samples beyond it."""
    n = len(latencies)
    for q in (99.9, 99.0, 95.0, 90.0):
        if n * (1.0 - q / 100.0) >= 10:
            value = statistics.quantiles(latencies, n=1000)[int(q * 10) - 1]
            beyond = sum(1 for x in latencies if x > value)
            return {"percentile": q, "value_s": value, "samples": n,
                    "samples_beyond": beyond}
    return None


def end_to_end(res: dict) -> tuple[dict, dict]:
    """(contract metrics, extra figures) of an untraced run."""
    lat = res["latencies"]
    metrics = {
        "latency_p50_s": statistics.median(lat),
        "ops_per_s": len(lat) / res["window_s"],
        "setup_s": statistics.median(res["setup"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        / 1024.0,
    }
    extra = {"latency_tail_s": tail(lat), "latencies_s": lat,
             "setup_samples": res["setup"]}
    return metrics, extra


def layer_metrics(res: dict) -> tuple[dict, dict]:
    """(per-layer contract metrics, per-function detail) of a traced run."""
    import tracer

    totals, fractions = None, []
    for path in res["spans"]:
        cols = tracer.load_spans(path)
        part = tracer.function_totals(cols)
        fractions += tracer.useful_eval_fraction(cols)
        if totals is None:
            totals = part
        else:
            for name, row in part.items():
                for key, value in row.items():
                    totals[name][key] += value
    n_ops = len(res["traced_latencies"])
    wall = sum(res["traced_latencies"])
    per_op = lambda x: x / n_ops  # noqa: E731

    detail = {}
    for name, row in totals.items():
        detail[f"{name}.calls"] = per_op(row["calls"])
        detail[f"{name}.self_ms"] = per_op(row["self_s"]) * 1e3
        if row["calls"]:
            detail[f"{name}.us_per_call"] = row["self_s"] / row["calls"] * 1e6
    module_self = {layer: 0.0 for layer in tracer.LAYERS}
    module_errors = dict.fromkeys(tracer.LAYERS, 0)
    for name, row in totals.items():
        layer = name.split(".")[0]
        module_self[layer] += row["self_s"]
        module_errors[layer] += row["errors"]
    evals = totals["fitting.objective_l1"]["calls"]
    fit = totals["fitting.fit_crossing"]
    startup = res["startup"]
    metrics = {
        "cli.interpreter_s": statistics.median(s for s, _ in startup),
        "cli.import_s": statistics.median(i for _, i in startup),
        **{f"{layer}.busy_frac": module_self[layer] / wall
           for layer in tracer.LAYERS},
        **{f"{name}.calls": per_op(totals[name]["calls"]) for name in (
            "config.RunConfig.ensemble", "spins.eigensolve",
            "thermal.boltzmann_populations", "cavity.interaction_term",
            "fitting.evaluate_model_grid", "fitting.minimize",
            "magnetometry.bias_sweep_trace")},
        "cavity.interaction_term.points":
            per_op(totals["cavity.interaction_term"]["work"]),
        "fitting.fit_crossing.iterations": per_op(fit["work"]),
        "fitting.useful_eval_frac":
            statistics.median(fractions) if fractions else 0.0,
        **{f"{layer}.errors": per_op(module_errors[layer])
           for layer in tracer.LAYERS},
        "trace.overhead_frac": statistics.median(res["traced_latencies"])
        / statistics.median(res["latencies"]) - 1.0,
    }
    detail["fitting.fit_crossing.self_s"] = per_op(fit["self_s"])
    detail["fitting.fit_crossing.wall_s"] = per_op(fit["wall_s"])
    if evals:
        detail["fitting.fit_crossing.us_per_eval"] = fit["wall_s"] / evals * 1e6
    for layer in tracer.LAYERS:
        detail[f"{layer}.self_ms"] = per_op(module_self[layer]) * 1e3
    for command, walls in res.get("command_walls", {}).items():
        detail[f"cli.{command}.s"] = statistics.median(walls)
    return metrics, detail


def collect_children(res: dict) -> None:
    """Latencies, spans and start-up stamps of the child processes."""
    res["latencies"] = [c.wall for c in res["children"]]
    if "traced" not in res:
        return
    traced = res["traced"]
    res["traced_latencies"] = [c.wall for c in traced]
    res["spans"], res["startup"], res["command_walls"] = [], [], {}
    import numpy as np

    for c in traced:
        path = c.cwd / "spans.npz"
        if not path.is_file():
            continue
        res["spans"].append(path)
        with np.load(path) as f:
            res["startup"].append((float(f["meta_started"]) - c.spawn,
                                   float(f["meta_import_s"])))
        res["command_walls"].setdefault(c.command, []).append(c.wall)


# --- environment -----------------------------------------------------------------

def environment(seed: int) -> dict:
    import numpy

    from importlib import metadata

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "rubymag").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of a git checkout at ROOT, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# --- main ------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rubymag" / "cli.py").is_file():
        print(f"run.py: no rubymag sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    # on SIGTERM unwind normally: subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    run = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(run, ignore_errors=True)
    try:
        res = WORKLOADS[args.workload](run, args.seed, args.seconds,
                                       bool(args.trace))
        collect_children(res)
        problems = res["problems"]
        failed = sum(1 for p in problems if p)
        record = {"workload": args.workload, "trace": args.trace,
                  "attempted": len(problems), "failed": failed,
                  "error_rate": failed / len(problems),
                  "problems": [p for p in problems if p][:10]}
        if args.trace:
            metrics, detail = layer_metrics(res)
            record["layers"] = detail
        else:
            metrics, extra = end_to_end(res)
            record.update(extra)
            if res.get("fit_quality"):
                q = res["fit_quality"]
                record["fit_objective"] = statistics.median(
                    x["objective"] for x in q)
                record["fit_param_err"] = max(x["param_err"] for x in q)
                record["fit_param_errors"] = q
        walls = record["command_latency_s"] = {}
        for c in res["children"]:
            walls.setdefault(c.command, []).append(c.wall)
    except SetupFailed as exc:
        print(f"run.py: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run, ignore_errors=True)

    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        print(f"run.py: metrics {sorted(metrics)} do not match BENCHMARK.json"
              f" {sorted(units)}", file=sys.stderr)
        return 1
    record["metrics"] = {k: {"value": metrics[k], "unit": units[k]}
                         for k in units}
    record["environment"] = environment(args.seed)
    record["environment"]["samples"] = {
        "operations": len(res["latencies"]),
        "traced_operations": len(res.get("traced_latencies", [])),
        "setup": len(res["setup"])}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
               f"-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1, allow_nan=False) + "\n")
    print(json.dumps(record, allow_nan=False))
    print(json.dumps({"correct": failed == 0, "attempted": len(problems),
                      "failed": failed, "metrics": record["metrics"]},
                     allow_nan=False))
    return 0


def declared_units(section: str) -> dict:
    """Metric name -> unit, in BENCHMARK.json's order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


if __name__ == "__main__":
    raise SystemExit(main())
