"""Outside-in tracer for rubymag.

The tracer wraps public rubymag functions from outside the package: nothing in
``src/`` knows it exists.  Each call of a wrapped function records one span
(name, start, end, parent span, operation id) in typed arrays; the spans are
written once, when the traced process ends, and reduced to per-function self
times by ``function_totals``.

A function imported with ``from .x import f`` is a second reference to the same
object, so the wrapper is bound in every rubymag module that holds the original
(``magnetometry.eigensolve`` and ``thermal.eigensolve`` are ``spins.eigensolve``).

Every span stores two intervals: the inner one ``[t0, t1]`` around the wrapped
call, which is the span's own duration, and the outer one ``[o0, o1]`` around
the whole wrapper, which is what a parent subtracts from its self time.  The
wrapper's bookkeeping therefore lands in no layer's self time.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from array import array

import numpy as np

# (module, attribute) of every traced function; the module is the layer.
TARGETS = (
    ("cli", "main"),
    ("config", "parse_config"),
    ("config", "RunConfig.ensemble"),
    ("spins", "eigensolve"),
    ("spins", "energy_level_sweep"),
    ("thermal", "boltzmann_populations"),
    ("cavity", "interaction_term"),
    ("cavity", "reflection_coefficient"),
    ("fitting", "evaluate_model_grid"),
    ("fitting", "objective_l1"),
    ("fitting", "fit_crossing"),
    ("fitting", "minimize"),
    ("fitting", "read_grid_csv"),
    ("fitting", "write_grid_csv"),
    ("fitting", "simulate_crossing"),
    ("iqnoise", "read_spectrum_csv"),
    ("iqnoise", "predict_noise_psd"),
    ("magnetometry", "bias_sweep_trace"),
    ("magnetometry", "spin_frequency_vs_field"),
    ("magnetometry", "dispersive_slope"),
    ("calibration", "linear_calibration"),
)
NAMES = tuple(f"{module}.{attr}" for module, attr in TARGETS)
LAYERS = ("cli", "config", "spins", "thermal", "cavity", "fitting", "iqnoise",
          "magnetometry", "calibration")


def _observe(name: str):
    """(work, value) extracted from a traced call's result, or None."""
    if name == "cavity.interaction_term":
        return lambda r: (float(np.size(r)), math.nan)
    if name == "fitting.objective_l1":
        return lambda r: (0.0, float(r))
    if name == "fitting.fit_crossing":
        return lambda r: (float(r.iterations), float(r.objective_value))
    return None


class Tracer:
    """Span recorder; ``op`` is the operation id stamped on new spans."""

    def __init__(self):
        self.op = -1
        self._ids = itertools.count()
        self._stack = [-1]
        self.cols = {key: array(code) for key, code in (
            ("id", "q"), ("name", "i"), ("parent", "q"), ("op", "i"),
            ("o0", "d"), ("t0", "d"), ("t1", "d"), ("o1", "d"),
            ("work", "d"), ("value", "d"), ("error", "b"))}

    def _wrap(self, index: int, fn, observe):
        clock = time.perf_counter
        stack, ids, c = self._stack, self._ids, self.cols
        tracer = self

        def record(span, parent, op, o0, t0, t1, work, value, error):
            c["id"].append(span)
            c["name"].append(index)
            c["parent"].append(parent)
            c["op"].append(op)
            c["o0"].append(o0)
            c["t0"].append(t0)
            c["t1"].append(t1)
            c["work"].append(work)
            c["value"].append(value)
            c["error"].append(error)
            c["o1"].append(clock())

        def traced(*args, **kwargs):
            o0 = clock()
            span = next(ids)
            parent = stack[-1]
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                record(span, parent, tracer.op, o0, t0, t1, 0.0, math.nan, 1)
                raise
            t1 = clock()
            stack.pop()
            work, value = observe(result) if observe else (0.0, math.nan)
            record(span, parent, tracer.op, o0, t0, t1, work, value, 0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded rubymag module that binds it."""
        import rubymag.cli  # noqa: F401  (loads every module of the package)

        modules = [m for n, m in sys.modules.items()
                   if n.startswith("rubymag.") and m is not None]
        for index, ((module, attr), name) in enumerate(zip(TARGETS, NAMES)):
            owner = sys.modules["rubymag." + module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self._wrap(index, getattr(cls, method),
                                                _observe(name)))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(index, original, _observe(name))
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapped)

    def dump(self, path, **meta) -> None:
        """Write the spans and ``meta`` (numbers only) to an ``.npz`` file."""
        arrays = {key: np.frombuffer(col, dtype=col.typecode
                                     if col.typecode != "b" else np.int8)
                  for key, col in self.cols.items()}
        for key, value in meta.items():
            arrays["meta_" + key] = np.asarray(value, dtype=float)
        np.savez(path, **arrays)


def load_spans(path) -> dict:
    """Span columns, ordered by span id, from a file written by ``dump``."""
    with np.load(path) as data:
        cols = {k: data[k] for k in data.files if not k.startswith("meta_")}
    order = np.argsort(cols["id"], kind="stable")
    cols = {k: v[order] for k, v in cols.items()}
    if cols["id"].size and not np.array_equal(cols["id"],
                                              np.arange(cols["id"].size)):
        raise ValueError(f"{path}: span ids are not contiguous")
    return cols


def self_times(cols: dict) -> np.ndarray:
    """Per span: inner duration minus the outer intervals of its children."""
    dur = cols["t1"] - cols["t0"]
    child = cols["parent"] >= 0
    covered = np.zeros(dur.size)
    np.add.at(covered, cols["parent"][child],
              (cols["o1"] - cols["o0"])[child])
    return dur - covered


def function_totals(cols: dict) -> dict:
    """Per traced function: calls, self seconds, wall seconds, work, errors."""
    self_s = self_times(cols)
    out = {}
    for index, name in enumerate(NAMES):
        sel = cols["name"] == index
        out[name] = {
            "calls": int(sel.sum()),
            "self_s": float(self_s[sel].sum()),
            "wall_s": float((cols["t1"] - cols["t0"])[sel].sum()),
            "work": float(cols["work"][sel].sum()),
            "errors": int(cols["error"][sel].sum()),
        }
    return out


def useful_eval_fraction(cols: dict) -> list[float]:
    """Per fit: index of the first objective evaluation that reaches the
    fit's final objective, divided by the fit's evaluation count."""
    fit = NAMES.index("fitting.fit_crossing")
    obj = NAMES.index("fitting.objective_l1")
    out = []
    for span in np.flatnonzero(cols["name"] == fit):
        lo, hi = cols["t0"][span], cols["t1"][span]
        sel = (cols["name"] == obj) & (cols["t0"] >= lo) & (cols["t1"] <= hi)
        values = cols["value"][sel][np.argsort(cols["t0"][sel])]
        if values.size == 0:
            continue
        best = cols["value"][span]
        first = int(np.argmax(values <= best)) + 1
        out.append(first / values.size)
    return out
