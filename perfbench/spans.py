"""Span tracer: per-layer timing from the benchmark's side of each call.

The tracer wraps the public functions and methods of the package's layer
modules (``model``, ``riccati``, ``control``, ``wealth``, ``misspec``,
``analysis``, ``cli``) and records one span per call: name, start, end,
parent span and op id.  Nothing inside the package changes; the wrappers
are installed by rebinding names and removed again on exit.

A name is rebound wherever it is looked up: in its defining module, in
every package module that imported it (``from .riccati import solve_D``
binds a second name inside ``control``), in module-level dicts such as the
CLI command table, and on the class for methods.  A name that does not
exist is not wrapped, and every metric built only from missing names is
reported as absent.

Self time of a span is its duration minus the durations of its children.
Calls within one process are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass, is_dataclass, replace

import numpy as np

LAYERS = ("model", "riccati", "control", "wealth", "misspec", "analysis", "cli")
ROOT = "bench.op"

# ExactStepper.step runs once per time step inside simulate's loop; its cost
# is part of the simulation hot path and stays in the simulate span, so the
# model layer measures only validation, normalization and factorization.
EXCLUDED = frozenset({"model.ExactStepper.step"})

NO_ERROR, ERROR, BLOWUP = 0, 1, 2

# Span names grouped as the per-layer metrics read them.
SOLVE = ("riccati.solve", "riccati.solve_A", "riccati.solve_D")
RHS = ("riccati.rhs", "misspec.rhs", "analysis.rhs")
LOOKUP = (
    "riccati.RiccatiSolution.interpolate",
    "riccati.RiccatiSolution.trace_integral_at",
    "riccati.RiccatiSolution.at_many",
)
POSITION = ("control.StrategySpec.position", "control.optimal_position", "control.position_from_A")
VALUE = ("control.value_function", "control.value_at_mean", "control.log_utility_value")
STRATEGY = ("control.optimal_strategy", "control.solve_value")
RNG = ("wealth.path_rng", "wealth.rng_draw")


class SpanLog:
    """Spans in parallel compact arrays, plus the stack of open spans."""

    def __init__(self, blowup_types: tuple = ()):
        self.names = [ROOT]
        self._ids = {ROOT: 0}
        self.blowup_types = blowup_types
        self.op_id = -1
        self._stack: list[int] = []
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.err = array("b")
        self.size = array("q")
        self.bad = array("q")

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.err.append(NO_ERROR)
        self.size.append(0)
        self.bad.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, exc: BaseException | None = None) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        if exc is not None:
            self.err[i] = BLOWUP if isinstance(exc, self.blowup_types) else ERROR

    def clear(self) -> None:
        for arr in (self.name, self.parent, self.op, self.start, self.end,
                    self.err, self.size, self.bad):
            del arr[:]


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = end - start
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur - child


@dataclass
class Totals:
    """Per-span-name sums over the passes folded in so far.

    Rows are keyed by (name, nested_in_solve, error code); columns are
    count, self seconds, inclusive seconds, size and bad.
    """

    rows: dict
    passes: int = 0

    @classmethod
    def empty(cls) -> "Totals":
        return cls(rows={})

    def fold(self, log: SpanLog) -> None:
        """Add the spans currently in ``log`` as one pass, then clear it."""
        if len(log):
            name, parent, start, end, err, size, bad = (
                np.array(a) for a in (log.name, log.parent, log.start, log.end,
                                      log.err, log.size, log.bad))
            self_s = self_times(start, end, parent)
            solve_ids = np.array([log._ids[n] for n in SOLVE if n in log._ids], dtype=np.int32)
            parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
            nested = np.isin(parent_name, solve_ids)
            key = (name.astype(np.int64) * 2 + nested) * 4 + err
            uniq, inv = np.unique(key, return_inverse=True)
            cols = [np.bincount(inv, minlength=uniq.size)]
            for vals in (self_s, end - start, size, bad):
                cols.append(np.bincount(inv, weights=vals, minlength=uniq.size))
            for k, u in enumerate(uniq.tolist()):
                row_key = (log.names[u // 8], bool((u // 4) % 2), u % 4)
                row = self.rows.setdefault(row_key, np.zeros(5))
                row += [c[k] for c in cols]
        log.clear()
        self.passes += 1

    def sum(self, names, col: int, nested: bool | None = None, err: int | None = None) -> float:
        """Column total over spans whose name is in ``names`` or, for a
        string ending in '.', whose name starts with it."""
        total = 0.0
        for (name, is_nested, code), row in self.rows.items():
            if isinstance(names, str):
                if not name.startswith(names):
                    continue
            elif name not in names:
                continue
            if nested is not None and is_nested != nested:
                continue
            if err is not None and code != err:
                continue
            total += row[col]
        return total


COUNT, SELF, INCL, SIZE, BAD = range(5)


def _ratio(num: float, base: float, scale: float) -> float:
    return scale * num / base if base else 0.0


# Each metric: name, unit, source span names (absent when none of them was
# wrapped), value from Totals summed over passes, and for ratios the name of
# the metric that is its base.  Values are reported per pass.
def _metric_table():
    s = Totals.sum
    return [
        ("riccati.solves", "count", SOLVE, lambda t: s(t, SOLVE, COUNT, nested=False), None),
        ("riccati.solve_self_s", "s", SOLVE, lambda t: s(t, SOLVE, SELF), None),
        ("riccati.solve_ms_per_solve", "ms", SOLVE,
         lambda t: _ratio(s(t, SOLVE, INCL, nested=False), s(t, SOLVE, COUNT, nested=False), 1e3),
         "riccati.solves"),
        ("riccati.rhs_evals", "count", ("riccati.solve",), lambda t: s(t, RHS, COUNT), None),
        ("riccati.rhs_self_s", "s", ("riccati.solve",), lambda t: s(t, RHS, SELF), None),
        ("riccati.grid_points", "count", SOLVE, lambda t: s(t, SOLVE, SIZE, nested=False), None),
        ("riccati.blowups", "count", SOLVE,
         lambda t: s(t, SOLVE, COUNT, nested=False, err=BLOWUP), None),
        ("riccati.blowup_self_s", "s", SOLVE, lambda t: s(t, SOLVE, SELF, err=BLOWUP), None),
        ("riccati.blowup_incl_s", "s", SOLVE,
         lambda t: s(t, SOLVE, INCL, nested=False, err=BLOWUP), None),
        ("riccati.lookups", "count", LOOKUP, lambda t: s(t, LOOKUP, COUNT), None),
        ("riccati.lookup_self_s", "s", LOOKUP, lambda t: s(t, LOOKUP, SELF), None),
        ("riccati.lookup_us_per_call", "us", LOOKUP,
         lambda t: _ratio(s(t, LOOKUP, SELF), s(t, LOOKUP, COUNT), 1e6), "riccati.lookups"),
        ("riccati.self_s", "s", ("riccati.solve",), lambda t: s(t, "riccati.", SELF), None),
        ("misspec.cells", "count", ("misspec.misspec_sweep",),
         lambda t: s(t, ("misspec.misspec_sweep",), SIZE), None),
        ("misspec.failed_cells", "count", ("misspec.misspec_sweep",),
         lambda t: s(t, ("misspec.misspec_sweep",), BAD), None),
        ("misspec.ms_per_cell", "ms", ("misspec.misspec_sweep",),
         lambda t: _ratio(s(t, ("misspec.misspec_sweep",), INCL),
                          s(t, ("misspec.misspec_sweep",), SIZE), 1e3), "misspec.cells"),
        ("misspec.q_solves", "count", ("misspec.solve_Q",),
         lambda t: s(t, ("misspec.solve_Q",), COUNT), None),
        ("misspec.q_blowups", "count", ("misspec.solve_Q",),
         lambda t: s(t, ("misspec.solve_Q",), COUNT, err=BLOWUP), None),
        ("misspec.q_self_s", "s", ("misspec.solve_Q",),
         lambda t: s(t, ("misspec.solve_Q", "misspec.rhs"), SELF), None),
        ("misspec.q_blowup_ms_per_solve", "ms", ("misspec.solve_Q",),
         lambda t: _ratio(s(t, ("misspec.solve_Q",), INCL, err=BLOWUP),
                          s(t, ("misspec.solve_Q",), COUNT, err=BLOWUP), 1e3), "misspec.q_blowups"),
        ("misspec.q_converge_ms_per_solve", "ms", ("misspec.solve_Q",),
         lambda t: _ratio(s(t, ("misspec.solve_Q",), INCL, err=NO_ERROR),
                          s(t, ("misspec.solve_Q",), COUNT, err=NO_ERROR), 1e3),
         "misspec.q_solves - misspec.q_blowups"),
        ("misspec.beta_calls", "count", ("misspec.beta_matrix",),
         lambda t: s(t, ("misspec.beta_matrix",), COUNT), None),
        ("misspec.beta_self_s", "s", ("misspec.beta_matrix",),
         lambda t: s(t, ("misspec.beta_matrix",), SELF), None),
        ("misspec.self_s", "s", ("misspec.misspec_sweep",), lambda t: s(t, "misspec.", SELF), None),
        ("wealth.path_steps", "count", ("wealth.simulate",),
         lambda t: s(t, ("wealth.simulate",), SIZE), None),
        ("wealth.simulate_self_s", "s", ("wealth.simulate",),
         lambda t: s(t, ("wealth.simulate",), SELF), None),
        ("wealth.ns_per_path_step", "ns", ("wealth.simulate",),
         lambda t: _ratio(s(t, ("wealth.simulate",), INCL), s(t, ("wealth.simulate",), SIZE), 1e9),
         "wealth.path_steps"),
        ("wealth.rng_self_s", "s", ("wealth.path_rng",), lambda t: s(t, RNG, SELF), None),
        ("wealth.excluded_paths", "count", ("wealth.simulate",),
         lambda t: s(t, ("wealth.simulate",), BAD), None),
        ("wealth.decompose_self_s", "s", ("wealth.decompose",),
         lambda t: s(t, ("wealth.decompose",), SELF), None),
        ("wealth.self_s", "s", ("wealth.simulate",), lambda t: s(t, "wealth.", SELF), None),
        ("control.positions", "count", POSITION, lambda t: s(t, POSITION, COUNT), None),
        ("control.position_self_s", "s", POSITION, lambda t: s(t, POSITION, SELF), None),
        ("control.position_us_per_call", "us", POSITION,
         lambda t: _ratio(s(t, POSITION, INCL), s(t, POSITION, COUNT), 1e6), "control.positions"),
        ("control.values", "count", VALUE, lambda t: s(t, VALUE, COUNT), None),
        ("control.value_self_s", "s", VALUE, lambda t: s(t, VALUE, SELF), None),
        ("control.strategy_self_s", "s", STRATEGY, lambda t: s(t, STRATEGY, SELF), None),
        ("control.self_s", "s", POSITION + VALUE + STRATEGY, lambda t: s(t, "control.", SELF), None),
        ("analysis.calls", "count", ("analysis.",),
         lambda t: s(t, "analysis.", COUNT) - s(t, ("analysis.rhs",), COUNT), None),
        ("analysis.self_s", "s", ("analysis.",), lambda t: s(t, "analysis.", SELF), None),
        ("cli.commands", "count", ("cli.main",), lambda t: s(t, ("cli.main",), COUNT), None),
        ("cli.self_s", "s", ("cli.",), lambda t: s(t, "cli.", SELF), None),
        ("cli.write_s", "s", ("cli.write_csv",), lambda t: s(t, ("cli.write_csv",), INCL), None),
        ("model.calls", "count", ("model.",), lambda t: s(t, "model.", COUNT), None),
        ("model.self_s", "s", ("model.",), lambda t: s(t, "model.", SELF), None),
        ("bench.op_self_s", "s", (), lambda t: s(t, (ROOT,), SELF), None),
        ("trace.spans", "count", (), lambda t: s(t, "", COUNT), None),
    ]


METRICS = _metric_table()


def layer_metrics(totals: Totals, present: set) -> tuple[dict, dict, list]:
    """Per-pass metric values, the base of each ratio, and absent names.

    A source ending in '.' stands for any wrapped name of that layer.
    """
    values, bases, absent = {}, {}, []
    passes = max(totals.passes, 1)
    for name, unit, sources, fn, base in METRICS:
        if sources and not any(
            src in present or (src.endswith(".") and any(p.startswith(src) for p in present))
            for src in sources
        ):
            absent.append(name)
            continue
        value = float(fn(totals))
        values[name] = (value if base else value / passes, unit)
        if base:
            bases[name] = base
    return values, bases, absent


def _layer_of(module_name: str) -> str | None:
    layer = module_name.rsplit(".", 1)[-1]
    return layer if layer in LAYERS else None


class Tracer:
    """Installs span wrappers on a package's layer modules; a context manager."""

    def __init__(self, package: str = "meanrev"):
        self.package = package
        blowup = getattr(importlib.import_module(f"{package}.errors"), "BlowUpDetected", None)
        self.log = SpanLog(blowup_types=(blowup,) if blowup else ())
        self.present: set[str] = set()
        self._patches: list = []

    # -- hooks on particular names -------------------------------------

    def _wrap_operator(self, args, kwargs):
        """Count right-hand-side evaluations of the operator passed to solve."""
        op = args[0] if args else kwargs.get("op")
        if op is None or not is_dataclass(op) or not callable(getattr(op, "rhs", None)):
            return args, kwargs
        layer = _layer_of(getattr(op.rhs, "__module__", "") or "") or "riccati"
        traced = replace(op, rhs=self._wrap(op.rhs, f"{layer}.rhs"))
        if args:
            return (traced, *args[1:]), kwargs
        return args, {**kwargs, "op": traced}

    def _traced_generator(self, gen, i):
        return _TracedGenerator(gen, self._draw)

    def _record_size(self, out, i):
        log = self.log
        if hasattr(out, "tau_grid"):
            log.size[i] = len(out.tau_grid)
        elif hasattr(out, "n_paths") and hasattr(out, "n_steps"):
            log.size[i] = int(out.n_paths) * int(out.n_steps)
            log.bad[i] = int(getattr(out, "n_excluded", 0))
        elif hasattr(out, "cells") and hasattr(out, "failures"):
            log.size[i] = int(np.size(out.cells))
            log.bad[i] = len(out.failures)
        return out

    def _hooks(self, name):
        if name == "riccati.solve":
            return self._wrap_operator, self._record_size
        if name == "wealth.path_rng":
            return None, self._traced_generator
        if name in SOLVE or name in ("wealth.simulate", "misspec.misspec_sweep"):
            return None, self._record_size
        return None, None

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        log = self.log
        nid = log.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not log._stack:  # only calls made inside a benchmark op
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            i = log.open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                log.close(i, exc)
                raise
            log.close(i)
            if after is not None:
                out = after(out, i)
            return out

        return traced

    def _targets(self):
        """(span name, owner, attribute, function) for every name to wrap."""
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{self.package}.{layer}")
            except ImportError:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{layer}.{attr}", mod, attr, obj
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            yield f"{layer}.{attr}.{meth}", obj, meth, fn

    def install(self) -> "Tracer":
        wrapped = {}
        for name, owner, attr, fn in self._targets():
            if name in EXCLUDED:
                continue
            before, after = self._hooks(name)
            wrapper = self._wrap(fn, name, before, after)
            self.present.add(name)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
            else:
                wrapped[id(fn)] = (fn, wrapper)
        self._draw = self._wrap(lambda gen, *a, **k: gen.standard_normal(*a, **k), "wealth.rng_draw")
        if "riccati.solve" in self.present:
            self.present.update(RHS)
        if "wealth.path_rng" in self.present:
            self.present.add("wealth.rng_draw")
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        hit = wrapped.get(id(val))
                        if hit is not None and hit[0] is val:
                            self._patch(obj, key, hit[1])
        return self

    def _patch(self, owner, key, new):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, old = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


class _TracedGenerator:
    """A numpy Generator whose standard_normal draws are recorded as spans."""

    def __init__(self, gen, draw):
        self._gen = gen
        self._draw = draw

    def standard_normal(self, *args, **kwargs):
        return self._draw(self._gen, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)
