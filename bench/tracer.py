"""In-memory span tracing around the package's public functions.

The program itself carries no trace hooks, so the tracer replaces the
public functions of ``cli``, ``logic``, ``automata``, ``linrep`` and
``core`` (and ``logic.Compiler.compile``, named per formula node) with
wrappers for the duration of a traced run.  The modules call one another
through module attributes, so nested calls pass through the wrappers too.

Each span is (name, start, end, parent, item, attrs).  A few functions
also record deterministic work counts in ``attrs`` (state counts, digit
counts, sweep sizes); the per-layer metrics are derived from these and
from self time, i.e. span time minus the time covered by child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

MODULES = ("cli", "logic", "automata", "linrep", "core")

AUTOMATA_OPS = ("product", "project", "complement", "zero_close", "minimize")
COMPILE_NODES = ("Compare", "SeqCompare", "Not", "And", "Or", "Implies",
                 "Iff", "Exists", "Forall", "Call")
LINREP_OPS = ("extract_counting", "minimize_rep", "evaluate", "equal_reps")


def _minimize_attrs(bound, result):
    a = bound.arguments["a"]
    return {"states_in": a.num_states, "symbols": a.num_symbols,
            "states_out": result.num_states}


def _minimize_rep_attrs(bound, result):
    return {"dim_in": bound.arguments["rep"].dim, "dim_out": result.dim}


def _evaluate_attrs(bound, result):
    # The representation reads the canonical binary digits of n.
    return {"digits": bound.arguments["n"].bit_length()}


def _sweep_attrs(bound, result):
    length, window = bound.arguments["length"], bound.arguments["window"]
    return {"length": length, "window": window,
            "positions": window - length + 1}


# Counters recorded at call boundaries, keyed by span name.
ATTR_HOOKS = {
    "automata.minimize": _minimize_attrs,
    "linrep.minimize_rep": _minimize_rep_attrs,
    "linrep.evaluate": _evaluate_attrs,
    "core.classify_all_factors": _sweep_attrs,
}


class Tracer:
    """Owns the span list and the wrapped functions of one traced run."""

    def __init__(self):
        self.spans: list = []
        self.item = "setup"
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn, name_of=None):
        hook = ATTR_HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name_of(args) if name_of else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span_name, start, end, parent, self.item, None)
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[idx] = spans[idx][:5] + (hook(bound, result),)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every public function defined in each module, plus
        ``Compiler.compile`` whose spans are named by formula node."""
        for short in MODULES:
            mod = modules[short]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                setattr(mod, attr, self._wrap(f"{short}.{attr}", obj))
                self._restore.append((mod, attr, obj))
        compiler = modules["logic"].Compiler
        original = compiler.compile
        compiler.compile = self._wrap(
            "logic.compile", original,
            name_of=lambda args: f"logic.compile.{type(args[1]).__name__}")
        self._restore.append((compiler, "compile", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, item, attrs in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": round(start - origin, 9),
                    "end": round(end - origin, 9), "parent": parent,
                    "item": item, "attrs": attrs}) + "\n")


def self_times(spans) -> list[float]:
    """Span duration minus the duration of its direct children.  Spans of
    one thread nest properly, so children never overlap."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one span list."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for (name, *_), t in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t

    out: dict[str, float] = {}

    def timed(name):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)

    for op in AUTOMATA_OPS:
        timed(f"automata.{op}")
    for node in COMPILE_NODES:
        timed(f"logic.compile.{node}")
    timed("logic.parse_formula")
    for op in LINREP_OPS:
        timed(f"linrep.{op}")
    timed("core.classify_all_factors")
    timed("core.generate_prefix")

    states_in = states_out = raw_states = raw_cells = subset_states = 0
    digit_steps = dim_in = dim_out = positions = 0
    sweeps_per_item: dict[str, set] = {}
    for name, _, _, parent, item, attrs in spans:
        if attrs is None:  # no counters for a call that raised
            continue
        if name == "automata.minimize":
            states_in += attrs["states_in"]
            states_out += attrs["states_out"]
            caller = spans[parent][0] if parent >= 0 else None
            if caller == "automata.product":
                raw_states = max(raw_states, attrs["states_in"])
                raw_cells = max(raw_cells,
                                attrs["states_in"] * attrs["symbols"])
            elif caller == "automata.project":
                subset_states = max(subset_states, attrs["states_in"])
        elif name == "linrep.evaluate":
            digit_steps += attrs["digits"]
        elif name == "linrep.minimize_rep":
            dim_in += attrs["dim_in"]
            dim_out += attrs["dim_out"]
        elif name == "core.classify_all_factors":
            positions += attrs["positions"]
            sweeps_per_item.setdefault(item, set()).add(
                (attrs["length"], attrs["window"]))

    out["automata.minimize.states_in"] = states_in
    out["automata.minimize.states_out"] = states_out
    out["automata.product.raw_states_max"] = raw_states
    out["automata.product.raw_cells_max"] = raw_cells
    out["automata.project.subset_states_max"] = subset_states
    out["linrep.evaluate.digit_steps"] = digit_steps
    out["linrep.minimize_rep.dim_in"] = dim_in
    out["linrep.minimize_rep.dim_out"] = dim_out
    out["core.classify_all_factors.positions"] = positions
    sweeps = calls.get("core.classify_all_factors", 0)
    distinct = sum(len(s) for s in sweeps_per_item.values())
    out["core.classify_all_factors.distinct_ratio"] = (
        distinct / sweeps if sweeps else 0.0)
    return out
