"""Spans around the calls into each bittune layer, taken from outside.

The tracer replaces functions by module attribute, so a span opens
wherever a caller looks the name up at call time: `cli.tune`,
`tuner.analyze_ranges`, `nbody.run_tuned`, `flow.check_defined_before_use`
(which `parse_program` imports when it runs), and so on.  A name that a
later refactor removes is skipped and listed in `missing`; its layer
then records zero calls.

Spans stay in memory as (name, start, end, parent, op) and are written
out once, at the end of the run.  The multiple-precision entry points
are called millions of times, so they get no span of their own:
`mpfloat` time and calls are summed into the innermost open span, and
only the outermost call of a nested chain counts.

A layer's self time is the duration of its spans minus the time their
child spans and the `mpfloat` calls inside them cover.  The root span is
`cli.main`, so the self times of all layers add up to the traced
invocation time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module, attribute, span name).  The layer is the span name's prefix.
SPANNED = [
    ("cli", "tune", "tuner.tune"),
    ("cli", "run_experiment", "nbody.run_experiment"),
    ("cli", "parse_program", "parse.parse_program"),
    ("tuner", "parse_program", "parse.parse_program"),
    ("nbody", "parse_program", "parse.parse_program"),
    ("flow", "check_defined_before_use", "flow.check_defined_before_use"),
    ("cli", "build_links", "flow.build_links"),
    ("tuner", "build_links", "flow.build_links"),
    ("nbody", "build_links", "flow.build_links"),
    ("cli", "analyze_ranges", "interp.ranges"),
    ("tuner", "analyze_ranges", "interp.ranges"),
    ("nbody", "analyze_ranges", "interp.ranges"),
    ("tuner", "run_reference", "interp.reference"),
    ("nbody", "run_reference", "interp.reference"),
    ("cli", "run_tuned", "interp.tuned"),
    ("tuner", "run_tuned", "interp.tuned"),
    ("nbody", "run_tuned", "interp.tuned"),
    ("cli", "gen_ilp", "constraints.c1"),
    ("tuner", "gen_ilp", "constraints.c1"),
    ("nbody", "gen_ilp", "constraints.c1"),
    ("cli", "gen_refined", "constraints.c2"),
    ("tuner", "gen_refined", "constraints.c2"),
    ("nbody", "gen_refined", "constraints.c2"),
    ("tuner", "solve_monotone", "solver.monotone"),
    ("nbody", "solve_monotone", "solver.monotone"),
    ("tuner", "policy_iterate", "solver.pi"),
    ("nbody", "policy_iterate", "solver.pi"),
    ("solver", "solve_ilp", "solver.bb"),
    ("cli", "emit_annotated", "render.emit_annotated"),
    ("cli", "emit_mp_code", "codegen.emit_mp_code"),
    ("cli", "export_lp", "lpfile.export_lp"),
]

# Summed, not spanned: every arithmetic entry point the interpreter and
# the emitted scripts use.  Comparisons (MPValue.__lt__ and friends)
# stay in the caller's self time.
AGGREGATED = [
    ("mpfloat", "arith"),
    ("mpfloat", "sqrt"),
    ("mpfloat", "parse_decimal"),
    ("interp", "round_to"),
]


def _count(counts, name: str, result) -> None:
    """Exact work counts read from a layer call's result."""
    layer = name.split(".")[0]
    if name == "parse.parse_program":
        counts["parse.points"] += len(result.points)
    elif name == "flow.build_links":
        counts["flow.links"] += len(result)
    elif layer == "constraints":
        counts["constraints.rows"] += len(result.constraints)
        counts["constraints.vars"] += len(result.variables)
        counts["constraints.xi_defs"] += len(result.xi_defs)
    elif name == "solver.pi":
        counts["solver.pi_iterations"] += result[2]
    elif name == "solver.bb":
        counts["solver.bb_nodes"] += result.nodes
    elif name == "codegen.emit_mp_code":
        counts["codegen.bytes"] += len(result.encode())
    if layer in ("parse", "flow"):
        counts[f"{layer}.calls"] += 1
    if layer == "interp":
        counts["interp.passes"] += 1


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []     # (name, start, end, parent, op)
        self.agg: dict[int, float] = defaultdict(float)  # span -> mpfloat s
        self.counts: dict[str, int] = defaultdict(int)   # current op
        self.op_counts: list[dict] = []
        self.op_scale: list[float] = []  # wall seconds -> reference seconds
        self.stack: list[int] = []
        self.op = -1
        self.missing: list[str] = []
        self._restore: list[tuple] = []
        self._agg_depth = 0
        self._interps: list = []

    # --- installation -------------------------------------------------

    def install(self, modules: dict) -> None:
        for mod_name, attr, span_name in SPANNED:
            self._patch(modules, mod_name, attr, self._spanned(span_name))
        for mod_name, attr in AGGREGATED:
            self._patch(modules, mod_name, attr, self._aggregated)
        # Interpreter instances carry the step count of every pass,
        # including the range pass, whose result has none.
        self._patch(modules, "interp", "_Interp", self._collected)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _patch(self, modules, mod_name, attr, make) -> None:
        mod = modules.get(mod_name)
        orig = getattr(mod, attr, None) if mod is not None else None
        if orig is None:
            if f"{mod_name}.{attr}" not in self.missing:
                self.missing.append(f"{mod_name}.{attr}")
            return
        self._restore.append((mod, attr, orig))
        setattr(mod, attr, make(orig))

    def _spanned(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = self.open(name)
                mark = len(self._interps)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(sid)
                _count(self.counts, name, result)
                if name.startswith("interp."):
                    self.counts["interp.steps"] += sum(
                        it.steps for it in self._interps[mark:])
                    del self._interps[mark:]
                return result
            return wrapper
        return make

    def _aggregated(self, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._agg_depth:
                return fn(*args, **kwargs)
            self._agg_depth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._agg_depth = 0
                self.agg[self.stack[-1] if self.stack else -1] += dt
                self.counts["mpfloat.calls"] += 1
        return wrapper

    def _collected(self, cls):
        def make(*args, **kwargs):
            it = cls(*args, **kwargs)
            self._interps.append(it)
            return it
        return make

    # --- spans --------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.counts = defaultdict(int)
        self._interps.clear()
        self._agg_depth = 0      # a stopped invocation can leave it set

    def end_op(self, scale: float = 1.0) -> None:
        self.op_counts.append(dict(sorted(self.counts.items())))
        self.op_scale.append(scale)

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((name, time.perf_counter(), None, parent, self.op))
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        name, start, _, parent, op = self.spans[sid]
        self.spans[sid] = (name, start, time.perf_counter(), parent, op)
        while self.stack and self.stack.pop() != sid:
            pass

    # --- derived ------------------------------------------------------

    def _scale(self, op: int) -> float:
        return self.op_scale[op] if 0 <= op < len(self.op_scale) else 1.0

    def self_times(self) -> dict[str, float]:
        """Self seconds by span name, plus `mpfloat` for the summed calls,
        each scaled by its invocation's factor."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, _, op) in enumerate(self.spans):
            k = self._scale(op)
            agg = self.agg.get(sid, 0.0)
            out[name] += ((end - start) - child[sid] - agg) * k
            out["mpfloat"] += agg * k
        return dict(out)

    def inclusive(self, prefix: str) -> float:
        """Scaled duration of the spans whose name starts with prefix,
        children included."""
        return sum((end - start) * self._scale(op)
                   for name, start, end, _, op in self.spans
                   if name.startswith(prefix))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"missing": self.missing,
                       "op_counts": self.op_counts,
                       "op_scale": self.op_scale,
                       "spans": [{"name": n, "start": s, "end": e,
                                  "parent": p, "op": o}
                                 for n, s, e, p, o in self.spans]}, fh)
