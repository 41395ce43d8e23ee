"""Program execution: one lowering to pre-bound closures, two modes.

A pass lowers the program once, to one closure per control point and
per statement, with the point's width and its arithmetic kernel
(mpfloat.add_t, sub_t, mul_t, div_t or sqrt_t) bound when the closure
is built.  A visit then does no dispatch on node types or operators and
no width lookup, and a literal is parsed once per pass instead of once
per visit.  Inside a pass every value is an mpfloat triple (m, e, p);
bindings are unboxed when the pass starts, and the trace's env and
samples are boxed to MPValues when it ends.  The two modes build
different closures:

* Reference mode (run_reference) evaluates everything at one working
  precision.  Each of its closures also records, for its own control
  point, the visit count and the largest ufp seen, inline in the
  closure: ufp is monotone in |x|, so the largest ufp is the ufp of the
  largest magnitude, which is all the constraints read.  With several
  input binding sets, the run on the first gives the trace and its
  ranges; the runs on the others only add ranges.
* Tuned mode (run_tuned) evaluates every point at its solved width,
  with closures that record nothing: literals parse to the literal
  point's width, reads re-round the stored value to the read point's
  width, operations round correctly to the result point's width, and
  stores round to the target point's width.  With a uniform assignment
  it reproduces the reference bit for bit.

In both modes a read or store skips the rounding when the value already
has the point's width, which makes it a no-op.  Both keep the step cap,
the check against reading an unassigned variable and the arithmetic
domain errors of division and square root; an EvalError names the pass
(reference run or tuned run) it stopped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from . import mpfloat
from .mpfloat import (
    DEFAULT_PRECISION, MPDomainError, MPValue, box, cmp_t, round_t, unbox,
)
from .program import (
    Assign, BinOp, Compare, If, Neg, Num, Program, Require, Sqrt, Var, While,
)

MAX_STEPS = 10_000_000

REFERENCE = "reference run"
TUNED = "tuned run"


class EvalError(RuntimeError):
    def __init__(self, message: str, point: int | None = None):
        if point is not None:
            message = f"{message} (control point {point})"
        super().__init__(message)
        self.point = point


@dataclass
class UfpMap:
    """Per-point magnitudes from one or more reference runs: the largest
    ufp seen (None while every value was zero) and the visit count."""

    top: list[int | None]
    counts: list[int]
    ufp_zero: int = -DEFAULT_PRECISION

    @classmethod
    def empty(cls, n_points: int, ufp_zero: int) -> "UfpMap":
        return cls([None] * n_points, [0] * n_points, ufp_zero)

    def visited(self, point: int) -> bool:
        return self.counts[point] > 0

    def visits(self, point: int) -> int:
        return self.counts[point]

    def ufp(self, point: int) -> int:
        """ufp of the largest magnitude seen; the sentinel for all-zero points."""
        u = self.top[point]
        return self.ufp_zero if u is None else u


@dataclass
class Trace:
    env: dict[str, MPValue]
    samples: dict[str, list[MPValue]] = field(default_factory=dict)
    steps: int = 0
    ranges: UfpMap | None = None      # reference mode only


# The cmp_t results for which each comparison holds.
_COMPARE = {"<": (-1,), "<=": (-1, 0), ">": (1,), ">=": (0, 1),
            "==": (0,), "!=": (-1, 1)}
# Division has a closure of its own, as it can fail.
_KERNELS = {"+": mpfloat.add_t, "-": mpfloat.sub_t, "*": mpfloat.mul_t}


class _Interp:
    """One pass over a program lowered to closures; widths[p] is bound
    into the closure of point p when the pass is built."""

    def __init__(self, name: str, prog: Program, widths: list[int],
                 bindings=None, track=(), max_steps: int = MAX_STEPS,
                 ranges: UfpMap | None = None):
        self.name = name
        self.widths = widths
        self.max_steps = max_steps
        self.ranges = ranges
        self.steps = 0
        self.env: dict[str, tuple] = {}
        self.samples: dict[str, list[tuple]] = {v: [] for v in track}
        for var, value in (bindings or {}).items():
            if isinstance(value, str):
                value = mpfloat.parse_decimal(value, DEFAULT_PRECISION)
            self.env[var] = unbox(value)
        self.body = tuple(map(self.stmt, prog.stmts))

    def run(self) -> Trace:
        for step in self.body:
            step()
        env = {name: box(v) for name, v in self.env.items()}
        samples = {name: list(map(box, vs)) for name, vs in self.samples.items()}
        return Trace(env, samples, self.steps, self.ranges)

    def fail(self, message: str, point: int | None = None) -> EvalError:
        return EvalError(f"{self.name}: {message}", point)

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise self.fail(f"iteration cap of {self.max_steps} steps exceeded")

    # --- expressions ---------------------------------------------------

    # In reference mode a closure records its own value: it counts the
    # visit in counts[p] and raises top[p] to the value's ufp, which is
    # exp + n - 1 at width n.  Literals, reads, +, - and *, and stores
    # are most of every step, so each has one closure per mode and the
    # tuned one records nothing.  Negation, division, square root and
    # require_nsb are rare enough to share one closure that tests the
    # mode.

    def expr(self, e) -> Callable[[], tuple]:
        # One closure per node and no wrappers, so evaluation nests no
        # deeper than the expression does.
        p = e.point
        n = self.widths[p]
        fail, ranges = self.fail, self.ranges
        if ranges is not None:
            top, counts = ranges.top, ranges.counts
        if isinstance(e, Num):
            value = unbox(mpfloat.parse_decimal(e.text, n))
            if ranges is None:
                return lambda: value
            u = value[1] + n - 1 if value[0] else None

            def lit():
                counts[p] += 1
                top[p] = u                  # every visit sees the same value
                return value
            return lit
        if isinstance(e, Var):
            env, name = self.env, e.name
            if ranges is None:
                def read():
                    v = env.get(name)
                    if v is None:
                        raise fail(f"variable {name!r} read before assignment", p)
                    return v if v[2] == n else round_t(v[0], v[1], n)
                return read

            def read_noted():
                v = env.get(name)
                if v is None:
                    raise fail(f"variable {name!r} read before assignment", p)
                if v[2] != n:
                    v = round_t(v[0], v[1], n)
                counts[p] += 1
                if v[0] and (top[p] is None or v[1] + n - 1 > top[p]):
                    top[p] = v[1] + n - 1
                return v
            return read_noted
        if isinstance(e, BinOp) and e.op in _KERNELS:
            kernel, a, b = _KERNELS[e.op], self.expr(e.left), self.expr(e.right)
            if ranges is None:
                return lambda: kernel(a(), b(), n)

            def binop_noted():
                v = kernel(a(), b(), n)
                counts[p] += 1
                if v[0] and (top[p] is None or v[1] + n - 1 > top[p]):
                    top[p] = v[1] + n - 1
                return v
            return binop_noted
        if isinstance(e, Neg):
            a = self.expr(e.operand)

            def neg():
                v = mpfloat.neg_t(a(), n)
                if ranges is not None:
                    counts[p] += 1
                    if v[0] and (top[p] is None or v[1] + n - 1 > top[p]):
                        top[p] = v[1] + n - 1
                return v
            return neg
        if isinstance(e, BinOp):                    # division
            kernel, a, b = mpfloat.div_t, self.expr(e.left), self.expr(e.right)

            def div():
                x = a()
                y = b()
                try:
                    v = kernel(x, y, n)
                except MPDomainError as err:
                    raise fail(str(err), p) from err
                if ranges is not None:
                    counts[p] += 1
                    if v[0] and (top[p] is None or v[1] + n - 1 > top[p]):
                        top[p] = v[1] + n - 1
                return v
            return div
        if isinstance(e, Sqrt):
            kernel, a = mpfloat.sqrt_t, self.expr(e.arg)

            def sqrt():
                x = a()
                try:
                    v = kernel(x, n)
                except MPDomainError as err:
                    raise fail(str(err), p) from err
                if ranges is not None:
                    counts[p] += 1
                    if v[0] and (top[p] is None or v[1] + n - 1 > top[p]):
                        top[p] = v[1] + n - 1
                return v
            return sqrt
        raise TypeError(f"unexpected expression node {e!r}")

    def cond(self, c: Compare) -> Callable[[], bool]:
        a, b, holds = self.expr(c.left), self.expr(c.right), _COMPARE[c.op]
        return lambda: cmp_t(a(), b()) in holds

    # --- statements ----------------------------------------------------

    # A body is a tuple of steps that its loop or branch runs itself, and
    # map() lowers it without a Python frame of its own: lowering and
    # running a nested body each take one frame per level.

    def stmt(self, st) -> Callable[[], None]:
        tick = self.tick
        if isinstance(st, While):
            cond, body = self.cond(st.cond), tuple(map(self.stmt, st.body))

            def loop():
                tick()
                while cond():
                    for step in body:
                        step()
                    tick()
            return loop
        if isinstance(st, If):
            cond = self.cond(st.cond)
            then_body = tuple(map(self.stmt, st.then_body))
            else_body = tuple(map(self.stmt, st.else_body))

            def branch():
                tick()
                for step in then_body if cond() else else_body:
                    step()
            return branch
        if not isinstance(st, (Assign, Require)):
            raise TypeError(f"unexpected statement {st!r}")
        env, name, p = self.env, st.name, st.point
        n = self.widths[p]
        fail, ranges = self.fail, self.ranges
        if ranges is not None:
            top, counts = ranges.top, ranges.counts
        if isinstance(st, Assign):
            rhs = self.expr(st.expr)
            samples = self.samples.get(name)
            if ranges is None:
                def assign():
                    tick()
                    v = rhs()
                    if v[2] != n:
                        v = round_t(v[0], v[1], n)
                    env[name] = v
                    if samples is not None:
                        samples.append(v)
                return assign

            def assign_noted():
                tick()
                v = rhs()
                if v[2] != n:
                    v = round_t(v[0], v[1], n)
                counts[p] += 1
                if v[0] and (top[p] is None or v[1] + n - 1 > top[p]):
                    top[p] = v[1] + n - 1
                env[name] = v
                if samples is not None:
                    samples.append(v)
            return assign_noted

        def require():
            tick()
            v = env.get(name)
            if v is None:
                raise fail(f"require_nsb on unassigned variable {name!r}", p)
            if ranges is not None:
                if v[2] != n:
                    v = round_t(v[0], v[1], n)
                counts[p] += 1
                if v[0] and (top[p] is None or v[1] + n - 1 > top[p]):
                    top[p] = v[1] + n - 1
        return require


def run_reference(prog: Program, pref: int = DEFAULT_PRECISION,
                  binding_sets=(), track=(), max_steps: int = MAX_STEPS, *,
                  ufp_zero: int | None = None) -> Trace:
    """Execute every operation at pref bits and record per-point ranges.

    env, samples and steps come from the run on the first binding set
    (on no bindings when binding_sets is empty).  Each other set is run
    too, and only adds to trace.ranges.  ufp_zero is the ufp the ranges
    give points that held only zero (default -pref)."""
    ranges = UfpMap.empty(prog.n_points, -pref if ufp_zero is None else ufp_zero)
    widths = [pref] * prog.n_points
    first, *rest = binding_sets or (None,)
    trace = _Interp(REFERENCE, prog, widths, first, track, max_steps,
                    ranges).run()
    for extra in rest:
        _Interp(REFERENCE, prog, widths, extra, (), max_steps, ranges).run()
    return trace


def run_tuned(prog: Program, widths: dict[int, int], bindings=None, track=(),
              max_steps: int = MAX_STEPS) -> Trace:
    """Execute with each control point at its assigned width (clamped to >= 1)."""
    missing = next((p for p in range(prog.n_points) if p not in widths), None)
    if missing is not None:
        raise EvalError(f"{TUNED}: no width assigned", missing)
    bound = [max(widths[p], 1) for p in range(prog.n_points)]
    return _Interp(TUNED, prog, bound, bindings, track, max_steps).run()
