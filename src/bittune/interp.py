"""Program execution: one lowering to pre-bound closures, two modes.

A pass lowers the program once, when its run() starts, to one closure
per control point and per statement, with the point's width and its
arithmetic kernel (mpfloat.add_t, sub_t, mul_t, div_t or sqrt_t) bound
when the closure is built.  A visit then does no dispatch on node types
or operators and no width lookup, and a literal is parsed once per pass
instead of once per visit.  A +, - or * whose operand is a variable
reads it inside its own closure, with the read point's width, check and
record, so the read costs no call of its own.  Inside a pass every
value is an mpfloat triple (m, e, p); bindings, MPValues, are unboxed
when the pass starts, and the trace's env and samples are boxed to
MPValues when it ends.

A statement x = a op b, op in + - *, lowers to one closure, assign_op:
it reads and operates as the operation's closure does, then rounds,
notes and stores as an assignment does, so a visit makes one call where
it made two.  That shape is 107 of the 148 assignments of the five-body
program, 91 of the 111 in its loop, and about two thirds of those of the
wide and corpus workloads.  It is a body of its own, not a store tail on
the operation's closure: that closure also serves nested operations,
and a tail shared by both positions gave each nested +, - or * four
more cells and a branch.  On nbody-tune, a prototype with the shared
tail kept about half the gain of the separate body (op_s.p50 -2.9%
against -5.5%, a few harness pairs at seed 7), and one closure of this
kind per node kind (/, sqrt, neg, plain reads) made the tuned five-body
pass 7% slower, so only this shape has one.  With add_t and sub_t
rounding inline, this took nbody-tune's op_s.p50 (perfbench/run.py,
25 s runs, 10 alternating pairs per seed, 2-vCPU VM) from 0.2647 to
0.2557 s at seed 7 (-3.4%) and from 0.2648 to 0.2542 s at seed 11
(-4.0%), faster in 10 of 10 pairs at each.

Variables live in slots.  Program.slots numbers every name the program
reads, assigns or requires, once per program, on first use; a pass
numbers a binding the program never names after those, in a copy of
its own.  A pass keeps its values in a list indexed by slot, None while
a variable is unassigned, and each read, fused operand read, store and
require_nsb binds its slot when it is lowered: a visit indexes a list
where it used to look a name up in a dict, and the arithmetic is
untouched.  Trace.env holds the filled slots, by name, so a name
assigned only in a branch never taken is absent from it.
On nbody-tune (perfbench/run.py, seed 7, 25 s runs) this took op_s.p50
from 0.278 to 0.263 s, -5.3%, faster in 10 of 10 alternating pairs
(medians, 2-vCPU VM).  Numbering walks the points once, 0.3 ms on a
1.1k-statement program whose two passes take 13 ms, which is why it is
kept with the program and not redone by each pass.

Visits and steps are counted per block, not per node.  The blocks are
the top level, each loop condition, each loop body, and each branch of
an if; every point belongs to the innermost block that holds it, and
all points of a block are visited equally often.  A block counts one
visit per entry, a loop body per trip and a loop condition per
evaluation.  Entering a block charges its statements as steps; a loop
trip charges its body's statements and the condition evaluated after
them.  The step cap is checked there, on block entry and per trip, so a
run that passes the cap stops before the block or trip that would pass
it runs.  The total is the same as counting each statement and each
condition after a loop's first, and so is the error of a run that
passes the cap, unless the same block or trip would hit another error
first.

Both modes run the same closures: each node kind lowers to one closure
(x = a op b to one for the statement and its operation), and the mode
is a flag, noting, bound into it when it is built.

* Reference mode (run_reference) evaluates everything at one working
  precision, with noting set.  Each closure then also keeps, for its
  own control point, the largest exponent of a nonzero value seen,
  inline in the closure; a literal's is noted when it is lowered.  When
  the run ends, each point in a block that was entered gets its block's
  visits and, as its top, the ufp of that exponent at the point's
  width: ufp is monotone in |x|, so the largest ufp is the ufp of the
  largest magnitude, which is all the constraints read.  With several
  input binding sets, the run on the first gives the trace and its
  ranges; the runs on the others add their visits and raise the tops.
* Tuned mode (run_tuned) evaluates every point at its solved width,
  with noting clear, so it records no range: literals parse to the
  literal point's width, reads re-round the stored value to the read
  point's width, operations round correctly to the result point's
  width, and stores round to the target point's width.  With a uniform
  assignment it reproduces the reference bit for bit.

The flag stays, rather than having the tuned pass note into a table it
throws away.  Against closures that skip noting altogether, noting made
run_tuned on the two-year five-body program at req 24 about 14% slower,
and testing the flag costs it about 2% (medians of 12 alternating runs
on a 2-vCPU VM).

In both modes a read or store skips the rounding when the value already
has the point's width, which makes it a no-op.  Both record the value
each require_nsb sees on each of its visits (Trace.required), which
verification compares visit by visit.  Both keep the step cap,
the check against reading an unassigned variable and the arithmetic
domain errors of division and square root; an EvalError names the pass
(reference run or tuned run) it stopped.

The closures reach their pass, through its fail, unset and enter
methods, but the pass holds no reference to its closures: the lowered
body is a local of run().  So nothing a pass builds forms a reference
cycle, and the closures, their cells and the pass are freed by
reference counting as soon as the run returns, with no work left to the
cyclic collector.  That is what lets cli.main pause the collector while
a command runs: a pass allocates tens of thousands of closures and
cells, each of which would otherwise count towards the next collection.
test_cli.py's TestNoReferenceCycles keeps it safe, on failing exits as
well.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from . import mpfloat
from .mpfloat import (
    DEFAULT_PRECISION, MPDomainError, MPValue, box, cmp_t, round_t, unbox,
)
from .program import (
    Assign, BinOp, Compare, If, Neg, Num, Program, Require, Sqrt, Var, While,
)

# Read by each check, so a change to it holds for the next run.
MAX_STEPS = 10_000_000

REFERENCE = "reference run"
TUNED = "tuned run"


class EvalError(RuntimeError):
    def __init__(self, message: str, point: int | None = None):
        if point is not None:
            message = f"{message} (control point {point})"
        super().__init__(message)
        self.point = point


class UfpMap:
    """Per-point magnitudes from one or more reference runs: the largest
    ufp seen (None while every value was zero) and the visit count."""

    __slots__ = ("top", "counts", "ufp_zero")

    def __init__(self, top: list[int | None], counts: list[int],
                 ufp_zero: int):
        self.top = top
        self.counts = counts
        self.ufp_zero = ufp_zero

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


class Trace(NamedTuple):
    env: dict[str, MPValue]
    samples: dict[str, list[MPValue]]
    # Per require_nsb point, the value it saw on each visit.
    required: dict[int, list[MPValue]]
    steps: int
    ranges: UfpMap | None             # reference mode only


# The cmp_t results for which each comparison holds.
_COMPARE = {"<": (-1,), "<=": (-1, 0), ">": (1,), ">=": (0, 1),
            "==": (0,), "!=": (-1, 1)}
# Division has a closure of its own, as it can fail.
_KERNELS = {"+": mpfloat.add_t, "-": mpfloat.sub_t, "*": mpfloat.mul_t}


class _Interp:
    """One pass over a program lowered to closures; widths[p] is bound
    into the closure of point p when run() lowers the program.  The pass
    records into ranges when given them, in reference mode, and is
    named after its mode in its errors.  It keeps the statements, not
    the closures built from them, so it never reaches its own closures."""

    def __init__(self, prog: Program, widths: list[int], bindings=None,
                 track=(), ranges: UfpMap | None = None):
        self.widths = widths
        self.ranges = ranges
        self.steps = 0
        bindings = bindings or {}
        # A binding the program never names gets a slot of this pass's own.
        slots = prog.slots
        if not slots.keys() >= bindings.keys():
            slots = dict(slots)
            for var in bindings:
                slots.setdefault(var, len(slots))
        self.slots = slots
        # Slot k's value, None while unassigned.
        self.env: list[tuple | None] = [None] * len(slots)
        for var, value in bindings.items():
            self.env[slots[var]] = unbox(value)
        self.samples: dict[str, list[tuple]] = {v: [] for v in track}
        self.required: dict[int, list[tuple]] = {}
        self.stmts = prog.stmts
        # Block 0 is the top level; lowering numbers the others and
        # notes the block that holds each point.
        self.block = 0
        self.visits = [0]
        self.owner = [0] * len(widths)
        # The largest exponent of a nonzero value seen at each point.
        self.high = [-math.inf] * len(widths)

    def run(self) -> Trace:
        body = tuple(map(self.stmt, self.stmts))
        self.enter(0, len(body))
        for step in body:
            step()
        if self.ranges is not None:
            self.record()
        env = {name: box(v) for name, v in zip(self.slots, self.env)
               if v is not None}
        samples = {name: list(map(box, vs)) for name, vs in self.samples.items()}
        required = {p: list(map(box, vs)) for p, vs in self.required.items()}
        return Trace(env, samples, required, self.steps, self.ranges)

    def fail(self, message: str, point: int | None = None) -> EvalError:
        name = TUNED if self.ranges is None else REFERENCE
        return EvalError(f"{name}: {message}", point)

    def unset(self, slot: int, point: int) -> EvalError:
        name = list(self.slots)[slot]
        return self.fail(f"variable {name!r} read before assignment", point)

    def enter(self, block: int, cost: int) -> None:
        """Count an entry into block, or a trip through it, and the cost
        steps it is about to take; stop the run past the step cap."""
        self.visits[block] += 1
        self.steps += cost
        if self.steps > MAX_STEPS:
            raise self.fail(f"iteration cap of {MAX_STEPS} steps exceeded")

    def new_block(self) -> int:
        self.visits.append(0)
        return len(self.visits) - 1

    def record(self) -> None:
        """Add this run's visits and magnitudes to ranges: a point is
        visited as often as its block, and its ufp at width n is its
        largest exponent + n - 1."""
        top, counts = self.ranges.top, self.ranges.counts
        for p, block in enumerate(self.owner):
            visits = self.visits[block]
            if visits:
                counts[p] += visits
                if self.high[p] > -math.inf:
                    u = self.high[p] + self.widths[p] - 1
                    if top[p] is None or u > top[p]:
                        top[p] = u

    # --- expressions ---------------------------------------------------

    # One closure per node kind serves both modes.  Where noting is set,
    # in reference mode, a closure raises high[p] to the exponent of its
    # own value; visits are counted per block.  A literal records
    # nothing at all: its exponent is noted when it is lowered.

    def expr(self, e) -> Callable[[], tuple]:
        # One closure per node and no wrappers, so evaluation nests no
        # deeper than the expression does.
        p = e.point
        n = self.widths[p]
        self.owner[p] = self.block
        fail, noting, high = self.fail, self.ranges is not None, self.high
        if isinstance(e, Num):
            value = unbox(mpfloat.parse_decimal(e.text, n))
            if value[0]:
                high[p] = value[1]
            return lambda: value
        if isinstance(e, Var):
            env, k, unset = self.env, self.slots[e.name], self.unset

            def read():
                v = env[k]
                if v is None:
                    raise unset(k, p)
                if v[2] != n:
                    v = round_t(v[0], v[1], n)
                if noting and v[0] and v[1] > high[p]:
                    high[p] = v[1]
                return v
            return read
        if isinstance(e, BinOp) and e.op in _KERNELS:
            # An operand that is a variable is read by the operation
            # itself, with the read point's width, check and record, and
            # has no closure of its own.
            kernel, env, unset = _KERNELS[e.op], self.env, self.unset
            ak, ap, aw = self.fused_read(e.left)
            bk, bp, bw = self.fused_read(e.right)
            a = self.expr(e.left) if ak is None else None
            b = self.expr(e.right) if bk is None else None

            def binop():
                if ak is None:
                    x = a()
                else:
                    x = env[ak]
                    if x is None:
                        raise unset(ak, ap)
                    if x[2] != aw:
                        x = round_t(x[0], x[1], aw)
                    if noting and x[0] and x[1] > high[ap]:
                        high[ap] = x[1]
                if bk is None:
                    y = b()
                else:
                    y = env[bk]
                    if y is None:
                        raise unset(bk, bp)
                    if y[2] != bw:
                        y = round_t(y[0], y[1], bw)
                    if noting and y[0] and y[1] > high[bp]:
                        high[bp] = y[1]
                v = kernel(x, y, n)
                if noting and v[0] and v[1] > high[p]:
                    high[p] = v[1]
                return v
            return binop
        if isinstance(e, Neg):
            a = self.expr(e.operand)

            def neg():
                v = mpfloat.neg_t(a(), n)
                if noting and v[0] and v[1] > high[p]:
                    high[p] = v[1]
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
                if noting and v[0] and v[1] > high[p]:
                    high[p] = v[1]
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
                if noting and v[0] and v[1] > high[p]:
                    high[p] = v[1]
                return v
            return sqrt
        raise TypeError(f"unexpected expression node {e!r}")

    def fused_read(self, e) -> tuple:
        """(slot, point, width) of an operand that is a variable, noted
        as lowered in the current block; (None, None, None) otherwise."""
        if not isinstance(e, Var):
            return None, None, None
        self.owner[e.point] = self.block
        return self.slots[e.name], e.point, self.widths[e.point]

    def cond(self, c: Compare) -> Callable[[], bool]:
        a, b, holds = self.expr(c.left), self.expr(c.right), _COMPARE[c.op]
        return lambda: cmp_t(a(), b()) in holds

    # --- statements ----------------------------------------------------

    # A body is a tuple of steps that its loop or branch runs itself, and
    # map() lowers it without a Python frame of its own: lowering and
    # running a nested body each take one frame per level.  Each body is
    # a block, and so is a loop condition.  A block is charged its
    # statements as steps when it is entered, and a loop body one more
    # per trip, for the condition evaluated after it.  The statement
    # that holds a body is charged in its own block, which covers a
    # loop's first condition.

    def stmt(self, st) -> Callable[[], None]:
        enter, visits, outer = self.enter, self.visits, self.block
        if isinstance(st, While):
            self.block = head = self.new_block()
            cond = self.cond(st.cond)
            self.block = block = self.new_block()
            body = tuple(map(self.stmt, st.body))
            self.block = outer
            cost = len(body) + 1

            def loop():
                visits[head] += 1
                while cond():
                    visits[head] += 1
                    enter(block, cost)
                    for step in body:
                        step()
            return loop
        if isinstance(st, If):
            cond = self.cond(st.cond)
            branches = []
            for stmts in (st.then_body, st.else_body):
                self.block = block = self.new_block()
                branches.append((block, len(stmts),
                                 tuple(map(self.stmt, stmts))))
            self.block = outer
            then_branch, else_branch = branches

            def branch():
                block, cost, body = then_branch if cond() else else_branch
                enter(block, cost)
                for step in body:
                    step()
            return branch
        if not isinstance(st, (Assign, Require)):
            raise TypeError(f"unexpected statement {st!r}")
        env, name, p = self.env, st.name, st.point
        k = self.slots[name]
        n = self.widths[p]
        self.owner[p] = outer
        fail, noting, high = self.fail, self.ranges is not None, self.high
        if isinstance(st, Assign):
            samples = self.samples.get(name)
            e = st.expr
            if isinstance(e, BinOp) and e.op in _KERNELS:
                return self.assign_op(e, k, p, samples)
            rhs = self.expr(e)

            def assign():
                v = rhs()
                if v[2] != n:
                    v = round_t(v[0], v[1], n)
                if noting and v[0] and v[1] > high[p]:
                    high[p] = v[1]
                env[k] = v
                if samples is not None:
                    samples.append(v)
            return assign

        seen = self.required[p] = []

        def require():
            v = env[k]
            if v is None:
                raise fail(f"require_nsb on unassigned variable {name!r}", p)
            seen.append(v)
            if noting:
                if v[2] != n:
                    v = round_t(v[0], v[1], n)
                if v[0] and v[1] > high[p]:
                    high[p] = v[1]
        return require

    def assign_op(self, e: BinOp, k: int, p: int,
                  samples: list | None) -> Callable[[], None]:
        """x = a op b, op in + - *, as one closure: binop's operand reads
        and kernel, then assign's rounding, noting and store."""
        q = e.point
        m, n = self.widths[q], self.widths[p]
        self.owner[q] = self.block
        kernel, env, unset = _KERNELS[e.op], self.env, self.unset
        noting, high = self.ranges is not None, self.high
        ak, ap, aw = self.fused_read(e.left)
        bk, bp, bw = self.fused_read(e.right)
        a = self.expr(e.left) if ak is None else None
        b = self.expr(e.right) if bk is None else None
        # The kernel's result has width m, so whether the store rounds
        # is known here.
        narrows = m != n

        def assign_op():
            if ak is None:
                x = a()
            else:
                x = env[ak]
                if x is None:
                    raise unset(ak, ap)
                if x[2] != aw:
                    x = round_t(x[0], x[1], aw)
                if noting and x[0] and x[1] > high[ap]:
                    high[ap] = x[1]
            if bk is None:
                y = b()
            else:
                y = env[bk]
                if y is None:
                    raise unset(bk, bp)
                if y[2] != bw:
                    y = round_t(y[0], y[1], bw)
                if noting and y[0] and y[1] > high[bp]:
                    high[bp] = y[1]
            v = kernel(x, y, m)
            if noting and v[0] and v[1] > high[q]:
                high[q] = v[1]
            if narrows:
                v = round_t(v[0], v[1], n)
            if noting and v[0] and v[1] > high[p]:
                high[p] = v[1]
            env[k] = v
            if samples is not None:
                samples.append(v)
        return assign_op


def run_reference(prog: Program, pref: int = DEFAULT_PRECISION,
                  binding_sets=(), track=()) -> Trace:
    """Execute every operation at pref bits and record per-point ranges.

    env, samples, requirements and steps come from the run on the first
    binding set (on no bindings when binding_sets is empty).  Each other
    set is run too, and only adds to trace.ranges.  Points that held
    only zero get ufp -pref."""
    ranges = UfpMap.empty(prog.n_points, -pref)
    widths = [pref] * prog.n_points
    first, *rest = binding_sets or (None,)
    trace = _Interp(prog, widths, first, track, ranges).run()
    for extra in rest:
        _Interp(prog, widths, extra, (), ranges).run()
    return trace


def run_tuned(prog: Program, widths: dict[int, int], bindings=None,
              track=()) -> Trace:
    """Execute with every point p at widths[p] (clamped to >= 1)."""
    bound = [max(widths[p], 1) for p in range(prog.n_points)]
    return _Interp(prog, bound, bindings, track).run()
