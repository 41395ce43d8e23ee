"""Interpreter: reference runs, tuned runs, range recording, step caps."""

import hashlib
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bittune import interp, mpfloat
from bittune.interp import EvalError, run_reference, run_tuned
from bittune.nbody import build_nbody_program, horizon_t_max
from bittune.parse import parse_program
from bittune.program import Assign, BinOp, Num, Program, Require, Var
from bittune.tuner import TuningConfig, solve, systems
from helpers import (
    BRANCH, LOOP, binding, gen_straight_line, in_loop, round_fraction,
    to_float,
)

GEOM = """\
s = 0.0;
q = 1.0;
k = 0.0;
while (k < 20.0) {
    s = s + q;
    q = q * 0.5;
    k = k + 1.0;
}
"""


_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
          ">=": operator.ge, "==": operator.eq, "!=": operator.ne}


def _uniform(prog, bits):
    return dict.fromkeys(range(len(prog.points)), bits)


class TestReference:
    def test_matches_ieee_double_on_straight_line(self, rng):
        # At 53 bits with one rounding per operation, the interpreter
        # performs exactly IEEE double arithmetic.
        for _ in range(60):
            src = gen_straight_line(rng, max_ops=6)
            prog = parse_program(src)
            trace = run_reference(prog, pref=53)
            want = {}
            for line in src.splitlines():
                if line.startswith("require"):
                    continue
                name, expr = line.rstrip(";").split(" = ", 1)
                want[name] = eval(expr, {"sqrt": math.sqrt}, dict(want))
            for name, v in want.items():
                assert to_float(trace.env[name]) == v, src

    def test_geometric_sum_closed_form(self):
        trace = run_reference(parse_program(GEOM), pref=200)
        got = mpfloat.to_fraction(trace.env["s"])
        assert got == 2 - Fraction(1, 2**19)

    def test_loop_trip_count(self):
        trace = run_reference(parse_program(GEOM), pref=100)
        assert mpfloat.to_fraction(trace.env["k"]) == 20

    def test_branching_on_exact_compare(self):
        src = "a = 1.0;\nif (a >= 1.0) {\n    b = 2.0;\n} else {\n    b = 3.0;\n}\n"
        trace = run_reference(parse_program(src), pref=50)
        assert to_float(trace.env["b"]) == 2.0

    def test_bindings_seed_free_variables(self):
        prog = parse_program("y = x * x;\n", inputs=("x",))
        trace = run_reference(prog, pref=100, binding_sets=[binding(x="3.0")])
        assert mpfloat.to_fraction(trace.env["y"]) == 9

    def test_step_cap_raises(self, monkeypatch):
        src = "t = 0.0;\nwhile (t < 10.0) {\n    t = t + 1.0;\n}\n"
        monkeypatch.setattr(interp, "MAX_STEPS", 3)
        with pytest.raises(EvalError):
            run_reference(parse_program(src), pref=50)

    def test_domain_error_carries_point(self):
        prog = parse_program("a = 1.0;\nb = 0.0;\nc = a / b;\n")
        with pytest.raises(EvalError) as exc:
            run_reference(prog, pref=50)
        assert exc.value.point is not None

    def test_long_sum_nests_no_deeper_than_the_expression(self):
        # 700 left-nested additions: evaluation must take one frame per
        # level in both modes, or the recursion limit is hit.
        src = "s = " + " + ".join(f"{i}.5" for i in range(700)) + ";\n"
        prog = parse_program(src)
        ref = run_reference(prog, pref=100)
        assert mpfloat.to_fraction(ref.env["s"]) == Fraction(700 * 699 + 700, 2)
        tuned = run_tuned(prog, _uniform(prog, 100))
        assert tuned.env["s"] == ref.env["s"]

    def test_long_quotient_nests_no_deeper_than_the_expression(self):
        # Division and square root have closures of their own; they too
        # take one frame per level.
        src = "s = 1.0" + " / 2.0" * 699 + ";\nr = sqrt(s);\n"
        prog = parse_program(src)
        ref = run_reference(prog, pref=100)
        assert mpfloat.to_fraction(ref.env["s"]) == Fraction(1, 2**699)
        tuned = run_tuned(prog, _uniform(prog, 100))
        assert tuned.env == ref.env

    def test_errors_name_the_pass(self):
        prog = parse_program("a = 1.0;\nb = 0.0;\nc = a / b;\n")
        with pytest.raises(EvalError, match=r"^reference run: division by zero"):
            run_reference(prog, pref=50)
        with pytest.raises(EvalError, match=r"^tuned run: division by zero"):
            run_tuned(prog, _uniform(prog, 20))

    def test_track_records_initial_state_and_each_step(self):
        src = "x = 1.0;\nt = 0.0;\nwhile (t < 3.0) {\n    x = x * 2.0;\n    t = t + 1.0;\n}\n"
        trace = run_reference(parse_program(src), pref=60, track=("x",))
        vals = [to_float(v) for v in trace.samples["x"]]
        assert vals == [1.0, 2.0, 4.0, 8.0]


def _right_nested_product(depth: int) -> Program:
    """a = 2.0; s = a * (a * (... * a)), depth operators deep.  It is
    built as a tree: the parser bounds brackets far below that depth."""
    points = []

    def numbered(node):
        node.point = len(points)
        points.append(node)
        return node

    first = Assign("a", numbered(Num("2.0")))
    numbered(first)
    lefts = [numbered(Var("a")) for _ in range(depth)]
    e = numbered(Var("a"))
    for left in reversed(lefts):
        e = numbered(BinOp("*", left, e))
    return Program([first, numbered(Assign("s", e))], points)


class TestFusedReads:
    """+, - and * read a variable operand themselves; deep expressions of
    such reads still nest one frame per level."""

    @pytest.mark.parametrize("mode", ["reference run", "tuned run"])
    def test_long_sum_of_reads(self, mode):
        src = "a = 0.5;\ns = " + " + ".join(["a"] * 700) + ";\n"
        prog = parse_program(src)
        trace = (run_reference(prog, pref=100) if mode == "reference run"
                 else run_tuned(prog, _uniform(prog, 100)))
        assert mpfloat.to_fraction(trace.env["s"]) == 350

    @pytest.mark.parametrize("mode", ["reference run", "tuned run"])
    def test_right_nested_product_of_reads(self, mode):
        prog = _right_nested_product(699)
        trace = (run_reference(prog, pref=100) if mode == "reference run"
                 else run_tuned(prog, _uniform(prog, 100)))
        assert mpfloat.to_fraction(trace.env["s"]) == 2**700

    def test_reads_record_their_own_range(self):
        prog = parse_program("a = 6.0;\nb = 0.25;\nc = a * b - b;\n")
        ranges = run_reference(prog, pref=60).ranges
        reads = {(n.name, n.point) for n in prog.points
                 if type(n).__name__ == "Var"}
        ufps = sorted((name, ranges.ufp(p), ranges.visits(p))
                      for name, p in reads)
        assert ufps == [("a", 2, 1), ("b", -2, 1), ("b", -2, 1)]


ZERO_TRIP = """\
t = 5.0;
x = 1.0;
while (t < 4.0) {
    x = x * 0.5;
    t = t + 1.0;
}
require_nsb(x, 20);
"""


def _observed(trace):
    """Everything a run reports but its ranges, as bit-exact triples."""
    return ({k: mpfloat.unbox(v) for k, v in trace.env.items()},
            {k: list(map(mpfloat.unbox, vs))
             for k, vs in trace.samples.items()},
            {p: list(map(mpfloat.unbox, vs))
             for p, vs in trace.required.items()},
            trace.steps)


class TestTuned:
    def test_uniform_53_equals_reference_53(self, rng):
        # Both passes run the same closures; at one width they must
        # report the same run, requirement visits and step count too.
        sources = [gen_straight_line(rng) for _ in range(40)]
        sources += [LOOP, BRANCH, ZERO_TRIP,
                    build_nbody_program(t_max=horizon_t_max(0.05))]
        for src in sources:
            prog = parse_program(src)
            names = sorted({n.name for n in prog.points
                            if isinstance(n, Assign)})
            for track in ((), names):
                ref = run_reference(prog, pref=53, track=track)
                tuned = run_tuned(prog, _uniform(prog, 53), track=track)
                assert _observed(tuned) == _observed(ref), src

    def test_width_one_floor(self):
        prog = parse_program("a = 3.7;\n")
        trace = run_tuned(prog, _uniform(prog, 0))
        assert mpfloat.to_fraction(trace.env["a"]) == 4

    def test_reads_reround_to_read_width(self):
        # pi stored wide, then read at 4 bits: the multiply sees 3.125.
        prog = parse_program("p = 3.141592653589793;\nq = p * 1.0;\n")
        widths = _uniform(prog, 60)
        read_point = next(n.point for n in prog.points
                          if type(n).__name__ == "Var" and n.name == "p")
        widths[read_point] = 4
        trace = run_tuned(prog, widths)
        assert to_float(trace.env["q"]) == 3.25

    def test_narrow_width_rounds_the_loop_bound_itself(self):
        # At 2 bits the literal 5.0 (101b) ties down to 4, so the loop
        # exits one trip early with t == 4: narrow widths shift control
        # flow, which is why conditions get their own width demand.
        src = "t = 0.0;\nwhile (t < 5.0) {\n    t = t + 1.0;\n}\n"
        prog = parse_program(src)
        trace = run_tuned(prog, _uniform(prog, 2))
        assert to_float(trace.env["t"]) == 4.0

    def test_narrow_width_can_stall_a_loop(self, monkeypatch):
        # With an exactly representable bound, 4 + 1 ties back to 4 at
        # 2 bits and t can never reach 6; the step cap must fire.
        src = "t = 0.0;\nwhile (t < 6.0) {\n    t = t + 1.0;\n}\n"
        prog = parse_program(src)
        monkeypatch.setattr(interp, "MAX_STEPS", 200)
        with pytest.raises(EvalError):
            run_tuned(prog, _uniform(prog, 2))

    # Comparisons whose two reads have different widths: equal values (1
    # at 3 bits and at 50) and values that differ only below the narrower
    # width (1 + 2**-20 at 50 bits against 1).  Either side is the narrow
    # one, and the expected outcome is the exact rational comparison of
    # the values as read.
    ONE_AND_A_BIT = "1.00000095367431640625"            # 1 + 2**-20

    @pytest.mark.parametrize("op", sorted(_ORDER))
    @pytest.mark.parametrize("left, right", [
        ("1.0", "1.0"), (ONE_AND_A_BIT, "1.0"), ("1.0", ONE_AND_A_BIT)])
    @pytest.mark.parametrize("narrow", ["left", "right"])
    def test_if_compares_reads_of_different_widths_exactly(
            self, op, left, right, narrow):
        src = (f"a = {left};\nb = {right};\n"
               f"if (a {op} b) {{\n    c = 1.0;\n}} else {{\n    c = 2.0;\n}}\n")
        prog = parse_program(src)
        widths = _uniform(prog, 50)
        cond = prog.stmts[2].cond
        widths[getattr(cond, narrow).point] = 3
        got = run_tuned(prog, widths).env["c"]
        a = round_fraction(Fraction(left), widths[cond.left.point])
        b = round_fraction(Fraction(right), widths[cond.right.point])
        assert mpfloat.to_fraction(got) == (1 if _ORDER[op](a, b) else 2)

    @pytest.mark.parametrize("op", ["<", "<=", "!="])
    @pytest.mark.parametrize("bound", ["1.0", ONE_AND_A_BIT])
    @pytest.mark.parametrize("narrow", ["left", "right"])
    def test_while_trip_count_across_widths(self, op, bound, narrow,
                                            monkeypatch):
        # t steps by 1/4 and is exact at 3 bits up to 1.75; the bound is
        # read at 3 bits or at 50.
        src = ("t = 0.0;\nk = 0.0;\n"
               f"while (t {op} {bound}) {{\n    t = t + 0.25;\n    k = k + 1.0;\n}}\n")
        prog = parse_program(src)
        widths = _uniform(prog, 50)
        cond = prog.stmts[2].cond
        widths[getattr(cond, narrow).point] = 3
        b = round_fraction(Fraction(bound), widths[cond.right.point])
        monkeypatch.setattr(interp, "MAX_STEPS", 100)
        t, trips = Fraction(0), 0
        while _ORDER[op](round_fraction(t, widths[cond.left.point]), b):
            t += Fraction(1, 4)
            trips += 1
            if trips > 8:
                with pytest.raises(EvalError, match="iteration cap"):
                    run_tuned(prog, widths)
                return
        got = run_tuned(prog, widths).env["k"]
        assert mpfloat.to_fraction(got) == trips


EVERY_KIND = """\
a = 2.0;
b = a + 1.0;
c = b - a;
d = c * b;
e = d / a;
f = -e;
g = sqrt(d);
while (a < 4.0) {
    a = a + 1.0;
}
if (g > 1.0) {
    h = g;
} else {
    h = f;
}
require_nsb(h, 20);
"""


class TestOneClosurePerNode:
    def test_both_modes_lower_each_point_to_the_same_code(self):
        # The passes differ only by the noting flag bound into each
        # closure, never by which closure a node lowers to.
        prog = parse_program(EVERY_KIND)
        kinds = {type(n).__name__ for n in prog.points}
        assert kinds == {"Num", "Var", "BinOp", "Neg", "Sqrt", "Assign",
                         "Require"}
        assert {n.op for n in prog.points if isinstance(n, BinOp)} == \
            set("+-*/")
        widths = [53] * prog.n_points

        def lowered(ranges):
            lowering = interp._Interp(prog, widths, ranges=ranges)
            codes = []
            for st in prog.stmts:
                codes.append((type(st).__name__, lowering.stmt(st).__code__))
                if hasattr(st, "cond"):
                    codes.append(("cond", lowering.cond(st.cond).__code__))
            for node in prog.points:
                lower = (lowering.stmt if isinstance(node, (Assign, Require))
                         else lowering.expr)
                codes.append((node.point, lower(node).__code__))
            return codes

        assert lowered(None) == \
            lowered(interp.UfpMap.empty(prog.n_points, -53))


class TestRanges:
    def test_single_run_records_exact_ufp(self):
        prog = parse_program("a = 6.0;\nb = a * a;\n")
        ranges = run_reference(prog, pref=100).ranges
        b_point = next(n.point for n in prog.points
                       if type(n).__name__ == "Assign" and n.name == "b")
        assert ranges.ufp(b_point) == 5                  # 36 in [32, 64)

    def test_zero_points_use_sentinel(self):
        prog = parse_program("z = 0.0;\n")
        ranges = run_reference(prog, pref=100).ranges
        assert ranges.ufp(0) == ranges.ufp_zero == -100

    def test_unvisited_branch_not_recorded(self):
        src = "a = 1.0;\nif (a > 2.0) {\n    b = a;\n} else {\n    c = a;\n}\n"
        prog = parse_program(src)
        ranges = run_reference(prog, pref=60).ranges
        then_assign = next(n.point for n in prog.points
                           if type(n).__name__ == "Assign" and n.name == "b")
        assert not ranges.visited(then_assign)

    def test_visit_counts_match_trip_count(self):
        prog = parse_program(GEOM)
        ranges = run_reference(prog, pref=100).ranges
        body_def = next(n.point for n in prog.points
                        if type(n).__name__ == "Assign" and n.name == "s"
                        and in_loop(prog, n.point))
        assert ranges.visits(body_def) == 20

    def test_range_brackets_every_visit(self):
        prog = parse_program(GEOM)
        ranges = run_reference(prog, pref=100).ranges
        q_def = next(n.point for n in prog.points
                     if type(n).__name__ == "Assign" and n.name == "q"
                     and in_loop(prog, n.point))
        # q runs 1/2, 1/4, ..., 1/2**20 in the loop: the largest is 1/2.
        assert ranges.ufp(q_def) == -1
        assert ranges.visits(q_def) == 20

    def test_multiple_binding_sets_merge(self):
        prog = parse_program("y = x + 0.0;\n", inputs=("x",))
        ranges = run_reference(prog, pref=80,
                               binding_sets=[binding(x="0.25"),
                                             binding(x="8.0")]).ranges
        y_read = next(n.point for n in prog.points
                      if type(n).__name__ == "Var" and n.name == "x")
        assert ranges.ufp(y_read) == 3                   # 8 in [8, 16)
        assert ranges.visits(y_read) == 2

    def test_fused_pass_keeps_the_first_sets_trace(self):
        # The trip count follows the input, so each set runs a different
        # number of steps; the trace is the first set's, the ranges span
        # both.
        src = ("k = 0.0;\nwhile (k < x) {\n    k = k + 1.0;\n}\n"
               "require_nsb(k, 10);\n")
        prog = parse_program(src, inputs=("x",))
        first, second = binding(x="2.0"), binding(x="5.0")
        fused = run_reference(prog, 60, [first, second])
        alone = run_reference(prog, 60, [first])
        assert fused.env == alone.env
        assert mpfloat.to_fraction(fused.env["k"]) == 2
        assert fused.steps == alone.steps
        body_def = next(n.point for n in prog.points
                        if type(n).__name__ == "Assign"
                        and in_loop(prog, n.point))
        assert fused.ranges.visits(body_def) == 2 + 5
        assert fused.ranges.ufp(body_def) == 2          # 5 in [4, 8)
        assert alone.ranges.ufp(body_def) == 1

    def test_literal_is_parsed_once_per_pass(self, monkeypatch):
        calls = []
        parse = mpfloat.parse_decimal

        def counted(text, p):
            calls.append(text)
            return parse(text, p)

        monkeypatch.setattr(mpfloat, "parse_decimal", counted)
        prog = parse_program(GEOM)
        literals = [n.text for n in prog.points if type(n).__name__ == "Num"]
        run_reference(prog, pref=100)
        assert sorted(calls) == sorted(literals)
        calls.clear()
        run_tuned(prog, _uniform(prog, 30))
        assert sorted(calls) == sorted(literals)

    @given(st.integers(0, 2**32))
    def test_recorded_ufp_brackets_final_value(self, seed):
        src = gen_straight_line(random.Random(seed), max_ops=4)
        prog = parse_program(src)
        ranges = run_reference(prog, pref=120).ranges
        trace = run_reference(prog, pref=120)
        for node in prog.points:
            if type(node).__name__ == "Assign":
                v = trace.env[node.name]
                if not v.is_zero():
                    assert ranges.ufp(node.point) >= mpfloat.ufp(v) or \
                        ranges.visits(node.point) > 1


def _pinned_sources():
    yield build_nbody_program(t_max=horizon_t_max(0.05))
    rng = random.Random(0x1A7E)
    for k in range(50):
        yield gen_straight_line(rng, max_ops=(4, 12, 30)[k % 3])
    yield LOOP
    yield BRANCH


def _env_text(env) -> str:
    return "".join(f"{name}={v.sign},{v.mant},{v.exp},{v.prec}\n"
                   for name, v in sorted(env.items()))


class TestPinnedRuns:
    """Every value a pass computes, recorded once and compared exactly:
    the reference run's ranges, step count and final env, and the tuned
    run's final env at the solved widths."""

    PINNED = {
        "reference": "8f2dcd7960a2887bd5e6530a38122ffe"
                     "b33550a2792c2a0bfa228eb960f53380",
        "tuned": "40f182058f311f0f5f0564e6c6bebccc"
                 "9dc94714f46a2c944b9d04447bf37de5",
    }

    def test_runs_match_the_pinned_digests(self):
        cfg = TuningConfig()
        digests = {name: hashlib.sha256() for name in self.PINNED}
        for src in _pinned_sources():
            prog = parse_program(src)
            ref = run_reference(prog, cfg.pref)
            digests["reference"].update(
                f"{ref.ranges.top}\n{ref.ranges.counts}\n{ref.steps}\n"
                f"{_env_text(ref.env)}".encode())
            _, assignment, _ = solve(*systems(prog, ref.ranges, cfg))
            tuned = run_tuned(prog, assignment.widths())
            digests["tuned"].update(
                f"{tuned.steps}\n{_env_text(tuned.env)}".encode())
        assert {name: h.hexdigest() for name, h in digests.items()} == \
            self.PINNED


# Control flow that TestPinnedRuns' sources leave out: a while nested in
# a while, an if/else inside a loop that takes each branch on some trip,
# an if without else, loops that run zero trips, a literal only in a
# branch never taken.
NESTED = """\
s = 0.0;
i = 0.0;
while (i < 4.0) {
    j = 0.0;
    while (j < i) {
        s = s + j * 0.5;
        j = j + 1.0;
    }
    if (s > 2.0) {
        s = s - 1.25;
    } else {
        s = s * 3.0 + 0.125;
    }
    if (i == 2.0) {
        t = s + i;
    }
    i = i + 1.0;
}
while (s < 0.0) {
    s = s + 100.0;
}
if (s > 1000.0) {
    u = 12345.678;
}
require_nsb(s, 20);
"""

# Open, with a trip count that follows the input: two binding sets run
# the loop a different number of times.
OPEN = """\
k = 0.0;
acc = x;
while (k < n) {
    acc = acc * x + 0.5;
    if (acc > 10.0) {
        acc = acc / 4.0;
    }
    k = k + 1.0;
}
require_nsb(acc, 16);
"""


class TestPinnedBlocks:
    """As TestPinnedRuns, on nested and branching control flow and on two
    binding sets: the reference run's ranges, step count and env, and
    the tuned run's step count and env on each binding set."""

    PINNED = {
        "reference": "abe1bb127542648d8e6373fa001991f0"
                     "22a3cc7163f6d8590c2c7c32c516ae2b",
        "tuned": "d4d62b897fee92e94f9574971640f3a5"
                 "651a667c64a82d1e2502813d1c9ae232",
    }

    def test_runs_match_the_pinned_digests(self):
        digests = {name: hashlib.sha256() for name in self.PINNED}
        sets = (binding(x="1.5", n="3.0"), binding(x="-0.75", n="6.0"))
        cases = [(NESTED, ()), (OPEN, sets)]
        for src, bindings in cases:
            cfg = TuningConfig(method="pi", bindings=bindings)
            prog = parse_program(src, inputs=cfg.input_names())
            ref = run_reference(prog, cfg.pref, cfg.bindings)
            digests["reference"].update(
                f"{ref.ranges.top}\n{ref.ranges.counts}\n{ref.steps}\n"
                f"{_env_text(ref.env)}".encode())
            _, assignment, _ = solve(*systems(prog, ref.ranges, cfg))
            for bound in bindings or (None,):
                tuned = run_tuned(prog, assignment.widths(), bound)
                digests["tuned"].update(
                    f"{tuned.steps}\n{_env_text(tuned.env)}".encode())
        assert {name: h.hexdigest() for name, h in digests.items()} == \
            self.PINNED


_UNSET = "a = 1.0;\nif (a > 2.0) {\n    b = 1.0;\n}\n"

# Steps count each statement run and each loop condition after the
# first.  NESTED_LOOPS takes 3 steps to enter its outer loop, 4 per
# outer trip and 3 per inner trip: its cap of 12 falls in the inner
# loop's second trip.  BRANCH_IN_LOOP passes 13 steps on its third
# trip, whose branch takes 2 more.  STRAIGHT runs 3 statements.
NESTED_LOOPS = """\
s = 0.0;
i = 0.0;
while (i < 3.0) {
    j = 0.0;
    while (j < 4.0) {
        s = s + j;
        j = j + 1.0;
    }
    i = i + 1.0;
}
"""

BRANCH_IN_LOOP = """\
t = 0.0;
while (t < 5.0) {
    if (t > 1.0) {
        u = t * 2.0;
        v = u + 1.0;
    } else {
        u = t;
    }
    t = t + 1.0;
}
"""

STRAIGHT = "a = 1.0;\nb = a + 1.0;\nc = b * 2.0;\n"


@pytest.mark.parametrize("mode", ["reference run", "tuned run"])
@pytest.mark.parametrize("src", [GEOM, NESTED_LOOPS, BRANCH_IN_LOOP,
                                 STRAIGHT, NESTED, LOOP, BRANCH])
def test_step_cap_is_the_step_count(src, mode, monkeypatch):
    """A run fits a cap of exactly its step count and stops at one less."""
    prog = parse_program(src)

    def run():
        if mode == "reference run":
            return run_reference(prog, pref=60)
        return run_tuned(prog, _uniform(prog, 30))
    steps = run().steps
    monkeypatch.setattr(interp, "MAX_STEPS", steps)
    assert run().steps == steps
    monkeypatch.setattr(interp, "MAX_STEPS", steps - 1)
    with pytest.raises(EvalError) as exc:
        run()
    assert str(exc.value) == \
        f"{mode}: iteration cap of {steps - 1} steps exceeded"


class TestErrorText:
    """The exact EvalError text, the same in both modes but for the
    pass named at its start."""

    @pytest.mark.parametrize("src, max_steps, message", [
        ("a = 1.0;\nb = 0.0;\nc = a / b;\n", None,
         "division by zero (control point 6)"),
        ("a = 1.0 - 5.0;\nb = sqrt(a);\n", None,
         "square root of a negative value (control point 5)"),
        (_UNSET + "c = b + a;\n", None,
         "variable 'b' read before assignment (control point 6)"),
        (_UNSET + "c = a + b;\n", None,
         "variable 'b' read before assignment (control point 7)"),
        (_UNSET + "require_nsb(b, 10);\n", None,
         "require_nsb on unassigned variable 'b' (control point 6)"),
        (GEOM, 7, "iteration cap of 7 steps exceeded"),
        (NESTED_LOOPS, 12, "iteration cap of 12 steps exceeded"),
        (BRANCH_IN_LOOP, 14, "iteration cap of 14 steps exceeded"),
        (STRAIGHT, 2, "iteration cap of 2 steps exceeded"),
    ])
    @pytest.mark.parametrize("mode", ["reference run", "tuned run"])
    def test_message(self, src, max_steps, message, mode, monkeypatch):
        prog = parse_program(src)
        if max_steps is not None:
            monkeypatch.setattr(interp, "MAX_STEPS", max_steps)
        with pytest.raises(EvalError) as exc:
            if mode == "reference run":
                run_reference(prog, pref=60)
            else:
                run_tuned(prog, _uniform(prog, 30))
        assert str(exc.value) == f"{mode}: {message}"


class TestSlotEnvironment:
    """Each variable has a slot, numbered once per program; a pass keeps
    its values in a list indexed by slot.  None of it shows: errors,
    traces and bindings read as they would from a dict keyed by name."""

    @pytest.mark.parametrize("stmt, point", [
        ("c = b;\n", 6),                            # read
        ("c = b + a;\n", 6), ("c = a + b;\n", 7),   # fused operands
        ("c = b - a;\n", 6), ("c = a - b;\n", 7),
        ("c = b * a;\n", 6), ("c = a * b;\n", 7),
        ("c = b / a;\n", 6), ("c = a / b;\n", 7),
        ("c = sqrt(b);\n", 6),
        ("c = -b;\n", 6),
        ("c = (a * b) + a;\n", 7),
        ("if (b > a) {\n    c = 1.0;\n}\n", 6),     # comparison sides
        ("while (a < b) {\n    a = a + 1.0;\n}\n", 7),
    ])
    @pytest.mark.parametrize("mode", ["reference run", "tuned run"])
    def test_unset_read_in_every_position(self, stmt, point, mode):
        prog = parse_program(_UNSET + stmt)
        with pytest.raises(EvalError) as exc:
            if mode == "reference run":
                run_reference(prog, pref=60)
            else:
                run_tuned(prog, _uniform(prog, 30))
        assert str(exc.value) == (f"{mode}: variable 'b' read before "
                                  f"assignment (control point {point})")
        assert exc.value.point == point

    @pytest.mark.parametrize("mode", ["reference run", "tuned run"])
    def test_unset_require_in_both_modes(self, mode):
        prog = parse_program(_UNSET + "require_nsb(b, 10);\n")
        with pytest.raises(EvalError) as exc:
            if mode == "reference run":
                run_reference(prog, pref=60)
            else:
                run_tuned(prog, _uniform(prog, 30))
        assert str(exc.value) == (f"{mode}: require_nsb on unassigned "
                                  f"variable 'b' (control point 6)")

    def test_name_assigned_only_in_an_untaken_branch_is_absent(self):
        prog = parse_program(_UNSET + "c = a + 1.0;\n")
        assert set(prog.slots) == {"a", "b", "c"}
        for trace in (run_reference(prog, pref=60),
                      run_tuned(prog, _uniform(prog, 30))):
            assert sorted(trace.env) == ["a", "c"]

    def test_binding_the_program_never_names_is_kept(self):
        prog = parse_program("y = x * x;\n", inputs=("x",))
        bound = binding(x="3.0", w="0.5")
        for trace in (run_reference(prog, 60, [bound]),
                      run_tuned(prog, _uniform(prog, 30), bound)):
            assert trace.env["w"] == bound["w"]
            assert sorted(trace.env) == ["w", "x", "y"]
        # The pass numbered w for itself, not for the program.
        assert prog.slots == {"x": 0, "y": 1}

    def test_binding_sets_do_not_see_each_others_values(self):
        # The first set assigns z and binds u, a name the program never
        # reads; a second pass that saw the first's values would read z.
        src = "if (x > 1.0) {\n    z = 1.0;\n}\ny = z + x;\n"
        prog = parse_program(src, inputs=("x",))
        first = binding(x="2.0", u="7.0")
        trace = run_reference(prog, 60, [first, binding(x="4.0", v="1.0")])
        assert sorted(trace.env) == ["u", "x", "y", "z"]
        with pytest.raises(EvalError) as exc:
            run_reference(prog, 60, [first, binding(x="0.5")])
        assert str(exc.value) == ("reference run: variable 'z' read before "
                                  "assignment (control point 4)")

    def test_hand_built_program_is_numbered_on_first_use(self):
        prog = _right_nested_product(3)
        assert prog.slots == {"a": 0, "s": 1}
        assert prog.slots is prog.slots
        for trace in (run_reference(prog, pref=60),
                      run_tuned(prog, _uniform(prog, 30))):
            assert {k: mpfloat.to_fraction(v) for k, v in trace.env.items()} \
                == {"a": 2, "s": 16}
