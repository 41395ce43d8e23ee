"""Interpreter: reference runs, tuned runs, range recording, step caps."""

import hashlib
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bittune import mpfloat
from bittune.interp import EvalError, run_reference, run_tuned
from bittune.nbody import build_nbody_program, horizon_t_max
from bittune.parse import parse_program
from bittune.tuner import TuningConfig, reference_run, solve, systems
from helpers import BRANCH, LOOP, gen_straight_line, round_fraction

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
                assert mpfloat.to_float(trace.env[name]) == v, src

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
        assert mpfloat.to_float(trace.env["b"]) == 2.0

    def test_bindings_seed_free_variables(self):
        prog = parse_program("y = x * x;\n", inputs=("x",))
        trace = run_reference(prog, pref=100, binding_sets=[{"x": "3.0"}])
        assert mpfloat.to_fraction(trace.env["y"]) == 9

    def test_step_cap_raises(self):
        src = "t = 0.0;\nwhile (t < 10.0) {\n    t = t + 1.0;\n}\n"
        with pytest.raises(EvalError):
            run_reference(parse_program(src), pref=50, max_steps=3)

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
        vals = [mpfloat.to_float(v) for v in trace.samples["x"]]
        assert vals == [1.0, 2.0, 4.0, 8.0]


class TestTuned:
    def test_uniform_53_equals_reference_53(self, rng):
        for _ in range(40):
            prog = parse_program(gen_straight_line(rng))
            ref = run_reference(prog, pref=53)
            tuned = run_tuned(prog, _uniform(prog, 53))
            assert all(tuned.env[k] == ref.env[k] for k in ref.env)

    def test_width_one_floor(self):
        prog = parse_program("a = 3.7;\n")
        trace = run_tuned(prog, _uniform(prog, 0))
        assert mpfloat.to_fraction(trace.env["a"]) == 4

    def test_missing_width_rejected(self):
        prog = parse_program("a = 1.0;\nb = a + a;\n")
        with pytest.raises(EvalError):
            run_tuned(prog, {0: 20})

    def test_reads_reround_to_read_width(self):
        # pi stored wide, then read at 4 bits: the multiply sees 3.125.
        prog = parse_program("p = 3.141592653589793;\nq = p * 1.0;\n")
        widths = _uniform(prog, 60)
        read_point = next(n.point for n in prog.points
                          if type(n).__name__ == "Var" and n.name == "p")
        widths[read_point] = 4
        trace = run_tuned(prog, widths)
        assert mpfloat.to_float(trace.env["q"]) == 3.25

    def test_narrow_width_rounds_the_loop_bound_itself(self):
        # At 2 bits the literal 5.0 (101b) ties down to 4, so the loop
        # exits one trip early with t == 4: narrow widths shift control
        # flow, which is why conditions get their own width demand.
        src = "t = 0.0;\nwhile (t < 5.0) {\n    t = t + 1.0;\n}\n"
        prog = parse_program(src)
        trace = run_tuned(prog, _uniform(prog, 2))
        assert mpfloat.to_float(trace.env["t"]) == 4.0

    def test_missing_width_of_an_unvisited_point_rejected(self):
        src = "a = 1.0;\nif (a > 2.0) {\n    b = a;\n}\n"
        prog = parse_program(src)
        widths = _uniform(prog, 20)
        del widths[prog.n_points - 1]
        with pytest.raises(EvalError, match="^tuned run: no width assigned"):
            run_tuned(prog, widths)

    def test_narrow_width_can_stall_a_loop(self):
        # With an exactly representable bound, 4 + 1 ties back to 4 at
        # 2 bits and t can never reach 6; the step cap must fire.
        src = "t = 0.0;\nwhile (t < 6.0) {\n    t = t + 1.0;\n}\n"
        prog = parse_program(src)
        with pytest.raises(EvalError):
            run_tuned(prog, _uniform(prog, 2), max_steps=200)

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
    def test_while_trip_count_across_widths(self, op, bound, narrow):
        # t steps by 1/4 and is exact at 3 bits up to 1.75; the bound is
        # read at 3 bits or at 50.
        src = ("t = 0.0;\nk = 0.0;\n"
               f"while (t {op} {bound}) {{\n    t = t + 0.25;\n    k = k + 1.0;\n}}\n")
        prog = parse_program(src)
        widths = _uniform(prog, 50)
        cond = prog.stmts[2].cond
        widths[getattr(cond, narrow).point] = 3
        b = round_fraction(Fraction(bound), widths[cond.right.point])
        t, trips = Fraction(0), 0
        while _ORDER[op](round_fraction(t, widths[cond.left.point]), b):
            t += Fraction(1, 4)
            trips += 1
            if trips > 8:
                with pytest.raises(EvalError, match="iteration cap"):
                    run_tuned(prog, widths, max_steps=100)
                return
        got = run_tuned(prog, widths, max_steps=100).env["k"]
        assert mpfloat.to_fraction(got) == trips


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
                        and prog.scopes[n.point])
        assert ranges.visits(body_def) == 20

    def test_range_brackets_every_visit(self):
        prog = parse_program(GEOM)
        ranges = run_reference(prog, pref=100).ranges
        q_def = next(n.point for n in prog.points
                     if type(n).__name__ == "Assign" and n.name == "q"
                     and prog.scopes[n.point])
        # q runs 1/2, 1/4, ..., 1/2**20 in the loop: the largest is 1/2.
        assert ranges.ufp(q_def) == -1
        assert ranges.visits(q_def) == 20

    def test_multiple_binding_sets_merge(self):
        prog = parse_program("y = x + 0.0;\n", inputs=("x",))
        ranges = run_reference(prog, pref=80,
                               binding_sets=[{"x": "0.25"}, {"x": "8.0"}]).ranges
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
        first, second = {"x": "2.0"}, {"x": "5.0"}
        fused = run_reference(prog, 60, [first, second])
        alone = run_reference(prog, 60, [first])
        assert fused.env == alone.env
        assert mpfloat.to_fraction(fused.env["k"]) == 2
        assert fused.steps == alone.steps
        body_def = next(n.point for n in prog.points
                        if type(n).__name__ == "Assign"
                        and prog.scopes[n.point])
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
            ref = reference_run(prog, cfg)
            digests["reference"].update(
                f"{ref.ranges.top}\n{ref.ranges.counts}\n{ref.steps}\n"
                f"{_env_text(ref.env)}".encode())
            assignment, _ = solve(*systems(prog, ref.ranges, cfg), cfg)
            tuned = run_tuned(prog, assignment.widths())
            digests["tuned"].update(
                f"{tuned.steps}\n{_env_text(tuned.env)}".encode())
        assert {name: h.hexdigest() for name, h in digests.items()} == \
            self.PINNED


_UNSET = "a = 1.0;\nif (a > 2.0) {\n    b = 1.0;\n}\n"


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
        (_UNSET + "require_nsb(b, 10);\n", None,
         "require_nsb on unassigned variable 'b' (control point 6)"),
        (GEOM, 7, "iteration cap of 7 steps exceeded"),
    ])
    @pytest.mark.parametrize("mode", ["reference run", "tuned run"])
    def test_message(self, src, max_steps, message, mode):
        prog = parse_program(src)
        kw = {} if max_steps is None else {"max_steps": max_steps}
        with pytest.raises(EvalError) as exc:
            if mode == "reference run":
                run_reference(prog, pref=60, **kw)
            else:
                run_tuned(prog, _uniform(prog, 30), **kw)
        assert str(exc.value) == f"{mode}: {message}"
