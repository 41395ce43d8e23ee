"""End-to-end tuning pipeline, report serialization, generated scripts."""

import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from bittune import mpfloat, tuner
from bittune.codegen import ScriptNameError, emit_mp_code
from bittune.constraints import gen_ilp, gen_refined
from bittune.mpfloat import mp, mp_sqrt
from bittune.interp import run_reference, run_tuned
from bittune.lpfile import export_lp
from bittune.nbody import build_nbody_program, horizon_t_max
from bittune.parse import parse_program
from bittune.render import emit_annotated
from bittune.solver import SolverError, solve_ilp, solve_monotone
from bittune.tuner import (
    TuneError, TuningConfig, VerifyRow, check_tuned, passed, tune,
)
from helpers import (
    binding, check_solution, gen_straight_line, parse_solution,
    report_from_json, to_float,
)

SMALL = """\
a = 0.1;
b = 2.0;
c = a * b + 1.5;
d = sqrt(c);
require_nsb(d, 20);
"""


class TestTune:
    def test_widths_cover_all_points_and_meet_requirement(self):
        assignment, report, _ = tune(parse_program(SMALL))
        prog = parse_program(SMALL)
        widths = assignment.widths()
        assert set(widths) == set(range(len(prog.points)))
        req = next(n for n in prog.points if type(n).__name__ == "Require")
        assert widths[req.point] >= 20
        assert passed(report.verification, report.steps_reference,
                  report.steps_tuned)

    def test_pi_records_both_totals(self):
        _, report, _ = tune(parse_program(SMALL), TuningConfig(method="pi"))
        assert set(report.total_bits) == {"ilp", "pi"}
        assert report.total_bits["pi"] <= report.total_bits["ilp"]
        assert "c2" in report.systems and "xi_defs" in report.systems["c2"]

    def test_verification_rows_within_local_bound(self):
        _, report, _ = tune(parse_program(SMALL))
        for row in report.verification:
            assert row.passed
            assert float(row.error) <= 100 * float(row.bound)

    def test_no_requirement_rejected(self):
        with pytest.raises(TuneError, match="require_nsb"):
            tune(parse_program("a = 1.0;\n"))

    def test_open_program_needs_bindings(self):
        cfg = TuningConfig(bindings=(binding(x="0.5"),))
        assignment, report, _ = tune(
            parse_program("y = x + 1.0;\nrequire_nsb(y, 12);\n",
                          cfg.input_names()), cfg)
        assert passed(report.verification, report.steps_reference,
                  report.steps_tuned)

    @pytest.mark.parametrize("bad", [{"method": "newton"}, {"pref": 0}])
    def test_config_validation(self, bad):
        with pytest.raises(TuneError) as refused:
            TuningConfig(**bad)
        assert refused.value.field in bad

    @pytest.mark.parametrize("method", ["ilp", "pi"])
    def test_solve_takes_c2_exactly_for_pi(self, method):
        prog = parse_program(SMALL)
        cfg = TuningConfig(method=method)
        c1, c2 = tuner.systems(prog, run_reference(prog, cfg.pref).ranges, cfg)
        assert (c2 is not None) == (method == "pi")
        plain, final, iterations = tuner.solve(c1, c2)
        assert (final is plain) == (iterations == 0) == (method == "ilp")

    def test_exactly_representable_output_has_zero_error(self):
        _, report, _ = tune(parse_program("a = 0.5;\nb = a + a;\nrequire_nsb(b, 5);\n"))
        errors = {r.var: r.error for r in report.verification}
        assert errors["b"] == "0"

    @pytest.mark.parametrize("method", ("ilp", "pi"))
    def test_nonzero_value_at_the_zero_sentinel_ufp_is_not_zero(self,
                                                                 method):
        # a's ufp is -500, the ufp tune gives all-zero points at pref 500;
        # taking a for zero drops the sqrt's operand row.
        prog = parse_program("a = 3.1e-151;\nb = sqrt(a);\nc = b * 1e75;\n"
                             "require_nsb(c, 30);\n")
        cfg = TuningConfig(method=method)
        assert run_reference(prog, cfg.pref).ranges.ufp(0) == -cfg.pref
        _, report, _ = tune(prog, cfg)
        assert report.zero_ufp_points == []
        assert passed(report.verification, report.steps_reference,
                  report.steps_tuned)


# A product chain whose error widths (nsbe) grow past the [0, pmax] box
# they share with nsb: the plain solve gives 3154 bits.
CHAIN = ("v0 = 1.25;\n"
         + "".join(f"v{i} = v{i - 1} * 1.0001 + 0.5;\n" for i in range(1, 15))
         + "require_nsb(v14, 24);\n")


class TestPolicyIterationNeverLoses:
    """Wherever the plain solve succeeds, PI must succeed too, with a
    total no larger.  The strict xfails are known counterexamples: PI
    ends in an infeasible system on them, and a fix has to flip them."""

    def _assert_pi_not_worse(self, src):
        _, report, _ = tune(parse_program(src), TuningConfig(method="pi"))
        assert report.total_bits["pi"] <= report.total_bits["ilp"]

    @pytest.mark.xfail(strict=True, raises=SolverError,
                       reason="PI infeasible where the plain solve succeeds")
    def test_product_chain(self):
        _, plain, _ = tune(parse_program(CHAIN), TuningConfig(method="ilp"))
        assert plain.total_bits == {"ilp": 3154}
        self._assert_pi_not_worse(CHAIN)

    @pytest.mark.xfail(strict=True, raises=SolverError,
                       reason="PI infeasible where the plain solve succeeds")
    def test_five_body_two_years_req_53(self):
        self._assert_pi_not_worse(
            build_nbody_program(t_max=horizon_t_max(2), req=53))

    @pytest.mark.xfail(strict=True, raises=SolverError,
                       reason="PI infeasible where the plain solve succeeds")
    def test_five_body_half_year_req_53(self):
        self._assert_pi_not_worse(
            build_nbody_program(t_max=horizon_t_max(0.5), req=53))

    def test_five_body_short_horizon_req_53(self):
        self._assert_pi_not_worse(
            build_nbody_program(t_max=horizon_t_max(0.05), req=53))


class TestReportSerialization:
    def test_json_round_trip(self):
        _, report, _ = tune(parse_program(SMALL), TuningConfig(method="pi"))
        again = report_from_json(report.to_json())
        assert again == report

    def test_json_is_sorted_and_stable(self):
        _, a, _ = tune(parse_program(SMALL))
        _, b, _ = tune(parse_program(SMALL))
        assert a.to_json(timings=False) == b.to_json(timings=False)

    def test_text_rendition_mentions_failures(self):
        prog = parse_program(SMALL)
        widths = {i: 3 for i in range(len(prog.points))}
        rows, _ = check_tuned(prog, widths, run_reference(prog),
                              TuningConfig())
        assert any(not r.passed for r in rows)


class TestVerify:
    def test_lowered_widths_fail(self):
        prog = parse_program(SMALL)
        assignment, _, _ = tune(prog)
        halved = {p: max(1, n // 4) for p, n in assignment.widths().items()}
        rows, _ = check_tuned(prog, halved, run_reference(prog),
                              TuningConfig())
        assert any(not r.passed for r in rows)

    def test_divergent_control_flow_reported(self):
        src = "t = 0.0;\nwhile (t < 5.0) {\n    t = t + 1.0;\n}\nrequire_nsb(t, 3);\n"
        prog = parse_program(src)
        ref = run_reference(prog)
        _, tuned = check_tuned(prog, {i: 2 for i in range(len(prog.points))},
                               ref, TuningConfig())
        assert ref.steps != tuned.steps

    def test_a_visit_the_tuned_run_missed_is_the_failing_row(self):
        # At 2 bits the loop makes 4 trips, not 5: the requirement's fifth
        # visit, where the reference t is 5, has no tuned value.
        src = ("t = 0.0;\nwhile (t < 5.0) {\n    t = t + 1.0;\n"
               "    require_nsb(t, 3);\n}\n")
        prog = parse_program(src)
        ref = run_reference(prog)
        rows, tuned = check_tuned(prog,
                                  {i: 2 for i in range(len(prog.points))},
                                  ref, TuningConfig())
        assert [len(ref.required[8]), len(tuned.required[8])] == [5, 4]
        assert rows == [VerifyRow("t", 8, 3, "unavailable", 2, "1.0", False)]

    def test_each_visit_is_bounded_by_its_own_reference_value(self):
        # x is 6.5 on the first visit and 1.3 on the second; at 4 bits
        # it is 6 and 1.25.  Each error is measured against the bound of
        # its own visit's value, 0.5 against 2^-17 and 0.05 against
        # 2^-19, and the first is the worse.
        src = ("i = 5.0;\nwhile (i > 0.5) {\n    x = 1.3 * i;\n"
               "    require_nsb(x, 20);\n    i = i - 4.0;\n}\n")
        prog = parse_program(src)
        ref = run_reference(prog)
        rows, _ = check_tuned(prog, {i: 4 for i in range(len(prog.points))},
                              ref, TuningConfig())
        [seen] = ref.required.values()
        assert [to_float(v) for v in seen] == [6.5, 1.3]
        assert [(r.error, r.ref_ufp, r.bound) for r in rows] == [
            ("0.5", 2, repr(2.0 ** -17))]

    def test_zero_reference_takes_the_sentinel_of_the_ranges(self):
        # The constraints give an all-zero point ufp -pref; its row's bound
        # must be taken from the same ufp, not from -DEFAULT_PRECISION.
        prog = parse_program("x = 0.0;\nrequire_nsb(x, 10);\n")
        cfg = TuningConfig(pref=600)
        assignment, report, _ = tune(prog, cfg)
        ref = run_reference(prog, cfg.pref)
        rows, _ = check_tuned(prog, assignment.widths(), ref, cfg)
        assert ref.ranges.ufp_zero == -600
        assert [(r.ref_ufp, r.bound) for r in report.verification + rows] \
            == [(-600, repr(2.0 ** -609))] * 2

    def test_pass_rule_needs_every_row_and_equal_steps(self):
        row = VerifyRow("d", 4, 20, "0", 1, "2^-18", True)
        assert passed([row], 7, 7)
        assert not passed([row], 7, 8)
        assert not passed([row._replace(passed=False)], 7, 7)

    def test_tolerance_factor_scales_the_check(self, monkeypatch):
        prog = parse_program(SMALL)
        assignment, _, _ = tune(prog)
        widths = {p: max(1, n - 6) for p, n in assignment.widths().items()}
        monkeypatch.setattr(tuner, "TOLERANCE_FACTOR", 1)
        ref, cfg = run_reference(prog), TuningConfig()
        strict, _ = check_tuned(prog, widths, ref, cfg)
        monkeypatch.setattr(tuner, "TOLERANCE_FACTOR", 10**9)
        loose, _ = check_tuned(prog, widths, ref, cfg)
        assert all(r.passed for r in loose)
        assert sum(r.passed for r in strict) <= sum(r.passed for r in loose)


class TestGeneratedScript:
    def _run_script(self, code):
        ns = {}
        exec(compile(code, "<mp-script>", "exec"), ns)
        return ns

    def test_script_reproduces_tuned_run_bit_for_bit(self, rng):
        for _ in range(25):
            src = gen_straight_line(rng, max_ops=5)
            prog = parse_program(src)
            assignment, _, _ = tune(prog)
            trace = run_tuned(prog, assignment.widths())
            ns = self._run_script(emit_mp_code(prog, assignment.widths()))
            for name, val in trace.env.items():
                got = mpfloat.to_fraction(ns[name])
                assert got == mpfloat.to_fraction(val), src

    def test_literals_stay_quoted(self):
        prog = parse_program("a = 0.1;\n")
        code = emit_mp_code(prog, {0: 20, 1: 20})
        assert "mp('0.1', 20)" in code

    def test_operator_results_must_be_wrapped(self):
        with pytest.raises(TypeError, match="wrap"):
            mp("1.5", 10) + (mp("2.5", 10) + mp("3.5", 10))
        with pytest.raises(TypeError):
            mp(mp("1.5", 10) + mp("2.5", 10) + mp("3.5", 10), 10)

    def test_runtime_sqrt(self):
        v = mp_sqrt(mp("2.0", 30), 30)
        assert abs(to_float(v) - 2**0.5) < 1e-8

    # Runs each script given on the command line and prints, as JSON,
    # whether bittune got imported, which module mp came from, and every
    # rounded value the script left behind.
    _ISOLATED_DRIVER = """\
import json, sys
out = []
for path in sys.argv[1:]:
    ns = {}
    exec(compile(open(path).read(), path, "exec"), ns)
    out.append({
        "bittune": any(m == "bittune" or m.startswith("bittune.")
                       for m in sys.modules),
        "runtime": ns["mp"].__module__,
        "vars": {k: [v.sign, v.mant, v.exp, v.prec]
                 for k, v in ns.items() if hasattr(v, "mant")},
    })
print(json.dumps(out))
"""

    def test_script_runs_without_bittune_bit_for_bit(self, rng, tmp_path):
        # -I drops PYTHONPATH, the user site and the script's directory
        # from sys.path, -S the site-packages: bittune is not importable,
        # so the scripts must fall back on the runtime they carry.
        sources = [gen_straight_line(rng, max_ops=5) for _ in range(4)]
        sources.append(
            "x = 2.0;\ns = 0.0;\ni = 0.0;\n"
            "while (i < 4.0) {\n    s = s + sqrt(x * i + 1.0);\n"
            "    i = i + 1.0;\n}\n"
            "if (s > 3.0) {\n    y = -s / 3.0;\n} else {\n    y = s;\n}\n"
            "require_nsb(y, 20);\n")
        expected, paths = [], []
        for i, src in enumerate(sources):
            prog = parse_program(src)
            assignment, _, _ = tune(prog)
            expected.append(run_tuned(prog, assignment.widths()).env)
            path = tmp_path / f"p{i}.mp.txt"
            path.write_text(emit_mp_code(prog, assignment.widths()))
            paths.append(str(path))
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-c", self._ISOLATED_DRIVER, *paths],
            cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        for src, env, got in zip(sources, expected, json.loads(proc.stdout)):
            assert not got["bittune"], src
            assert got["runtime"] == "bittune_mpfloat_bundled", src
            assert got["vars"] == {
                name: [v.sign, v.mant, v.exp, v.prec]
                for name, v in env.items()}, src

    def test_script_prefers_an_importable_bittune(self):
        ns = {}
        exec(compile(emit_mp_code(parse_program("a = 0.5;\n"), {0: 8, 1: 8}),
                     "<mp-script>", "exec"), ns)
        assert ns["mp"] is mp
        assert isinstance(ns["a"], mpfloat.MPValue)

    def test_reserved_names_are_refused_in_bounded_words(self):
        names = ["lambda", "class", "def", "for", "None", "True", "mp",
                 "mp_sqrt", "__debug__"]
        src = "".join(f"{n} = 1.5;\n" for n in names)
        with pytest.raises(ScriptNameError) as info:
            emit_mp_code(parse_program(src), {})
        message = str(info.value)
        assert "'None'" in message and "and 4 more" in message
        assert len(message.splitlines()) == 1


class TestAnnotatedRender:
    def test_all_points_tagged(self):
        assignment, _, _ = tune(parse_program(SMALL))
        text = emit_annotated(parse_program(SMALL), assignment.widths())
        assert text.count("|") == 2 * (len(parse_program(SMALL).points) - 1)
        assert "require_nsb(d, 20);" in text


class TestLpRoundTrip:
    def _system(self):
        src = "a = 8.0;\nb = 0.5;\nc = a + b;\nrequire_nsb(c, 12);\n"
        prog = parse_program(src)
        return gen_ilp(prog, run_reference(prog, 100).ranges)

    def test_export_names_every_variable_and_row(self):
        system = self._system()
        text = export_lp(system)
        assert text.startswith("\\ precision-demand")
        for section in ("Minimize", "Subject To", "Bounds", "General", "End"):
            assert section in text
        for v in system.variables:
            assert v.name in text

    def test_solution_file_round_trip(self):
        system = self._system()
        sol = solve_monotone(system)
        text = "# solver output\n" + "\n".join(
            f"{v.name} = {n}" for v, n in zip(system.variables, sol.values))
        named = parse_solution(text)
        feasible, total = check_solution(system, named)
        assert feasible and total == sol.total

    def test_check_rejects_below_minimum(self):
        system = self._system()
        sol = solve_monotone(system)
        named = {v.name: n for v, n in zip(system.variables, sol.values)}
        victim = next(name for name, n in named.items() if n > 0)
        named[victim] -= 1
        feasible, _ = check_solution(system, named)
        assert not feasible

    def test_missing_variable_rejected(self):
        system = self._system()
        with pytest.raises(ValueError, match="missing"):
            check_solution(system, {})


class TestRefinedLpRoundTrip:
    """The refined system's LP text, every defined carry at 1, against
    its own always-carry solution."""

    SOURCES = (
        "a = 8.0;\nb = 0.5;\nc = a + b;\nrequire_nsb(c, 12);\n",
        "a = 1.5;\nb = 2.25;\nc = a + b;\nd = c * c - a;\n"
        "require_nsb(d, 20);\n",
    )

    @staticmethod
    def _solved(src):
        prog = parse_program(src)
        c2 = gen_refined(prog, run_reference(prog, 100).ranges)
        text = export_lp(c2)
        declared = text[text.index("General") + 7:text.index("End")].split()
        sol = solve_ilp(c2, [3] * len(c2.xi_defs))
        value = {v.name: n for v, n in zip(c2.variables, sol.values)}
        return c2, text, sol, {name: value[name] for name in declared}

    @pytest.mark.parametrize("src", SOURCES)
    def test_always_carry_solution_passes_with_its_total(self, src):
        c2, _, sol, named = self._solved(src)
        assert c2.xi_defs
        assert check_solution(c2, named) == (True, sol.total)

    @pytest.mark.parametrize("src", SOURCES)
    def test_one_lowered_width_fails(self, src):
        # The solution has the least bit-sum, so no width can drop alone.
        c2, _, sol, named = self._solved(src)
        widths = [v.name for v, n in zip(c2.variables[:c2.points],
                                         sol.values) if n > 0]
        assert widths
        for victim in widths:
            lowered = dict(named, **{victim: named[victim] - 1})
            assert not check_solution(c2, lowered)[0]

    @pytest.mark.parametrize("src", SOURCES)
    def test_no_defined_carry_is_named(self, src):
        c2, text, _, named = self._solved(src)
        for x, _, _ in c2.xi_defs:
            name = c2.variables[x].name
            assert name not in named
            assert not re.search(rf"\b{name}\b", text)
