"""Command-line contract: artifacts, exit codes, determinism."""

import collections
import csv
import gc
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import types
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from bittune import cli, constraints, interp, mpfloat, nbody, tuner
from bittune.cli import main
from bittune.parse import parse_program
from bittune.tuner import TuningConfig, passed, tune
from helpers import report_from_json, to_float

ROOT = Path(__file__).resolve().parents[1]

SMALL = """\
a = 0.1;
b = 2.0;
c = a * b + 1.5;
d = sqrt(c);
require_nsb(d, 20);
"""


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "small.pop").write_text(SMALL)
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _bittune(cwd, *argv):
    """The command line in a fresh interpreter, stopped after 20 s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    return subprocess.run([sys.executable, "-m", "bittune.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=20)


class TestTuneCommand:
    def test_writes_three_artifacts(self, workdir, capsys):
        code, out, err = run_cli(capsys, "tune", "small.pop")
        assert code == 0, err
        for name in ("small.annotated.pop", "small.mp.txt", "small.report.json"):
            assert (workdir / name).exists(), name
        assert list(workdir.glob(".*")) == []
        assert "total bits (ilp):" in out

    # The annotated source and the mp script used to be written before
    # the report's directory turned out to be missing, with exit 1.
    @pytest.mark.parametrize("report", ["nodir/r.json", "adir"])
    def test_a_failed_write_leaves_every_artifact_as_it_was(
            self, workdir, capsys, report):
        (workdir / "adir").mkdir()
        (workdir / "small.mp.txt").write_text("old\n")
        code, out, err = run_cli(capsys, "tune", "small.pop", "--report",
                                 report, "--emit-lp")
        assert (code, out) == (1, "")
        assert err.startswith("bittune: tune: [Errno ")
        assert sorted(f.name for f in workdir.rglob("*")) == \
            ["adir", "small.mp.txt", "small.pop"]
        assert (workdir / "small.mp.txt").read_text() == "old\n"

    def test_reruns_are_byte_identical(self, workdir, capsys):
        run_cli(capsys, "tune", "small.pop")
        first = {n: (workdir / n).read_bytes()
                 for n in ("small.annotated.pop", "small.mp.txt",
                           "small.report.json")}
        run_cli(capsys, "tune", "small.pop")
        for name, blob in first.items():
            assert (workdir / name).read_bytes() == blob

    # An artifact is written over in place, so a longer old file must
    # be cut to the new text.
    @pytest.mark.parametrize("command, names", [
        ("tune", ("small.annotated.pop", "small.mp.txt", "small.report.json")),
        ("export-lp", ("small.lp",)),
    ], ids=["tune", "export-lp"])
    def test_a_longer_old_artifact_is_cut_to_the_new_one(
            self, workdir, capsys, command, names):
        assert run_cli(capsys, command, "small.pop")[0] == 0
        first = {n: (workdir / n).read_bytes() for n in names}
        for name, blob in first.items():
            (workdir / name).write_bytes(blob + b"x" * 10000)
        assert run_cli(capsys, command, "small.pop")[0] == 0
        for name, blob in first.items():
            assert (workdir / name).read_bytes() == blob

    # The report was written over the source program, and the LP file
    # over the report, with exit 0; a .lp source took the LP file.
    @pytest.mark.parametrize("argv, message", [
        (("small.pop", "--report", "small.pop"),
         "--report: small.pop is the source"),
        (("small.pop", "--emit-lp", "--report", "./small.lp"),
         "--report: small.lp is the LP file"),
        (("small.pop", "--report", "small.mp.txt"),
         "--report: small.mp.txt is the mp script"),
        (("copy.lp", "--emit-lp"), "--emit-lp: copy.lp is the source"),
    ], ids=["source", "lp-file", "script", "lp-source"])
    def test_an_artifact_over_another_file_is_usage_error(
            self, workdir, capsys, argv, message):
        (workdir / "copy.lp").write_text(SMALL)
        assert run_cli(capsys, "tune", *argv) == (
            2, "", f"bittune: tune: {message}\n")
        assert sorted(f.name for f in workdir.iterdir()) == \
            ["copy.lp", "small.pop"]
        assert (workdir / "small.pop").read_text() == SMALL
        assert (workdir / "copy.lp").read_text() == SMALL

    def test_timings_flag_gates_the_clock_field(self, workdir, capsys):
        run_cli(capsys, "tune", "small.pop")
        report = json.loads((workdir / "small.report.json").read_text())
        assert "stages" not in report and "analysis_seconds" not in report
        run_cli(capsys, "tune", "small.pop", "--timings")
        report = json.loads((workdir / "small.report.json").read_text())
        assert "stages" in report and "analysis_seconds" not in report

    # sha256 of small.pop's default report, recorded before the report
    # had any field beside analysis_seconds to leave out.
    REPORT_SHA256 = {
        "ilp": "9ec54815d6bc3dda0da590cb40f674e5c0653e1a1a15bcf451590376de30ed2d",
        "pi": "114604be4f26483a141b234f7f96aa1c97ec65c70a28525616c68f1d787dbf43",
    }

    @pytest.mark.parametrize("method", ["ilp", "pi"])
    def test_default_report_bytes_are_pinned(self, workdir, capsys, method):
        run_cli(capsys, "tune", "small.pop", "--method", method)
        blob = (workdir / "small.report.json").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == self.REPORT_SHA256[method]

    def test_timings_flag_adds_every_stage(self, workdir, capsys):
        code, _, err = run_cli(capsys, "tune", "small.pop", "--method", "pi",
                               "--emit-lp", "--timings")
        assert code == 0, err
        stages = json.loads((workdir / "small.report.json").read_text())["stages"]
        assert set(stages) == {"parse", "reference_run", "generate", "solve",
                               "tuned_run", "verify", "emit"}
        assert all(isinstance(s, float) and s >= 0 for s in stages.values())
        run_cli(capsys, "tune", "small.pop", "--method", "pi", "--emit-lp")
        assert "stages" not in (workdir / "small.report.json").read_text()

    def test_report_path_override(self, workdir, capsys):
        code, _, _ = run_cli(capsys, "tune", "small.pop",
                             "--method", "pi", "--report", "out.json")
        assert code == 0
        data = json.loads((workdir / "out.json").read_text())
        assert set(data["total_bits"]) == {"ilp", "pi"}

    def test_emit_lp(self, workdir, capsys):
        code, _, _ = run_cli(capsys, "tune", "small.pop", "--emit-lp")
        assert code == 0
        assert (workdir / "small.lp").read_text().startswith("\\ precision")

    def test_emit_lp_matches_export_lp(self, workdir, capsys):
        (workdir / "open.pop").write_text(
            "y = x * x + 0.5;\nz = sqrt(y);\nrequire_nsb(z, 16);\n")
        (workdir / "s.json").write_text('[{"x": "3.0"}, {"x": "0.125"}]')
        run_cli(capsys, "tune", "open.pop", "--samples", "s.json",
                "--method", "pi", "--emit-lp")
        run_cli(capsys, "export-lp", "open.pop", "--samples", "s.json",
                "--out", "exported.lp")
        assert (workdir / "open.lp").read_bytes() == \
            (workdir / "exported.lp").read_bytes()

    def test_source_is_parsed_once(self, workdir, capsys, monkeypatch):
        # The tuner takes parsed programs only, so the CLI's parse is the
        # only one.
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return parse_program(*args, **kwargs)

        monkeypatch.setattr(cli, "parse_program", counted)
        code, _, err = run_cli(capsys, "tune", "small.pop", "--emit-lp")
        assert code == 0, err
        assert len(calls) == 1

    def test_evaluation_error_names_the_pass(self, workdir, capsys):
        (workdir / "div.pop").write_text(
            "a = 0.0;\nb = 1.0 / a;\nrequire_nsb(b, 10);\n")
        code, _, err = run_cli(capsys, "tune", "div.pop")
        assert code == 1
        assert err == ("bittune: tune: reference run: division by zero "
                       "(control point 4)\n")

    def test_missing_file_is_analysis_error(self, workdir, capsys):
        code, _, err = run_cli(capsys, "tune", "missing.pop")
        assert code == 1
        assert err.startswith("bittune: tune:")

    def test_parse_error_reported_with_stage(self, workdir, capsys):
        (workdir / "bad.pop").write_text("a = ;\n")
        code, _, err = run_cli(capsys, "tune", "bad.pop")
        assert code == 1 and "bittune: tune:" in err

    def test_mp_script_is_executable(self, workdir, capsys):
        run_cli(capsys, "tune", "small.pop")
        proc = subprocess.run(
            [sys.executable, str(workdir / "small.mp.txt")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_mp_script_names_its_unbound_inputs(self, workdir, capsys):
        (workdir / "open.pop").write_text(
            "y = x * w + 1.0;\nrequire_nsb(y, 12);\n")
        (workdir / "s.json").write_text('{"x": "0.5", "w": "3.0"}')
        run_cli(capsys, "tune", "open.pop", "--samples", "s.json")
        script = (workdir / "open.mp.txt").read_text()
        assert "or it stops, naming the unbound ones." in script
        proc = subprocess.run(
            [sys.executable, "-I", "-S", str(workdir / "open.mp.txt")],
            capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("unbound free inputs: w, x;")
        from bittune import mpfloat
        ns = {"x": mpfloat.from_float(0.5)}
        with pytest.raises(SystemExit, match="^unbound free inputs: w;"):
            exec(compile(script, "open.mp.txt", "exec"), ns)
        ns = {"x": mpfloat.from_float(0.5), "w": mpfloat.from_float(3.0)}
        exec(compile(script, "open.mp.txt", "exec"), ns)
        assert to_float(ns["y"]) == 2.5

    @pytest.mark.parametrize("name", ["lambda", "mp", "mp_sqrt"])
    def test_script_name_refused_before_any_artifact(self, workdir, capsys,
                                                     name):
        (workdir / "named.pop").write_text(
            f"{name} = 1.5;\ny = {name} * 2.0;\nrequire_nsb(y, 10);\n")
        code, out, err = run_cli(capsys, "tune", "named.pop", "--emit-lp")
        assert code == 1 and out == ""
        assert err.startswith("bittune: tune:") and repr(name) in err
        assert len(err.splitlines()) == 1
        assert sorted(p.name for p in workdir.iterdir()) == \
            ["named.pop", "small.pop"]

    # A free input named after a name the script's own code reads broke
    # the script, while tune exited 0: bound to an MPValue, `any` made
    # the input check raise TypeError, and `ImportError`, where bittune
    # is not importable, made the header's except clause raise one.  A
    # variable the program assigns may take the name, as the header and
    # the check run before the first statement.
    @pytest.mark.parametrize("name, isolated", [
        ("any", False), ("ImportError", True),
    ], ids=["any", "ImportError-isolated"])
    def test_a_free_input_the_script_reads_is_refused(
            self, workdir, capsys, name, isolated):
        (workdir / "s.json").write_text(json.dumps({name: "1.5", "x": "0.5"}))
        (workdir / "free.pop").write_text(
            f"y = {name} * 2.0;\nrequire_nsb(y, 10);\n")
        code, out, err = run_cli(capsys, "tune", "free.pop", "--samples",
                                 "s.json")
        assert (code, out) == (1, "")
        assert err.startswith(f"bittune: tune: free input {name!r} cannot "
                              f"be used in the mp script")
        assert sorted(p.name for p in workdir.iterdir()) == \
            ["free.pop", "s.json", "small.pop"]

        (workdir / "set.pop").write_text(
            f"{name} = x * 2.0;\ny = {name} + 1.0;\nrequire_nsb(y, 10);\n")
        assert run_cli(capsys, "tune", "set.pop", "--samples",
                       "s.json")[0] == 0
        script = (workdir / "set.mp.txt").read_text()
        if isolated:
            proc = subprocess.run(
                [sys.executable, "-I", "-S", str(workdir / "set.mp.txt")],
                capture_output=True, text=True)
            assert proc.returncode == 1
            assert proc.stderr.startswith("unbound free inputs: x;")
        else:
            ns = {"x": mpfloat.from_float(0.5)}
            exec(compile(script, "set.mp.txt", "exec"), ns)
            assert to_float(ns["y"]) == 2.0

    def test_infeasibility_message_is_bounded(self, workdir, capsys):
        # Every term of a long sum raises the carry chain above it, so
        # the sum's width passes the cap along a chain of ~500 rows.
        terms = " + ".join(f"{i}.5" for i in range(600))
        (workdir / "long.pop").write_text(
            f"s = {terms};\nrequire_nsb(s, 20);\n")
        code, out, err = run_cli(capsys, "tune", "long.pop")
        assert code == 1 and out == ""
        assert err.startswith("bittune: tune: infeasible:")
        assert "raising chain of " in err and "more rows" in err
        assert len(err.splitlines()) <= 15

    def test_script_nesting_limit(self, workdir, capsys):
        # A left-leaning sum of n terms nests n + 1 brackets deep in the
        # script; CPython compiles at most 200.
        for n in (199, 200):
            terms = " + ".join(f"{i}.5" for i in range(n))
            (workdir / f"s{n}.pop").write_text(
                f"s = {terms};\nrequire_nsb(s, 8);\n")
        code, _, err = run_cli(capsys, "tune", "s199.pop")
        assert code == 0, err
        proc = subprocess.run([sys.executable, "-I", "-S", "s199.mp.txt"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, out, err = run_cli(capsys, "tune", "s200.pop")
        assert code == 1 and out == ""
        assert err == ("bittune: tune: control point 0 would sit 201 "
                       "brackets deep in the mp script; Python compiles at "
                       "most 200\n")
        assert not list(workdir.glob("s200.*.*"))

    def test_infeasibility_message_is_pinned(self, workdir, capsys):
        # Which rows are named depends on the order in which the
        # solver's worklist visits rows; this text pins that order.
        terms = " + ".join(f"{i}.5" for i in range(600))
        (workdir / "long.pop").write_text(
            f"s = {terms};\nrequire_nsb(s, 20);\n")
        _, _, err = run_cli(capsys, "tune", "long.pop")
        chain = "".join(f"    nsb_{p} >= nsb_{p + 2} + xi_{p + 2}({p},{p + 1})"
                        f"  (operand, point {p + 2})\n"
                        for p in range(226, 246, 2))
        assert err == ("bittune: tune: infeasible: nsb_226 is driven past "
                       "the cap 500\n  raising chain of 489 rows:\n" + chain
                       + "    … and 479 more rows\n")

    @staticmethod
    def _nested(workdir, name, head, n):
        (workdir / name).write_text(
            "i = 0.5;\n" + head * n + "i = i + 1.0;" + "}" * n
            + "\nrequire_nsb(i, 8);\n")

    @pytest.mark.parametrize("head, fits, limit, words", [
        ("while (i < 1.0) {", 20, 20, "loops deep"),
        ("if (i < 1.0) {", 99, 99, "levels in the mp script"),
    ])
    def test_script_statement_nesting_limit(self, workdir, capsys, head,
                                            fits, limit, words):
        # CPython compiles at most 20 nested loops and a body indented at
        # most 99 levels below the module.
        self._nested(workdir, "fits.pop", head, fits)
        self._nested(workdir, "over.pop", head, fits + 1)
        code, _, err = run_cli(capsys, "tune", "fits.pop")
        assert code == 0, err
        proc = subprocess.run([sys.executable, "-I", "-S", "fits.mp.txt"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, out, err = run_cli(capsys, "tune", "over.pop")
        assert code == 1 and out == ""
        assert err.startswith("bittune: tune: the ")
        assert f"{fits + 1} {words}" in err
        assert f"Python compiles at most {limit}\n" in err
        assert "control point" in err and len(err.splitlines()) == 1
        assert not list(workdir.glob("over.*.*"))

    def test_deep_expression_refused_at_parse(self, workdir, capsys):
        # 1199 terms nest 1198 additions deep: every recursive pass would
        # exceed Python's recursion limit, so the parser refuses it.
        terms = " + ".join(f"{i}.5" for i in range(1199))
        (workdir / "deep.pop").write_text(f"t = 1.0;\ns = {terms};\n"
                                          "require_nsb(s, 8);\n")
        code, out, err = run_cli(capsys, "tune", "deep.pop")
        assert code == 1 and out == ""
        assert err == ("bittune: tune: line 2, column 5: expression nested "
                       "1198 operators deep, over the limit of 700\n")
        assert not list(workdir.glob("deep.*.*"))

    @pytest.mark.parametrize("block", ["if", "while"])
    def test_program_at_both_parse_limits_passes_every_stage(self, workdir,
                                                             capsys, block):
        # 100 nested branches or loops around a sum nested 700 additions
        # deep: parse, def-use links (which summarize each loop body on
        # a further frame), both runs and both systems fit in the
        # recursion limit; the solve then fails on its own terms.  The
        # sum is past 1.0, so each loop runs its body once.
        terms = " + ".join(f"{i}.5" for i in range(701))
        (workdir / "edge.pop").write_text(
            "s = 0.5;\n" + f"{block} (s < 1.0) {{" * 100 + f"s = {terms};"
            + "}" * 100 + "\nrequire_nsb(s, 8);\n")
        for argv in (("run", "edge.pop"), ("export-lp", "edge.pop"),
                     ("export-lp", "edge.pop", "--refined")):
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, err
        code, _, err = run_cli(capsys, "tune", "edge.pop", "--method", "pi")
        assert code == 1
        assert err.startswith("bittune: tune: infeasible:")


class TestNoCommandWritesOverItsInputs:
    """tune and export-lp refuse an output that lands on the source, on
    the samples file or on another output, before they read anything."""

    OPEN = "y = x * 3.0;\nrequire_nsb(y, 20);\n"
    SAMPLES = '{"x": "0.1"}\n'

    # Each exited 0: export-lp wrote the LP text over its source or its
    # samples, tune the report over its samples (the rerun then failed
    # with "samples value for 'diverged' is a boolean") and the mp
    # script over samples named like it.
    @pytest.mark.parametrize("argv, message", [
        (("export-lp", "a.lp"), "--out: a.lp is the source"),
        (("export-lp", "c.pop", "--out", "c.pop"),
         "--out: c.pop is the source"),
        (("export-lp", "c.pop", "--samples", "s.json", "--out", "s.json"),
         "--out: s.json is the samples file"),
        (("tune", "c.pop", "--samples", "s.json", "--report", "s.json"),
         "--report: s.json is the samples file"),
        (("tune", "d.pop", "--samples", "d.mp.txt"),
         "--samples: d.mp.txt is the mp script"),
    ], ids=["lp-source", "out-source", "out-samples", "report-samples",
            "script-samples"])
    def test_is_usage_error_that_reads_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        inputs = {"a.lp": SMALL, "c.pop": self.OPEN, "d.pop": self.OPEN,
                  "s.json": self.SAMPLES, "d.mp.txt": self.SAMPLES}
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        monkeypatch.setattr(cli, "_config",
                            lambda args: pytest.fail("an input was read"))
        assert run_cli(capsys, *argv) == (
            2, "", f"bittune: {argv[0]}: {message}\n")
        assert {f.name: f.read_text() for f in tmp_path.iterdir()} == inputs


class TestVerifyCommand:
    def test_passes_after_tune(self, workdir, capsys):
        run_cli(capsys, "tune", "small.pop")
        code, out, _ = run_cli(capsys, "verify", "small.pop")
        assert code == 0
        assert "1/1 within tolerance" in out

    def test_fails_against_foreign_widths(self, workdir, capsys):
        run_cli(capsys, "tune", "small.pop")
        report = json.loads((workdir / "small.report.json").read_text())
        report["nsb"] = {k: 2 for k in report["nsb"]}
        (workdir / "small.report.json").write_text(json.dumps(report))
        code, out, _ = run_cli(capsys, "verify", "small.pop")
        assert code == 1
        assert "FAIL" in out

    # Its one requirement lands 1.24x over the one-ulp bound, so at a
    # tolerance factor of 1 its row fails.
    OVERSHOOT = ("v0 = 3.98561;\nv1 = 8.055112;\nv2 = v1 * v1;\n"
                 "v3 = sqrt(v0);\nv4 = v1 - v2;\nv5 = sqrt(v3);\n"
                 "require_nsb(v5, 24);\n")

    @pytest.mark.parametrize("source, samples, tolerance, passes", [
        (SMALL, None, 100, True),
        ("y = x * x + 1.0;\nz = sqrt(y);\nrequire_nsb(z, 20);\n"
         "require_nsb(y, 12);\n", '[{"x": "3.0"}, {"x": "0.125"}]', 100,
         True),
        (OVERSHOOT, None, 1, False),
    ], ids=["small", "samples", "failing"])
    def test_repeats_the_check_tune_reported(self, workdir, capsys,
                                             monkeypatch, source, samples,
                                             tolerance, passes):
        monkeypatch.setattr(tuner, "TOLERANCE_FACTOR", tolerance)
        (workdir / "p.pop").write_text(source)
        flags = []
        if samples is not None:
            (workdir / "s.json").write_text(samples)
            flags = ["--samples", "s.json"]
        code, _, err = run_cli(capsys, "tune", "p.pop", *flags)
        assert code == 0, err
        report = report_from_json(
            (workdir / "p.report.json").read_text())
        assert passed(report.verification, report.steps_reference,
                      report.steps_tuned) is passes
        code, out, _ = run_cli(capsys, "verify", "p.pop", *flags)
        rows = report.verification
        assert [line.split() for line in out.splitlines()[1:1 + len(rows)]] \
            == [[r.var, str(r.bits), r.error, r.bound,
                 "pass" if r.passed else "FAIL"] for r in rows]
        assert (code == 0) is passes

    def test_report_without_widths_rejected(self, workdir, capsys):
        (workdir / "small.report.json").write_text("{}")
        code, _, err = run_cli(capsys, "verify", "small.pop")
        assert code == 1 and "nsb" in err

    @pytest.mark.parametrize("body", [
        "[]", "7", '{"nsb": {"0": null}}', '{"nsb": {"0": [1]}}',
    ], ids=["list", "number", "null-width", "list-width"])
    def test_malformed_report_is_one_staged_line(self, workdir, body):
        (workdir / "bad.json").write_text(body)
        proc = _bittune(workdir, "verify", "small.pop", "--report", "bad.json")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", "bittune: verify: bad.json has no nsb width map\n")

    @staticmethod
    def _tune_and_set_point_0(workdir, capsys, width):
        run_cli(capsys, "tune", "small.pop")
        path = workdir / "small.report.json"
        report = json.loads(path.read_text())
        report["nsb"]["0"] = width
        path.write_text(json.dumps(report))

    @pytest.mark.parametrize("width", ["-3", "1.5", "true", '"7"', "9999"])
    def test_width_tune_never_writes_is_one_staged_line(self, workdir, capsys,
                                                       width):
        self._tune_and_set_point_0(workdir, capsys, json.loads(width))
        proc = _bittune(workdir, "verify", "small.pop")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"bittune: verify: small.report.json: width {width!r} at "
                   f"point '0' is not an integer in [0, 500]\n")

    # A width of 4,000 digits, as a string or as a number, was quoted in
    # full, in a 4 KB line.
    @pytest.mark.parametrize("width, quoted", [
        ("7" * 4000, "'\"" + "7" * 19 + "...'"),
        (int("7" * 4000), "'" + "7" * 20 + "...'"),
    ])
    def test_long_width_is_one_short_line(self, workdir, capsys, width,
                                          quoted):
        self._tune_and_set_point_0(workdir, capsys, width)
        assert run_cli(capsys, "verify", "small.pop") == (
            1, "", f"bittune: verify: small.report.json: width {quoted} at "
                   f"point '0' is not an integer in [0, 500]\n")

    # Each width was checked, but not its key: 9999 and -1 verified with
    # exit 0, 07 and " 1" replaced the widths of points 7 and 1, and x
    # was taken for a missing width map.
    @pytest.mark.parametrize("key", ["9999", "-1", "x", "07", " 1"])
    def test_key_that_is_no_control_point_is_one_staged_line(
            self, workdir, capsys, key):
        run_cli(capsys, "tune", "small.pop")
        path = workdir / "small.report.json"
        report = json.loads(path.read_text())
        report["nsb"][key] = 5
        path.write_text(json.dumps(report))
        proc = _bittune(workdir, "verify", "small.pop")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"bittune: verify: small.report.json: width key "
                   f"{key!r} is not one of the program's 14 "
                   f"control points\n")

    # A 20,000-character key was quoted in full, in a 20 KB line, by
    # either message.
    @pytest.mark.parametrize("width, reason", [
        (5, "width key {} is not one of the program's 14 control points"),
        (-3, "width '-3' at point {} is not an integer in [0, 500]"),
    ])
    def test_long_width_key_is_one_short_line(self, workdir, capsys, width,
                                              reason):
        run_cli(capsys, "tune", "small.pop")
        path = workdir / "small.report.json"
        report = json.loads(path.read_text())
        report["nsb"]["k" * 20_000] = width
        path.write_text(json.dumps(report))
        assert run_cli(capsys, "verify", "small.pop") == (
            1, "", "bittune: verify: small.report.json: "
                   + reason.format("'" + "k" * 20 + "...'") + "\n")

    # A report missing a point's width ran the whole reference pass and
    # then blamed the tuned run: "tuned run: no width assigned".
    def test_report_without_a_width_is_refused_before_any_run(
            self, workdir, capsys, monkeypatch):
        (workdir / "w.pop").write_text(
            "a = 0.1; b = a * 2.0; require_nsb(b, 20);\n")
        run_cli(capsys, "tune", "w.pop")
        path = workdir / "w.report.json"
        report = json.loads(path.read_text())
        del report["nsb"]["2"]
        path.write_text(json.dumps(report))
        monkeypatch.setattr(cli, "run_reference",
                            lambda *args: pytest.fail("verify ran a pass"))
        assert run_cli(capsys, "verify", "w.pop") == (
            1, "", "bittune: verify: w.report.json: no width for control "
                   "point 2\n")

    @pytest.mark.parametrize("width", [0, 500])
    def test_widths_at_either_end_of_the_range_run(self, workdir, capsys,
                                                  width):
        self._tune_and_set_point_0(workdir, capsys, width)
        _, out, err = run_cli(capsys, "verify", "small.pop")
        assert "within tolerance" in out and err == ""


class TestOpenRoadmapItems:
    """The correct behaviour for open ROADMAP items, as strict xfails: the
    change that mends an item turns its test into an XPASS, which fails
    until that change removes the marker."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 1: a loop-carried value read only in the next "
        "iteration gets no demand"))
    @pytest.mark.parametrize("method", ["ilp", "pi"])
    def test_item_1_loop_carried_value_meets_its_requirement(
            self, workdir, capsys, method):
        (workdir / "loop.pop").write_text(
            "a = 1.3; b = 0.7; s = 0.0; i = 0.0;\n"
            "while (i < 10.0) { s = s + b; b = a * 1.1; a = a + 0.5; "
            "i = i + 1.0; }\nrequire_nsb(s, 30);\n")
        code, _, err = run_cli(capsys, "tune", "loop.pop", "--method", method)
        assert (code, err) == (0, "")
        assert run_cli(capsys, "verify", "loop.pop")[0] == 0


class TestRequirementsCheckedWhereTheyStand:
    """A require_nsb is checked on the values its variable held at the
    requirement, visit by visit, not on the variable's final value."""

    @staticmethod
    def _set_widths(workdir, name: str, width: int) -> None:
        path = workdir / f"{name}.report.json"
        report = json.loads(path.read_text())
        report["nsb"] = {k: width for k in report["nsb"]}
        path.write_text(json.dumps(report))

    def test_lowered_widths_fail_at_the_requirement(self, workdir, capsys):
        # The final x is 0 at any width, which passed.
        (workdir / "p.pop").write_text(
            "a = 1.3; x = a * 3.7; require_nsb(x, 20); x = 0.0;\n")
        run_cli(capsys, "tune", "p.pop")
        self._set_widths(workdir, "p", 2)
        assert run_cli(capsys, "verify", "p.pop")[0] == 1

    def test_a_later_assignment_leaves_the_requirement_met(self, workdir,
                                                           capsys):
        # The later x has width 0 and failed, though nothing demands it.
        (workdir / "p.pop").write_text(
            "a = 1.3; x = a * 3.7; require_nsb(x, 20); x = a * 1.1;\n")
        code, _, err = run_cli(capsys, "tune", "p.pop")
        assert (code, err) == (0, "")
        assert run_cli(capsys, "verify", "p.pop")[0] == 0

    def test_an_early_visit_that_misses_its_bound_fails(self, workdir,
                                                         capsys):
        # x is 1.3 on the first visit and exactly 0 on the last; at 4 bits
        # the first is 1.25, and its row is the one reported.
        (workdir / "loop.pop").write_text(
            "i = 1.0;\nwhile (i > -0.5) {\n  x = 1.3 * i;\n"
            "  require_nsb(x, 20);\n  i = i - 1.0;\n}\n")
        assert run_cli(capsys, "tune", "loop.pop")[:2] == (
            0, "total bits (ilp): 536\nwrote loop.annotated.pop\n"
               "wrote loop.mp.txt\nwrote loop.report.json\n")
        assert run_cli(capsys, "verify", "loop.pop")[0] == 0
        self._set_widths(workdir, "loop", 4)
        code, out, _ = run_cli(capsys, "verify", "loop.pop")
        assert code == 1
        assert out.splitlines()[1].split() == [
            "x", "20", "0.05", "1.9073486328125e-06", "FAIL"]


class TestExportLpChecksRequirements:
    @pytest.mark.parametrize("command", ["tune", "export-lp"])
    def test_a_requirement_past_pref_is_refused(self, workdir, capsys,
                                                monkeypatch, command):
        # export-lp wrote "nsb_6 >= 600" beside the bound "<= 500" and
        # exited 0; tune refused the same source before anything ran.
        (workdir / "p.pop").write_text(
            "x = 1.3; y = x * 3.7; require_nsb(y, 600);\n")
        for module in (cli, tuner):
            monkeypatch.setattr(module, "run_reference",
                                lambda *a, **k: pytest.fail("a pass ran"))
        assert run_cli(capsys, command, "p.pop") == (
            1, "", f"bittune: {command}: control point 6: require_nsb bit "
                   f"count '600' exceeds pref 500\n")
        assert sorted(f.name for f in workdir.iterdir()) == \
            ["p.pop", "small.pop"]


class TestBenchCommand:
    def test_tiny_sweep(self, workdir, capsys, monkeypatch):
        # Each cell's widths are those `tune` solves for the same source.
        seen = []
        original = nbody.run_tuned

        def run_tuned(prog, widths, *args, **kwargs):
            seen.append(dict(widths))
            return original(prog, widths, *args, **kwargs)

        monkeypatch.setattr(nbody, "run_tuned", run_tuned)
        cells = list(itertools.product(("ilp", "pi"), (11, 24)))
        for method in ("ilp", "pi"):
            code, out, err = run_cli(capsys, "bench", "--nsb", "11,24",
                                     "--years", "0.05", "--method", method,
                                     "--out", method, "--no-series")
            assert code == 0, err
            with open(workdir / method / "summary.csv") as fh:
                table = list(csv.reader(fh))
            assert len(table) == 1 + 2 * 4
            assert "Jupiter" in out
        assert len(seen) == len(cells)
        t_max = nbody.horizon_t_max(0.05)
        for (method, req), widths in zip(cells, seen):
            source = nbody.build_nbody_program(t_max=t_max, req=req)
            assignment, _, _ = tune(parse_program(source), TuningConfig(method))
            assert widths == assignment.widths(), (method, req)

    def test_row_grid_is_nsb_times_years_times_bodies(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "bench", "--nsb", "11,24",
                               "--years", "0.05,0.1", "--out", "grid",
                               "--no-series")
        assert code == 0
        with open(workdir / "grid" / "summary.csv") as fh:
            assert len(list(csv.reader(fh))) == 1 + 2 * 2 * 4
        # One drift table per horizon, one row per requirement: nsb, four
        # planet distances, tune and run seconds.
        lines = out.splitlines()
        assert [ln for ln in lines if ln.startswith("horizon")] == \
            ["horizon 0.05 years", "horizon 0.1 years"]
        rows = [ln.split() for ln in lines if ln.split()[0].isdigit()]
        assert [(r[0], len(r)) for r in rows] == [("11", 7), ("24", 7)] * 2

    # A repeated requirement ran its cell twice (eight summary rows, one
    # table row, its series file written twice); two horizons with one
    # :g name printed alike and the second series file overwrote the
    # first; 0 and -0 ran one horizon twice, as h0y and h-0y.  All
    # exited 0.
    @pytest.mark.parametrize("flags, message", [
        (("--nsb", "11,11", "--years", "0.05"),
         "--nsb: requirement 11 is repeated"),
        (("--nsb", "11", "--years", "0.05000001,0.05000002"),
         "--years: two horizons are named 0.05"),
        (("--nsb", "11", "--years", "0,-0"),
         "--years: two horizons are named 0"),
    ], ids=["nsb", "years", "years-zero"])
    def test_a_repeated_cell_is_usage_error(self, workdir, capsys,
                                            monkeypatch, flags, message):
        monkeypatch.setattr(nbody, "run_reference",
                            lambda *a, **k: pytest.fail("a pass ran"))
        assert run_cli(capsys, "bench", *flags, "--out", "out") == (
            2, "", f"bittune: bench: {message}\n")
        assert not (workdir / "out").exists()

    def test_a_horizon_of_minus_zero_is_zero(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "bench", "--nsb", "11", "--years",
                               "-0", "--out", "out")
        assert code == 0 and out.splitlines()[0] == "horizon 0 years"
        assert sorted(p.name for p in (workdir / "out").iterdir()) == [
            "series_nsb11_h0y.csv", "summary.csv"]
        with open(workdir / "out" / "summary.csv") as fh:
            assert {row["horizon_years"] for row in csv.DictReader(fh)} == \
                {"0.0"}

    # Past --pref, a cell's error names the rows that drove the width
    # there, under either method.
    @pytest.mark.parametrize("method", ["ilp", "pi"])
    def test_a_cell_past_the_cap_keeps_solve_monotone_s_message(
            self, tmp_path, capsys, method):
        assert main(["bench", "--years", "0.01", "--nsb", "11", "--pref",
                     "53", "--method", method, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "bittune: bench: infeasible: nsb_895 is driven past the cap 53\n"
            "  raising chain of 4 rows:\n"
            "    nsb_895 >= nsb_896 + xi_896(894,895)  (operand, point 896)\n"
            "    nsb_896 >= nsb_897  (copy, point 897)\n"
            "    nsb_897 >= nsb_106  (link, point 106)\n"
            "    nsb_106 >= 53  (cond, point 106)\n")

    def test_nsb_out_of_box_is_usage_error(self, workdir, capsys):
        code, _, err = run_cli(capsys, "bench", "--nsb", "0")
        assert code == 2 and "outside" in err

    def test_negative_years_is_usage_error(self, workdir, capsys):
        code, _, err = run_cli(capsys, "bench", "--years", "-3")
        assert code == 2

    def test_diverged_cell_is_judged_by_its_step_count(self, workdir,
                                                        capsys, monkeypatch):
        # One-bit conditions end the tuned loop early.  The sweep judged
        # this by the samples it stored ("trip counts diverged: reference
        # stored 6 samples, tuned 4"); it now judges it as verify does.
        monkeypatch.setattr(constraints, "COND_NSB", 1)
        code, out, err = run_cli(capsys, "bench", "--years", "0.05",
                                 "--nsb", "11", "--out", "out")
        assert (code, out, err) == (
            1, "", "bittune: bench: control flow diverged: reference ran "
                   "610 steps, tuned 386\n")

    # Unchecked, a zero or negative step looped to the interpreter's step
    # cap, "abc" ended in a decimal traceback, a NaN horizon failed in
    # the def-use check, and an empty list wrote a summary of no rows.
    @pytest.mark.parametrize("flags, message", [
        (("--dt", "0"), "--dt: time step 0 is not an unsigned positive "
                        "number"),
        (("--dt", "-0.01"), "--dt: time step -0.01 is not an unsigned "
                            "positive number"),
        (("--dt", "abc"), "--dt: malformed numeric literal 'abc'"),
        (("--years", "nan"), "--years: horizon nan is not a finite number "
                             "of years >= 0"),
        (("--nsb", ","), "--nsb: the list is empty"),
        (("--years", ","), "--years: the list is empty"),
    ], ids=["dt-zero", "dt-negative", "dt-text", "years-nan", "nsb-empty",
            "years-empty"])
    def test_unrunnable_sweep_is_usage_error(self, workdir, flags, message):
        proc = _bittune(workdir, "bench", *flags, "--out", "out")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", f"bittune: bench: {message}\n")
        assert not (workdir / "out").exists()

    # The five-body program runs 50 top-level steps and 112 per trip; at
    # 0.05 years it makes 5 trips, 610 steps.  A horizon past the cap ran
    # its whole reference pass before it stopped with exit 1.
    @pytest.mark.parametrize("cap", [610, 609])
    def test_a_horizon_past_the_step_cap_is_refused_up_front(
            self, workdir, capsys, monkeypatch, cap):
        monkeypatch.setattr(interp, "MAX_STEPS", cap)
        if cap < 610:
            monkeypatch.setattr(nbody, "run_reference",
                                lambda *a, **k: pytest.fail("a pass ran"))
        code, _, err = run_cli(capsys, "bench", "--years", "0.05", "--nsb",
                               "11", "--out", "out")
        assert (code, err) == ((0, "") if cap == 610 else (
            2, "bittune: bench: --years: horizon 0.05 years at dt 0.01 "
               "takes more than 609 steps, the interpreter's cap\n"))
        assert (workdir / "out").exists() == (cap == 610)


class TestScripts:
    def test_tune_nbody_writes_what_tune_writes(self, tmp_path, capsys,
                                                monkeypatch):
        # The script runs in its own working directory with the default
        # --out and a requirement of its own, and its artifacts must equal
        # what bittune tune writes.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
        script_dir, cli_dir = tmp_path / "script", tmp_path / "cli"
        script_dir.mkdir()
        cli_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "tune_nbody.py"),
             "--years", "0.05", "--req", "11"],
            capture_output=True, text=True, env=env, cwd=script_dir,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "12/12 within tolerance" in proc.stdout
        assert "require_nsb(xJupiter, 11);" in \
            (script_dir / "nbody.pop").read_text()
        (cli_dir / "nbody.pop").write_bytes(
            (script_dir / "nbody.pop").read_bytes())
        monkeypatch.chdir(cli_dir)
        code, _, err = run_cli(capsys, "tune", "nbody.pop", "--method", "pi")
        assert code == 0, err
        for name in ("nbody.annotated.pop", "nbody.mp.txt",
                     "nbody.report.json"):
            assert (script_dir / name).read_bytes() == \
                (cli_dir / name).read_bytes(), name

    def test_tune_nbody_refuses_a_step_it_cannot_run(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "tune_nbody.py"),
             "--dt", "0", "--out", str(tmp_path / "nbody.pop")],
            capture_output=True, text=True, env=env, timeout=20)
        assert proc.returncode == 2
        assert proc.stderr.endswith(
            "error: --dt: time step 0 is not an unsigned positive number\n")
        assert not (tmp_path / "nbody.pop").exists()

    def test_tune_nbody_refuses_a_horizon_past_the_step_cap(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "tune_nbody.py"),
             "--years", "900", "--out", str(tmp_path / "nbody.pop")],
            capture_output=True, text=True, env=env, timeout=20)
        assert proc.returncode == 2
        assert proc.stderr.endswith(
            "error: --years: horizon 900 years at dt 0.01 takes more than "
            "10000000 steps, the interpreter's cap\n")
        assert not (tmp_path / "nbody.pop").exists()


class TestExportAndRun:
    def test_export_lp_default_path(self, workdir, capsys):
        code, _, _ = run_cli(capsys, "export-lp", "small.pop")
        assert code == 0
        assert (workdir / "small.lp").exists()

    def test_export_refined_differs(self, workdir, capsys):
        run_cli(capsys, "export-lp", "small.pop", "--out", "plain.lp")
        run_cli(capsys, "export-lp", "small.pop", "--refined",
                "--out", "refined.lp")
        plain = (workdir / "plain.lp").read_text()
        refined = (workdir / "refined.lp").read_text()
        assert "nsbe_" in refined and "nsbe_" not in plain

    def test_run_prints_exact_environment(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "run", "small.pop", "--bits", "10")
        assert code == 0
        env = dict(line.split(" = ") for line in out.strip().splitlines())
        assert set(env) == {"a", "b", "c", "d"}
        assert env["b"] == "2"

    def test_run_with_samples(self, workdir, capsys):
        (workdir / "open.pop").write_text("y = x * x;\nrequire_nsb(y, 10);\n")
        (workdir / "s.json").write_text('{"x": "3.0"}')
        code, out, _ = run_cli(capsys, "run", "open.pop",
                               "--samples", "s.json")
        assert code == 0 and "y = 9" in out

    def test_run_prints_a_binding_the_program_never_reads(self, workdir,
                                                           capsys):
        (workdir / "open.pop").write_text("y = x * x;\n")
        (workdir / "s.json").write_text('{"x": "3.0", "w": "0.5"}')
        code, out, err = run_cli(capsys, "run", "open.pop",
                                 "--samples", "s.json")
        assert (code, out, err) == (0, "w = 0.5\nx = 3\ny = 9\n", "")

    def test_samples_reject_non_numbers(self, workdir, capsys):
        (workdir / "open.pop").write_text("y = x * x;\nrequire_nsb(y, 10);\n")
        (workdir / "s.json").write_text('{"x": [1]}')
        code, _, err = run_cli(capsys, "run", "open.pop",
                               "--samples", "s.json")
        assert code == 1 and "not a number" in err

    @pytest.mark.parametrize("literal", ["1e5000", "1e-2000"])
    def test_run_prints_values_of_any_length(self, workdir, capsys, literal):
        # Both print more than the 4300 digits str() converts an int to.
        (workdir / "big.pop").write_text(f"x = {literal};\n")
        code, out, err = run_cli(capsys, "run", "big.pop")
        assert code == 0, err
        name, value = out.strip().split(" = ")
        assert name == "x" and len(value) > 4300
        assert Fraction(Decimal(value)) == mpfloat.to_fraction(
            mpfloat.parse_decimal(literal, 53))


class TestSamplesBindEveryInput:
    """Every samples set binds every free input the program reads, or the
    command refuses the set by number before any pass runs."""

    SOURCE = "y = x * 2.0;\nrequire_nsb(y, 20);\n"
    # The artifacts of two well-formed sets, pinned before the check
    # below was added.  open.mp.txt was re-pinned when mpfloat, which it
    # bundles, lost the functions only tests called, again when arith
    # lost its sqrt and neg branches, and again when add_t/sub_t took
    # round_t's rounding inline; only the bundled copy changed.
    SHA256 = {
        "open.annotated.pop":
            "5f2a031990ba29799cc4af033f1749faa6fa9a2de7d514a24968fbdf825ee297",
        "open.lp":
            "c385f25efdb7c89fc32b59b55fa7f5ce7ae2a294396c06d1e79665922c9f8c4a",
        "open.mp.txt":
            "e676bbab84ad62da9f092497ce352a3548f0d750f646408f2c72a33a6d18e00a",
        "open.report.json":
            "1c21e6ab20a91caab240edb75a58c992b87af51ec7bf46dc3331686239a9e61c",
    }

    @pytest.fixture
    def tuned(self, workdir, capsys):
        (workdir / "open.pop").write_text(self.SOURCE)
        (workdir / "good.json").write_text('[{"x": 1.5}, {"x": "-0.75"}]')
        code, _, err = run_cli(capsys, "tune", "open.pop", "--samples",
                               "good.json", "--emit-lp")
        assert code == 0, err
        return workdir

    def test_well_formed_sets_keep_their_artifacts(self, tuned):
        assert {name: hashlib.sha256((tuned / name).read_bytes()).hexdigest()
                for name in self.SHA256} == self.SHA256

    @pytest.mark.parametrize("command", ["tune", "verify", "export-lp", "run"])
    @pytest.mark.parametrize("sets, message", [
        ('[{"x": 1.5}, {}]', "samples set 1 does not bind input 'x'"),
        ('[{"w": 1.5}, {"x": 1.5}]', "samples set 0 does not bind input 'x'"),
    ], ids=["empty-set", "other-name"])
    def test_set_missing_an_input_is_one_staged_line(self, tuned, capsys,
                                                     command, sets, message):
        (tuned / "s.json").write_text(sets)
        before = {f: f.read_bytes() for f in tuned.iterdir()}
        code, out, err = run_cli(capsys, command, "open.pop",
                                 "--samples", "s.json")
        assert (code, out, err) == (1, "", f"bittune: {command}: {message}\n")
        assert {f: f.read_bytes() for f in tuned.iterdir()} == before


class TestNumericLimits:
    """A literal's folded decimal exponent and its digit count are
    bounded, in the source and in string sample values alike.
    Unbounded, tune on 1e999999999 was still running after a minute."""

    def _tune(self, tmp_path, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
        return subprocess.run(
            [sys.executable, "-m", "bittune.cli", "tune", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=10)

    @pytest.mark.parametrize("literal", ["1e999999999", "1e-999999999"])
    def test_source_literal_past_the_limit(self, tmp_path, literal):
        (tmp_path / "big.pop").write_text(
            f"a = 2.0;\nx = a * {literal};\nrequire_nsb(x, 10);\n")
        proc = self._tune(tmp_path, "big.pop")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            f"bittune: tune: line 2, column 9: numeric literal '{literal}' "
            f"is out of range: its decimal exponent is past the limit of "
            f"9999 in magnitude\n")

    @pytest.mark.parametrize("literal", ["1e999999999", "-1e-999999999"])
    def test_sample_value_past_the_limit(self, tmp_path, literal):
        (tmp_path / "open.pop").write_text("y = x * x;\nrequire_nsb(y, 10);\n")
        (tmp_path / "s.json").write_text(
            f'[{{"x": "0.5"}}, {{"x": "{literal}"}}]')
        proc = self._tune(tmp_path, "open.pop", "--samples", "s.json")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            f"bittune: tune: samples set 1, variable 'x': numeric literal "
            f"'{literal}' is out of range: its decimal exponent is past the "
            f"limit of 9999 in magnitude\n")

    @pytest.mark.parametrize("literal, digits", [
        ("1" + "0" * 5000 + ".0", 5002),
        ("0." + "0" * 4100 + "1", 4102),
    ], ids=["integer", "fraction"])
    def test_literal_with_too_many_digits(self, tmp_path, literal, digits):
        # Past 4300 digits Python's int() refuses the string; the
        # message named no line and advised a setting out of reach.
        (tmp_path / "long.pop").write_text(
            f"a = 2.0;\nx = a * {literal};\nrequire_nsb(x, 10);\n")
        (tmp_path / "open.pop").write_text("y = x * x;\nrequire_nsb(y, 10);\n")
        (tmp_path / "s.json").write_text(f'[{{"x": "{literal}"}}]')
        shown = literal[:20] + "..."
        tail = (f"numeric literal '{shown}' is too long: it has {digits} "
                f"digits, past the limit of 4000\n")
        proc = self._tune(tmp_path, "long.pop")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"bittune: tune: line 2, column 9: {tail}"
        proc = self._tune(tmp_path, "open.pop", "--samples", "s.json")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"bittune: tune: samples set 0, variable 'x': {tail}"

    def test_literal_of_max_digits_passes_every_stage(self, workdir, capsys):
        (workdir / "edge.pop").write_text(
            "x = 0." + "3" * 3999 + ";\ny = x * 3.0;\nrequire_nsb(y, 10);\n")
        code, _, err = run_cli(capsys, "tune", "edge.pop")
        assert code == 0, err

    def test_long_literal_is_shortened(self, workdir, capsys):
        (workdir / "long.pop").write_text("x = 1e" + "9" * 100_000 + ";\n")
        code, out, err = run_cli(capsys, "tune", "long.pop")
        assert (code, out) == (1, "")
        assert err.startswith("bittune: tune: line 1, column 5: numeric "
                              "literal '1e999999999999999999...' is out of")
        assert len(err.splitlines()) == 1 and len(err) < 200

    def test_literals_at_the_limit_pass_every_stage(self, workdir, capsys):
        # 10^9999 squared is past float range, so the report gives its
        # error as a power of two.
        (workdir / "edge.pop").write_text(
            "x = 1e9999;\ny = x * x;\nz = 0.1e-9998 * 3.0;\n"
            "require_nsb(y, 10);\nrequire_nsb(z, 10);\n")
        code, _, err = run_cli(capsys, "tune", "edge.pop")
        assert code == 0, err
        report = json.loads((workdir / "edge.report.json").read_text())
        assert report["verification"][0]["error"].startswith("2^")

    @pytest.mark.parametrize("value, message", [
        ('"abc"', "malformed numeric literal 'abc'"),
        ('"1.5.2"', "malformed numeric literal '1.5.2'"),
        ("1e999", "inf is not a finite number"),
        ("NaN", "nan is not a finite number"),
    ])
    def test_malformed_sample_refused_at_load(self, workdir, capsys, value,
                                              message):
        (workdir / "open.pop").write_text("y = x * x;\nrequire_nsb(y, 10);\n")
        (workdir / "s.json").write_text(f'{{"x": {value}}}')
        code, out, err = run_cli(capsys, "tune", "open.pop",
                                 "--samples", "s.json")
        assert (code, out) == (1, "")
        assert err == f"bittune: tune: samples set 0, variable 'x': {message}\n"
        assert not list(workdir.glob("open.*.*"))


    @pytest.mark.parametrize("count, shown", [
        ("9" * 5000, "'99999999999999999999...' is too long: it has 5000"),
        ("0" * 4000 + "7", "'00000000000000000000...' is too long: it has 4001"),
    ], ids=["past-int-limit", "leading-zeros"])
    def test_bit_count_with_too_many_digits(self, tmp_path, count, shown):
        # Past 4300 digits Python's int() refused the count with a message
        # that named no line; the parser refuses any count past the
        # literal digit limit, where it stands.
        (tmp_path / "req.pop").write_text(
            f"a = 2.0;\nrequire_nsb(a, {count});\n")
        proc = self._tune(tmp_path, "req.pop")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (f"bittune: tune: line 2, column 16: bit count "
                               f"{shown} digits, past the limit of 4000\n")

    # Within the digit limit, a count past pref was found only by the
    # solver, as an infeasible system whose message printed the row with
    # every digit: 3,101 bytes for 3,000 nines.
    @pytest.mark.parametrize("count, shown", [
        ("9" * 3000, "'99999999999999999999...'"), ("501", "'501'"),
    ], ids=["long", "just-past"])
    def test_bit_count_past_pref_is_refused_before_any_run(
            self, workdir, capsys, monkeypatch, count, shown):
        (workdir / "req.pop").write_text(
            f"a = 1.0;\nrequire_nsb(a, {count});\n")
        monkeypatch.setattr(tuner, "run_reference",
                            lambda *args: pytest.fail("a pass ran"))
        assert run_cli(capsys, "tune", "req.pop") == (
            1, "", f"bittune: tune: control point 2: require_nsb bit count "
                   f"{shown} exceeds pref 500\n")
        assert not list(workdir.glob("req.*.*"))

    def test_bit_count_at_pref_tunes(self, workdir, capsys):
        (workdir / "req.pop").write_text("a = 1.0;\nrequire_nsb(a, 64);\n")
        code, _, err = run_cli(capsys, "tune", "req.pop", "--pref", "64")
        assert (code, err) == (0, "")

    def test_bit_count_of_max_digits_parses(self):
        prog = parse_program("a = 2.0;\nrequire_nsb(a, 1" + "0" * 3999 + ");\n")
        assert prog.stmts[-1].bits == 10 ** 3999


class TestLongNamesAreShortened:
    """Every front-end message that quotes a name or a token shows at most
    its first 20 characters and '...', so a 20,000-character name makes
    one short line, not a 20 KB one.  Names of 24 characters or fewer
    show in full."""

    LONG = "n" * 20_000
    SHOWN = "'nnnnnnnnnnnnnnnnnnnn...'"

    def _err(self, capsys, workdir, source, samples=None):
        (workdir / "p.pop").write_text(source)
        argv = ["tune", "p.pop"]
        if samples is not None:
            (workdir / "s.json").write_text(samples)
            argv += ["--samples", "s.json"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and len(err) < 200
        return err

    def test_unexpected_token(self, workdir, capsys):
        err = self._err(capsys, workdir, f"x = 1.0 {self.LONG};\n")
        assert err == ("bittune: tune: line 1, column 9: expected ';', got "
                       f"{self.SHOWN}\n")

    def test_read_before_any_definition(self, workdir, capsys):
        err = self._err(capsys, workdir, f"x = {self.LONG} + 1.0;\n")
        assert err == (f"bittune: tune: variable {self.SHOWN} is read "
                       f"(control point 0) before any definition\n")

    def test_set_missing_an_input(self, workdir, capsys):
        err = self._err(capsys, workdir,
                        f"y = {self.LONG} * 2.0;\nrequire_nsb(y, 20);\n",
                        f'[{{"{self.LONG}": 1.5}}, {{"x": 1.5}}]')
        assert err == (f"bittune: tune: samples set 1 does not bind input "
                       f"{self.SHOWN}\n")

    @pytest.mark.parametrize("value, message", [
        ('"abc"', "samples set 0, variable {}: malformed numeric literal "
                  "'abc'"),
        ("NaN", "samples set 0, variable {}: nan is not a finite number"),
        ("true", "samples value for {} is a boolean"),
        ("[1]", "samples value for {} is not a number"),
    ])
    def test_bad_sample_value(self, workdir, capsys, value, message):
        err = self._err(capsys, workdir, "y = 2.0;\nrequire_nsb(y, 20);\n",
                        f'{{"{self.LONG}": {value}}}')
        assert err == f"bittune: tune: {message.format(self.SHOWN)}\n"

    @pytest.mark.parametrize("length, shown", [
        (24, "'" + "n" * 24 + "'"),
        (25, "'" + "n" * 20 + "...'"),
    ])
    def test_names_up_to_24_characters_show_in_full(self, workdir, capsys,
                                                    length, shown):
        err = self._err(capsys, workdir, f"x = {'n' * length};\n")
        assert err == (f"bittune: tune: variable {shown} is read (control "
                       f"point 0) before any definition\n")


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli(capsys, )[0] == 2

    def test_reused_parser_carries_no_option_over(self, workdir, capsys):
        code, _, err = run_cli(capsys, "tune", "small.pop", "--method", "pi",
                               "--emit-lp", "--timings", "--report", "r.json")
        assert code == 0, err
        assert json.loads((workdir / "r.json").read_text())["method"] == "pi"
        (workdir / "small.lp").unlink()
        code, _, err = run_cli(capsys, "tune", "small.pop")
        assert code == 0, err
        report = json.loads((workdir / "small.report.json").read_text())
        assert report["method"] == "ilp" and "stages" not in report
        assert not (workdir / "small.lp").exists()
        assert cli._parser() is cli._parser()
        assert cli.build_parser().parse_args(["tune", "x.pop"]).method == "ilp"

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "optimize")[0] == 2

    def test_unknown_flag(self, workdir, capsys):
        assert run_cli(capsys, "tune", "small.pop", "--fast")[0] == 2

    def test_help_documents_schemas(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "file formats" in out and "summary CSV" in out

    def test_readme_names_only_real_flags(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a.choices, dict))
        flags = {f for p in sub.choices.values()
                 for f in p._option_string_actions}
        script = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "tune_nbody.py"),
             "--help"], capture_output=True, text=True, timeout=20,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        flags |= set(re.findall(r"--[a-z][a-z-]*", script.stdout))
        flags |= {"--help", "--no-build-isolation"}
        named = re.findall(r"(?<![\w-])--[a-z][a-z-]*",
                           (ROOT / "README.md").read_text())
        assert named and set(named) - flags == set()


class TestOneWidthCap:
    """--pref is the one precision setting of every command: the
    reference runs at --pref bits, and --pref caps every solved width."""

    SOURCE = "a = 1.3; b = a * 3.7 + 0.1; c = b * b - a; require_nsb(c, 62);\n"

    def test_a_width_past_pref_is_infeasible(self, workdir, capsys):
        (workdir / "cap.pop").write_text(self.SOURCE)
        code, out, err = run_cli(capsys, "tune", "cap.pop", "--pref", "64")
        assert (code, out) == (1, "")
        assert err.startswith(
            "bittune: tune: infeasible: nsb_4 is driven past the cap 64\n")

    def test_widths_are_checked_against_the_run_that_caps_them(
            self, workdir, capsys):
        # With a width cap above the reference precision, the 65-bit
        # width was checked against a 64-bit reference: error 0.
        (workdir / "cap.pop").write_text(self.SOURCE)
        code, _, err = run_cli(capsys, "tune", "cap.pop", "--pref", "128")
        assert (code, err) == (0, "")
        report = json.loads((workdir / "cap.report.json").read_text())
        assert max(report["nsb"].values()) == 65
        assert [(r["error"], r["passed"]) for r in report["verification"]] \
            == [("1.1324274851176598e-18", True)]

    @pytest.mark.parametrize("command", ["tune", "verify", "export-lp", "run"])
    def test_pmax_is_no_option(self, workdir, capsys, command):
        code, _, err = run_cli(capsys, command, "small.pop", "--pmax", "128")
        assert code == 2
        assert err.endswith("unrecognized arguments: --pmax 128\n")
        _, out, _ = run_cli(capsys, command, "--help")
        assert "--pref" in out and "--pmax" not in out

    def test_a_comparison_width_past_pref_is_capped(self, workdir, capsys):
        # A comparison operand was demanded 53 bits whatever --pref said,
        # so tune refused this program, which has no comparison, with
        # "cond_nsb 53 outside [1, pref=30]", and bench refused the same.
        (workdir / "p.pop").write_text(
            "x = 1.3; y = x * 3.7; require_nsb(y, 20);\n")
        code, _, err = run_cli(capsys, "tune", "p.pop", "--pref", "30")
        assert (code, err) == (0, "")
        report = json.loads((workdir / "p.report.json").read_text())
        assert max(report["nsb"].values()) <= 30
        assert all(r["passed"] for r in report["verification"])
        # bench gets as far as the solver, below its own placeholder
        # requirement of 24, and fails on what drives it past the cap:
        # the loop test t < t_max at 20 bits, and t = t + dt above it.
        code, out, err = run_cli(capsys, "bench", "--years", "0.01",
                                 "--nsb", "11", "--pref", "20", "--out",
                                 "out")
        assert (code, out) == (1, "")
        assert err.startswith("bittune: bench: infeasible: nsb_895 is "
                              "driven past the cap 20\n")
        assert err.endswith("    nsb_106 >= 20  (cond, point 106)\n")


class TestEachCommandTakesWhatItReads:
    """A command takes, keeps and checks only the settings it reads:
    --samples only where a source is read.  The width of comparison
    operands is no setting (constraints.COND_NSB, capped at --pref)."""

    OPTIONS = {
        "tune": {"--method", "--pref", "--samples", "--report",
                 "--emit-lp", "--timings"},
        "verify": {"--report", "--pref", "--samples"},
        "bench": {"--nsb", "--years", "--dt", "--method", "--pref",
                  "--out", "--jobs", "--no-series"},
        "export-lp": {"--refined", "--out", "--pref", "--samples"},
        "run": {"--bits", "--pref", "--samples"},
    }

    def test_each_command_takes_its_own_options(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a.choices, dict))
        taken = {name: {a.option_strings[-1] for a in p._actions
                        if a.option_strings and a.dest != "help"}
                 for name, p in sub.choices.items()}
        assert taken == self.OPTIONS
        assert sum(map(len, taken.values())) == 24

    @pytest.mark.parametrize("command", ["tune", "verify", "bench",
                                         "export-lp", "run"])
    def test_cond_nsb_is_no_option(self, workdir, capsys, command):
        source = () if command == "bench" else ("small.pop",)
        code, _, err = run_cli(capsys, command, *source, "--cond-nsb", "1")
        assert code == 2
        assert err.endswith("unrecognized arguments: --cond-nsb 1\n")
        _, out, _ = run_cli(capsys, command, "--help")
        assert "--pref" in out and "--cond-nsb" not in out

    def test_run_below_the_default_cond_nsb(self, workdir, capsys):
        # run refused this on the default --cond-nsb it never read:
        # "cond_nsb 53 outside [1, pref=30]".
        (workdir / "cap.pop").write_text(TestOneWidthCap.SOURCE)
        code, out, err = run_cli(capsys, "run", "cap.pop", "--pref", "30",
                                 "--bits", "24")
        assert (code, err) == (0, "")
        assert [line.split(" = ")[0] for line in out.splitlines()] == \
            ["a", "b", "c"]

    @pytest.mark.parametrize("command", ["tune", "verify", "export-lp",
                                         "run"])
    def test_pref_below_one_is_refused(self, workdir, capsys, command):
        # Unchecked, verify and run would have made a 0-bit reference.
        assert run_cli(capsys, command, "small.pop", "--pref", "0") == (
            1, "", f"bittune: {command}: pref must be at least 1, got 0\n")
        assert [f.name for f in workdir.iterdir()] == ["small.pop"]

    def test_bench_refuses_a_pref_below_one(self, workdir, capsys):
        assert run_cli(capsys, "bench", "--years", "0.01", "--nsb", "11",
                       "--pref", "0", "--out", "out") == (
            2, "", "bittune: bench: --pref: pref must be at least 1, "
                   "got 0\n")
        assert not (workdir / "out").exists()

    def test_samples_enter_at_pref(self, workdir, capsys):
        # A bound input and the same literal assigned in the source give
        # one reference.  The samples string was read at 500 bits, so at
        # --pref 1000 the bound program reported error 0 and ran with
        # another x.
        (workdir / "p.pop").write_text(
            "y = x * 3.0; require_nsb(y, 900);\n")
        (workdir / "q.pop").write_text(
            "x = 0.1; y = x * 3.0; require_nsb(y, 900);\n")
        (workdir / "p.json").write_text('{"x": "0.1"}')
        bound = ("--samples", "p.json")
        for name, samples in (("p", bound), ("q", ())):
            code, _, err = run_cli(capsys, "tune", f"{name}.pop", *samples,
                                   "--pref", "1000")
            assert (code, err) == (0, "")
            report = json.loads(
                (workdir / f"{name}.report.json").read_text())
            assert [r["error"] for r in report["verification"]] == \
                ["2.3661043723335496e-272"]
        runs = [run_cli(capsys, "run", f"{name}.pop", *samples, "--pref",
                        "1000", "--bits", "1000")
                for name, samples in (("p", bound), ("q", ()))]
        assert runs[0] == runs[1] and runs[0][0] == 0

    # 5 is 101 in binary: at 2 bits it ties between 4 and 6, and rounds
    # to even, 4.  A float is taken exactly.
    @pytest.mark.parametrize("value, x", [
        ('"5"', "4"), ("5", "4"), ("5.0", "5"),
    ], ids=["string", "integer", "float"])
    def test_samples_values_by_type(self, workdir, capsys, value, x):
        (workdir / "p.pop").write_text("y = x * 3.0;\n")
        (workdir / "p.json").write_text(f'{{"x": {value}}}')
        code, out, err = run_cli(capsys, "run", "p.pop", "--samples",
                                 "p.json", "--pref", "2", "--bits", "2")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == f"x = {x}"


class TestNoReferenceCycles:
    """Everything a command builds is freed by reference counting: run
    with the cyclic collector off, a command leaves nothing of bittune's
    for the collector to find."""

    # A loop, a branch, division and a square root, so that every kind
    # of lowered closure and every branch of the def-use walk is built.
    SOURCE = """\
t = 0.0;
x = 2.0;
while (t < 3.0) {
    if (x > 1.0) {
        x = sqrt(x) / 1.5;
    } else {
        x = x * 1.25 + 0.5;
    }
    t = t + 1.0;
}
require_nsb(x, 20);
"""
    # With the collector paused while a command runs, a cycle on a
    # failing exit would live as long as the caller's collector stays
    # off, so the failing exits are covered too: exit status, argv.
    COMMANDS = (
        (0, ("tune", "loop.pop", "--method", "pi", "--emit-lp")),
        (0, ("bench", "--years", "0.05", "--jobs", "1", "--out", "bench")),
        (0, ("verify", "loop.pop")),
        (0, ("export-lp", "loop.pop", "--refined", "--out", "refined.lp")),
        (0, ("run", "loop.pop", "--bits", "24")),
        (1, ("tune", "cancel.pop")),
        (1, ("tune", "divisor.pop", "--samples", "divisor.json")),
        (1, ("tune", "bad.pop")),
    )
    FILES = {
        "loop.pop": SOURCE,
        # Exact cancellation: the zero difference's operand rows carry
        # +pref, so the system is infeasible.
        "cancel.pop": "a = 1.5;\nb = 1.5;\nd = a - b;\ne = d + 1.0;\n"
                      "require_nsb(e, 10);\n",
        # Ranges over both sets leave the divisor too few bits for the
        # first, where it rounds to zero in the tuned run.
        "divisor.pop": "d = x - 1.0;\ny = 1.0 / d;\nz = x * 2.0;\n"
                       "require_nsb(z, 10);\n",
        "divisor.json": '[{"x": "1.25"}, {"x": "8"}]',
        "bad.pop": "a = (1.0;\n",
    }

    @staticmethod
    def _in_bittune(obj) -> bool:
        if isinstance(obj, (types.FunctionType, types.MethodType)):
            module = obj.__module__
        else:
            module = type(obj).__module__
        return (module or "").startswith("bittune")

    def test_failing_exits_fail_where_expected(self, workdir, capsys):
        for name, text in self.FILES.items():
            (workdir / name).write_text(text)
        errors = [run_cli(capsys, *argv)[2] for code, argv in self.COMMANDS
                  if code]
        assert errors == [
            "bittune: tune: infeasible: nsb_5 is driven past the cap 500\n"
            "  raising chain of 2 rows:\n"
            "    nsb_5 >= nsb_6 + xi_6(4,5) + 500  (operand, point 6)\n"
            "    xi_6(4,5) >= 1  (carry, point 6)\n",
            "bittune: tune: tuned run: division by zero (control point 6)\n",
            "bittune: tune: line 1, column 9: expected ')', got ';'\n",
        ]

    def test_commands_leave_no_cycles(self, workdir, capsys):
        for name, text in self.FILES.items():
            (workdir / name).write_text(text)
        for code, argv in self.COMMANDS:        # warm every cache first
            assert run_cli(capsys, *argv)[0] == code, argv
        leftover = {}
        gc.collect()
        gc.disable()
        try:
            for code, argv in self.COMMANDS:
                assert run_cli(capsys, *argv)[0] == code, argv
                gc.set_debug(gc.DEBUG_SAVEALL)
                gc.collect()
                found = [o for o in gc.garbage if self._in_bittune(o)]
                if found:
                    leftover[" ".join(argv)] = collections.Counter(
                        type(o).__qualname__ for o in found)
                gc.set_debug(0)
                gc.garbage.clear()
                gc.collect()                # free them for the next count
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leftover == {}


class TestCollectorPaused:
    """cli.main pauses the cyclic collector while a command runs, since
    nothing is left for it to find, and leaves it as the caller had it."""

    # 1,100 straight-line statements.  Each reads v{i // 2}, so no chain
    # of reads is over ten long and the widths stay small.
    WIDE = "v0 = 1.5;\n" + "".join(
        f"v{i} = v{i // 2} * 0.5 + 1.0;\n" for i in range(1, 1100)) + \
        "require_nsb(v1099, 20);\n"

    @staticmethod
    def _collections_in(argv) -> tuple[int, list]:
        """main(argv)'s exit status and the generation of each collection
        started while it ran."""
        started = []

        def count(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.callbacks.append(count)
        try:
            code = main(list(argv))
        finally:
            gc.callbacks.remove(count)
        return code, started

    @pytest.mark.parametrize("argv", [
        ("tune", "wide.pop"),
        ("bench", "--years", "0.05", "--jobs", "1", "--out", "bench"),
    ], ids=["tune-wide", "bench"])
    def test_no_collection_while_a_command_runs(self, workdir, capsys, argv):
        (workdir / "wide.pop").write_text(self.WIDE)
        assert gc.isenabled()
        assert self._collections_in(argv) == (0, [])
        assert gc.isenabled()

    @pytest.mark.parametrize("argv, code", [
        (("tune", "small.pop"), 0),
        (("tune", "unchecked.pop"), 1),
        (("run", "small.pop", "--bits", "501"), 2),
        (("tune", "small.pop", "--fast"), 2),
    ], ids=["exit-0", "exit-1", "exit-2", "usage"])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, workdir, capsys, argv, code,
                                         enabled):
        # No require_nsb, so there is nothing to tune.
        (workdir / "unchecked.pop").write_text("y = 0.5 * 3.0;\n")
        if not enabled:
            gc.disable()
        try:
            assert run_cli(capsys, *argv)[0] == code
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored_on_an_escaping_exception(
            self, workdir, capsys, monkeypatch, enabled):
        # As the benchmark's time limit does, with SIGALRM.
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_tuned", interrupted)
        if not enabled:
            gc.disable()
        try:
            with pytest.raises(KeyboardInterrupt):
                main(["run", "small.pop"])
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
