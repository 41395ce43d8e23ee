"""Command-line front end.

One command per invocation:

  tune SOURCE     solve per-point widths and write the annotated source,
                  the reduced-precision Python script, and a JSON report
  verify SOURCE   re-run reference vs tuned under a solved width map and
                  print the verification table
  bench           orbit benchmark sweep; prints the drift table and
                  writes summary and series CSVs
  export-lp SOURCE
                  write the constraint system in LP format
  run SOURCE      execute at one uniform precision and print the final
                  environment

Exit status is 0 on success, 1 when analysis or verification fails,
2 on usage errors.  Error messages go to standard error prefixed with
the command that raised them.

Each command that reads a source parses it, refuses a samples set that
leaves one of its free inputs unbound, and hands the tuner the parsed
program.  tune runs tuner.tune; verify and export-lp run the reference
(interp.run_reference) themselves, export-lp after tuner.requirements
has refused a requirement past --pref, to write the system
constraints.gen_ilp or gen_refined builds.  verify checks the tuned run
with tuner.check_tuned, and verify and tune judge it by tuner.passed.
tune and export-lp refuse an output that lands on an input or another
output before they read anything, and tune writes all of its artifacts
or none.

Artifacts are deterministic: the same invocation writes byte-identical
files.  The timing field (stages, the seconds of each stage) is
therefore left out of tune's report unless --timings is given; the
bench summary keeps its timing columns because its schema requires
them.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import sys
from pathlib import Path

from . import mpfloat
from .constraints import gen_ilp, gen_refined
from .interp import run_reference, run_tuned
from .lpfile import export_lp
from .mpfloat import MPDomainError
from .nbody import ExperimentPlan, run_experiment
from .parse import check_literal, parse_program
from .program import Program, shown
from .render import emit_annotated
from .codegen import emit_mp_code
from .tuner import (
    TuneError, TuningConfig, check_tuned, divergence, passed, requirements,
    stage, tune, write_all,
)

# The package's own errors derive from ValueError or RuntimeError, but
# for the one named here; OSError covers the files.
_ERRORS = (MPDomainError, OSError, ValueError, RuntimeError)

_SCHEMAS = """\
file formats:
  annotated source   input program with |n| width tags after every literal,
                     variable, operator, and assignment target
  mp script          plain Python over mp(x, n)/mp_sqrt(x, n); running it
                     reproduces the tuned execution bit for bit.  Needs
                     only the standard library: it uses an importable
                     bittune, else a bundled copy of bittune.mpfloat.
                     Free inputs are left unbound; run on its own, the
                     script exits naming them.  Variables named after Python
                     keywords, __debug__, mp or mp_sqrt are refused, and so
                     are free inputs named any, compile, exec, globals,
                     ImportError, SystemExit, _runtime or __builtins__, an
                     expression nested over 200 brackets deep, a loop
                     inside 20 others and a body indented 100 levels.
  report JSON        method, per-point widths, system sizes, totals, and
                     the verification table
  bench summary CSV  nsb, horizon_years, body, distance_au, tune_seconds,
                     run_seconds
  bench series CSV   step, body, distance_au (step 0 = initial state)
  samples JSON       object {name: value} or list of such objects, each
                     binding every free input of the program; strings and
                     integers are rounded to --pref bits, floats are exact
"""


class _UsageError(Exception):
    pass


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}")


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return n


def _load_bindings(path: str, pref: int) -> tuple[dict, ...]:
    data = json.loads(Path(path).read_text())
    sets = data if isinstance(data, list) else [data]
    out = []
    for i, entry in enumerate(sets):
        if not isinstance(entry, dict):
            raise ValueError(f"samples entry {i} is not an object")
        conv = {}
        for name, v in entry.items():
            if isinstance(v, bool):
                raise ValueError(f"samples value for {shown(name)} is a "
                                 f"boolean")
            elif isinstance(v, (str, int)):
                try:
                    check_literal(str(v))
                except ValueError as e:
                    raise ValueError(f"samples set {i}, variable "
                                     f"{shown(name)}: {e}") from None
                conv[name] = mpfloat.parse_decimal(str(v), pref)
            elif isinstance(v, float):
                if not math.isfinite(v):
                    raise ValueError(f"samples set {i}, variable "
                                     f"{shown(name)}: {v} is not a finite "
                                     f"number")
                conv[name] = mpfloat.from_float(v)
            else:
                raise ValueError(f"samples value for {shown(name)} is not "
                                 f"a number")
        out.append(conv)
    return tuple(out)


def _config(args) -> TuningConfig:
    """The command's TuningConfig, checked before the samples are read at
    its pref."""
    cfg = TuningConfig(method=getattr(args, "method", "ilp"), pref=args.pref)
    if args.samples:
        cfg.bindings = _load_bindings(args.samples, cfg.pref)
    return cfg


def _parse(source: str, cfg: TuningConfig) -> Program:
    """The program, with the names cfg's samples bind as its inputs.
    Every samples set must bind every free input the program reads."""
    prog = parse_program(source, cfg.input_names())
    for i, binding in enumerate(cfg.bindings):
        for name in prog.inputs:
            if name not in binding:
                raise ValueError(f"samples set {i} does not bind input "
                                 f"{shown(name)}")
    return prog


def _refuse_overwrites(args, outputs) -> None:
    """Refuse, as a usage error, an output that lands on the source, on
    the --samples file or on an earlier output.  outputs lists (flag,
    kind, path) in writing order, flag None for a path derived from the
    source; the message names the output's flag, else the other file's."""
    inputs = [("source", "the source", Path(args.source))]
    if args.samples:
        inputs.append(("--samples", "the samples file", Path(args.samples)))
    seen = {}                     # resolved path -> (flag, kind, path)
    for i, (flag, kind, path) in enumerate(inputs + outputs):
        at = path.resolve()
        if at in seen and i >= len(inputs):
            flag0, kind0, path0 = seen[at]
            raise _UsageError(f"{flag}: {path} is {kind0}" if flag else
                              f"{flag0}: {path0} is {kind}")
        seen.setdefault(at, (flag, kind, path))


def cmd_tune(args) -> int:
    base = Path(args.source)
    annotated_path = base.with_suffix(".annotated.pop")
    script_path = base.with_suffix(".mp.txt")
    lp_path = base.with_suffix(".lp") if args.emit_lp else None
    report_path = Path(args.report) if args.report else base.with_suffix(".report.json")
    outputs = [(None, "the annotated source", annotated_path),
               (None, "the mp script", script_path),
               ("--emit-lp", "the LP file", lp_path),
               ("--report", "the report", report_path)]
    _refuse_overwrites(args, [o for o in outputs if o[2] is not None])

    cfg = _config(args)
    source = base.read_text()
    stages: dict[str, float] = {}
    with stage(stages, "parse"):
        prog = _parse(source, cfg)
    assignment, report, c1 = tune(prog, cfg, stages)
    widths = assignment.widths()

    # Render every artifact before writing any, so a refusal (a variable
    # name the mp script cannot use, say) writes nothing.
    with stage(stages, "emit"):
        annotated = emit_annotated(prog, widths)
        script = emit_mp_code(prog, widths)
        lp = export_lp(c1) if args.emit_lp else None
    artifacts = {annotated_path: annotated, script_path: script,
                 report_path: report.to_json(timings=args.timings)}
    if lp is not None:
        artifacts[lp_path] = lp
    write_all(artifacts)

    for name in sorted(report.total_bits):
        print(f"total bits ({name}): {report.total_bits[name]}")
    for path in artifacts:
        print(f"wrote {path}")
    if not passed(report.verification, report.steps_reference,
                  report.steps_tuned):
        print("bittune: tune: verification table contains failures; "
              "see the report", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    cfg = _config(args)
    source = Path(args.source).read_text()
    report_path = Path(args.report) if args.report else \
        Path(args.source).with_suffix(".report.json")
    text = report_path.read_text()
    try:
        nsb = json.loads(text)["nsb"]
        widths = {p: int(n) for p, n in nsb.items()}
    except (KeyError, AttributeError, TypeError, ValueError, OverflowError):
        raise ValueError(f"{report_path} has no nsb width map") from None
    for p, n in nsb.items():
        # tune writes an integer in [0, pref], 0 where nothing is demanded.
        if type(n) is not int or not 0 <= n <= cfg.pref:
            raise ValueError(f"{report_path}: width {shown(json.dumps(n))} "
                             f"at point {shown(p)} is not an integer in "
                             f"[0, {cfg.pref}]")

    prog = _parse(source, cfg)
    # A key must name a point of the program, in the decimal form tune
    # writes.
    points = {str(p): p for p in range(prog.n_points)}
    for p in nsb:
        if p not in points:
            raise ValueError(f"{report_path}: width key {shown(p)} is not "
                             f"one of the program's {prog.n_points} control "
                             f"points")
    widths = {points[p]: n for p, n in widths.items()}
    missing = next((p for p in range(prog.n_points) if p not in widths), None)
    if missing is not None:
        raise ValueError(f"{report_path}: no width for control point "
                         f"{missing}")
    ref = run_reference(prog, cfg.pref, cfg.bindings)
    rows, tuned = check_tuned(prog, widths, ref, cfg)
    print(f"{'variable':<16} {'bits':>4} {'error':>13} {'bound':>13}  result")
    for r in rows:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.var:<16} {r.bits:>4} {r.error:>13} {r.bound:>13}  {status}")
    if note := divergence(ref.steps, tuned.steps):
        print(note)
    print(f"{sum(r.passed for r in rows)}/{len(rows)} within tolerance")
    return 0 if passed(rows, ref.steps, tuned.steps) else 1


def cmd_bench(args) -> int:
    try:
        plan = ExperimentPlan(
            nsb_values=args.nsb,
            horizons_years=args.years,
            dt=args.dt,
            method=args.method,
            pref=args.pref,
            write_series=not args.no_series,
        )
    except TuneError as e:
        flag = {"nsb_values": "nsb", "horizons_years": "years"}.get(
            e.field, e.field)
        raise _UsageError(f"--{flag}: {e}") from None
    rows = run_experiment(plan, args.out, jobs=args.jobs)
    bodies = list(dict.fromkeys(r.body for r in rows))
    cells: dict[float, dict[int, dict]] = {}
    for r in rows:
        cells.setdefault(r.horizon_years, {}).setdefault(r.nsb, {})[r.body] = r
    for years, by_nsb in cells.items():
        print(f"horizon {years:g} years")
        print(f"{'nsb':>4}" + "".join(f"{b:>12}" for b in bodies)
              + f"{'tune s':>9}{'run s':>9}")
        for nsb, cell in by_nsb.items():
            dists = "".join(f"{cell[b].distance_au:>12.3e}" for b in bodies)
            first = cell[bodies[0]]
            print(f"{nsb:>4}{dists}{first.tune_seconds:>9.2f}"
                  f"{first.run_seconds:>9.2f}")
    print(f"wrote {Path(args.out) / 'summary.csv'} ({len(rows)} rows)")
    return 0


def cmd_export_lp(args) -> int:
    out_path = Path(args.out) if args.out else Path(args.source).with_suffix(".lp")
    _refuse_overwrites(args, [("--out", "the LP file", out_path)])
    cfg = _config(args)
    prog = _parse(Path(args.source).read_text(), cfg)
    requirements(prog, cfg)
    gen = gen_refined if args.refined else gen_ilp
    ranges = run_reference(prog, cfg.pref, cfg.bindings).ranges
    write_all({out_path: export_lp(gen(prog, ranges, cfg.pref))})
    print(f"wrote {out_path}")
    return 0


def cmd_run(args) -> int:
    cfg = _config(args)
    if not 1 <= args.bits <= cfg.pref:
        raise _UsageError(f"--bits {args.bits} outside [1, {cfg.pref}]")
    prog = _parse(Path(args.source).read_text(), cfg)
    widths = dict.fromkeys(range(len(prog.points)), args.bits)
    trace = run_tuned(prog, widths, cfg.bindings[0] if cfg.bindings else None)
    for name in sorted(trace.env):
        print(f"{name} = {mpfloat.format_decimal_exact(trace.env[name])}")
    return 0


def _add_precision_flags(p: argparse.ArgumentParser,
                         samples: bool = True) -> None:
    p.add_argument("--pref", type=int, default=mpfloat.DEFAULT_PRECISION,
                   help="reference precision in bits, and the cap of every "
                        "solved width (default %(default)s)")
    if samples:
        p.add_argument("--samples", metavar="PATH",
                       help="JSON input bindings for programs with free "
                            "variables")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bittune",
        description="Bit-level precision tuning for straight-line and "
                    "loop programs over real arithmetic.",
        epilog=_SCHEMAS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("tune", help="solve widths and write artifacts")
    p.add_argument("source", help="program file")
    p.add_argument("--method", choices=("ilp", "pi"), default="ilp",
                   help="plain integer solve or policy-iteration refinement")
    _add_precision_flags(p)
    p.add_argument("--report", metavar="PATH",
                   help="report destination (default SOURCE.report.json)")
    p.add_argument("--emit-lp", action="store_true",
                   help="also write the plain system C1 as SOURCE.lp: "
                        "the system --method ilp solves and policy "
                        "iteration starts from")
    p.add_argument("--timings", action="store_true",
                   help="keep the per-stage seconds (stages) in the "
                        "report (breaks byte-identical reruns)")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("verify", help="check a solved width map")
    p.add_argument("source", help="program file")
    p.add_argument("--report", metavar="PATH",
                   help="report holding the width map (default "
                        "SOURCE.report.json)")
    _add_precision_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run the orbit benchmark sweep")
    p.add_argument("--nsb", type=_int_list, default=(11, 18, 24, 34, 43, 53),
                   metavar="LIST", help="requirement widths, comma separated "
                   "(default 11,18,24,34,43,53)")
    p.add_argument("--years", type=_float_list, default=(10.0,), metavar="LIST",
                   help="horizons in years, comma separated (default 10)")
    p.add_argument("--dt", default="0.01", help="time step (default %(default)s)")
    p.add_argument("--method", choices=("ilp", "pi"), default="ilp")
    _add_precision_flags(p, samples=False)
    p.add_argument("--out", default="bench-results", metavar="DIR",
                   help="output directory (default %(default)s)")
    p.add_argument("--jobs", type=_positive, default=1,
                   help="worker processes for independent cells (default 1)")
    p.add_argument("--no-series", action="store_true",
                   help="skip the per-step series files")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-lp", help="write the constraint system as LP")
    p.add_argument("source", help="program file")
    p.add_argument("--refined", action="store_true",
                   help="export the carry-refined system under the "
                        "constant-one policy instead of the plain one")
    p.add_argument("--out", metavar="PATH",
                   help="destination (default SOURCE.lp)")
    _add_precision_flags(p)
    p.set_defaults(func=cmd_export_lp)

    p = sub.add_parser("run", help="execute at one uniform precision")
    p.add_argument("source", help="program file")
    p.add_argument("--bits", type=int, default=53,
                   help="significand width for every operation (default %(default)s)")
    _add_precision_flags(p)
    p.set_defaults(func=cmd_run)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process, as building it costs a sizeable
    share of a small tune.  parse_args returns a fresh namespace each
    call, so no option carries over between calls.  The command
    functions are bound when the first main() call builds it."""
    return build_parser()


def _run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except _UsageError as e:
        print(f"bittune: {args.command}: {e}", file=sys.stderr)
        return 2
    except _ERRORS as e:
        print(f"bittune: {args.command}: {e}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    """Run one command; returns its exit status.

    A command leaves no reference cycle behind (test_cli.py's
    TestNoReferenceCycles), so reference counting frees everything it
    builds.  The cyclic collector would still start a collection every
    few hundred allocations and find nothing, so it is paused for the
    whole call, the first call's parser build included, and left as the
    caller had it on every exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
