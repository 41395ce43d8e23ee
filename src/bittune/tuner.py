"""The one tuning pipeline: reference run, solve, check, report.

Every stage has one entry point over a parsed Program; the caller
parses (and times the parse).  requirements() refuses a require_nsb
past cfg.pref before anything runs.  The reference run is
interp.run_reference at cfg.pref bits over all binding sets, which
every later stage reads: env, samples, requirements and steps from the
first set, ranges over all of them.  systems() builds from its ranges
the pair solve() takes, (C1, C2) for pi and (C1, None) for ilp;
solve() solves those systems (pi, by policy iteration from C1's
solution, exactly when it is given C2) and checks the assignment by
substitution.  solve() reads no program and no config, so one
generation can serve several solves: the sweep swaps each cell's
requirement into its horizon's systems (constraints.with_requirement)
and times each solve itself.  check_tuned() runs the tuned program
against a given reference trace and builds the verification table.
tune() chains them and builds the report, once, at its end: the
per-point widths, system sizes, timings and the verification table.
The timings are the stage timer's stages, seconds per stage: parse
(def-use analysis included), reference_run, generate (C1 and C2),
solve (the substitution check included), tuned_run, verify, and emit,
the first and last of which the command line adds.  Every artifact
the command line writes, the sweep's CSVs included, goes through
write_all.

Verification compares the tuned execution against the high-precision
reference: for each require_nsb(v, n), on each of its visits, the
absolute error |tuned - reference| of v's value there must stay within
TOLERANCE_FACTOR * 2^(ufp(ref) - n + 1), ufp(0) being the ranges'
ufp_zero (-pref).  Each requirement gets one row, for its worst visit.
The reference runs at cfg.pref bits, which also caps every solved
width, so no width is finer than the run it is checked against.  The
factor absorbs accumulation
over long runs; the per-operation bound itself is what the constraints
guarantee locally.  A check passes when every row does and the tuned
run took as many steps as the reference.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from . import mpfloat
from .constraints import ConstraintSystem, gen_ilp, gen_refined, system_stats
from .interp import Trace, UfpMap, run_reference, run_tuned
from .program import Program, Require, shown
from .solver import policy_iterate, solve_monotone

METHODS = ("ilp", "pi")
TOLERANCE_FACTOR = 100


class TuneError(ValueError):
    """field, when set, names the TuningConfig field that was refused."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class TuningConfig:
    """A tuning run's settings; a bad method or pref raises TuneError
    when the config is built."""

    __slots__ = ("method", "pref", "bindings")

    def __init__(self, method: str = "ilp",
                 pref: int = mpfloat.DEFAULT_PRECISION, bindings: tuple = ()):
        if method not in METHODS:
            raise TuneError(f"method must be one of {METHODS}, got "
                            f"{method!r}", "method")
        if pref < 1:
            raise TuneError(f"pref must be at least 1, got {pref}", "pref")
        self.method = method
        self.pref = pref
        self.bindings = bindings      # {input: MPValue} dicts, open programs

    def input_names(self) -> tuple[str, ...]:
        """Every name some binding set binds: the program's free inputs."""
        return tuple(sorted({name for b in self.bindings for name in b}))


class VerifyRow(NamedTuple):
    var: str
    point: int
    bits: int
    error: str                    # |tuned - reference|, decimal
    ref_ufp: int
    bound: str                    # 2^(ufp - bits + 1), decimal
    passed: bool


class TuningReport(NamedTuple):
    """What the report JSON holds, one field per key."""

    method: str
    total_bits: dict[str, int]    # by solve: ilp, and pi under pi
    nsb: dict[str, int]           # control point (as str, for JSON) -> width
    systems: dict[str, dict[str, int]]
    pi_iterations: int
    stages: dict[str, float]
    skipped_points: list[int]
    zero_ufp_points: list[int]
    steps_reference: int
    steps_tuned: int
    diverged: bool
    verification: list[VerifyRow]

    def to_json(self, timings: bool = True) -> str:
        """The report as sorted JSON; without timings, the clock field
        stages is left out, so reruns match."""
        raw = self._asdict()
        if not timings:
            del raw["stages"]
        raw["verification"] = [r._asdict() for r in self.verification]
        return json.dumps(raw, sort_keys=True, indent=2) + "\n"


@contextmanager
def stage(stages: dict[str, float], name: str):
    """Add the wall seconds the with-block takes to stages[name]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        stages[name] = round(stages.get(name, 0.0)
                             + time.perf_counter() - t0, 6)


def _fraction_str(f: Fraction) -> str:
    if f == 0:
        return "0"
    try:
        as_float = float(f)
    except OverflowError:
        as_float = 0.0
    if as_float != 0.0:
        return repr(as_float)
    # Outside float range: report the binary order of magnitude.
    return f"2^{f.numerator.bit_length() - f.denominator.bit_length()}"


def _verify_rows(prog: Program, ref: Trace, tuned: Trace) -> list[VerifyRow]:
    """One row per require_nsb the reference run reaches, for its worst
    visit: the tuned value on each visit is compared with the reference
    value on the same visit, against a bound from that reference value.
    A visit the tuned run did not make is the worst, with no error."""
    rows = []
    for st in prog.points:
        if not isinstance(st, Require):
            continue
        tuned_vs = tuned.required[st.point]
        worst = None
        for k, ref_v in enumerate(ref.required[st.point]):
            u = (mpfloat.ufp(ref_v) if not ref_v.is_zero()
                 else ref.ranges.ufp_zero)
            bound = Fraction(2) ** (u - st.bits + 1)
            err = (abs(mpfloat.to_fraction(ref_v)
                       - mpfloat.to_fraction(tuned_vs[k]))
                   if k < len(tuned_vs) else None)
            score = math.inf if err is None else err / bound
            if worst is None or score > worst[0]:
                worst = score, err, u, bound
        if worst is None:
            continue
        _, err, u, bound = worst
        rows.append(VerifyRow(
            st.name, st.point, st.bits,
            _fraction_str(err) if err is not None else "unavailable",
            u, _fraction_str(bound),
            err is not None and err <= TOLERANCE_FACTOR * bound))
    return rows


def passed(rows: list[VerifyRow], steps_reference: int,
           steps_tuned: int) -> bool:
    """The pass rule: every row within tolerance, and the tuned run took
    the reference's number of steps (its control flow did not diverge)."""
    return steps_reference == steps_tuned and all(r.passed for r in rows)


def divergence(steps_reference: int, steps_tuned: int) -> str | None:
    """The note on a tuned run that took another number of steps, or None."""
    if steps_reference != steps_tuned:
        return (f"control flow diverged: reference ran {steps_reference} "
                f"steps, tuned {steps_tuned}")


def requirements(prog: Program, cfg: TuningConfig) -> list[Require]:
    """prog's require_nsb statements, refusing a bit count above
    cfg.pref: no width is above pref, so the system could only be
    infeasible."""
    requires = [node for node in prog.points if isinstance(node, Require)]
    for node in requires:
        if node.bits > cfg.pref:
            raise TuneError(f"control point {node.point}: require_nsb bit "
                            f"count {shown(str(node.bits))} exceeds pref "
                            f"{cfg.pref}")
    return requires


def systems(prog: Program, ranges: UfpMap, cfg: TuningConfig):
    """What solve() takes for cfg.method: (C1, C2) for pi, else (C1, None)."""
    return (gen_ilp(prog, ranges, cfg.pref),
            gen_refined(prog, ranges, cfg.pref)
            if cfg.method == "pi" else None)


def solve(c1: ConstraintSystem, c2: ConstraintSystem | None = None):
    """Solve C1, then, given C2, C2 by policy iteration started from
    C1's solution, and check the assignment by substitution into the
    system it was solved from.  c1 and c2 are what systems() builds; the
    method is pi exactly when c2 is given.  Returns (C1's least
    solution, the final solution, PI iterations); without c2 the final
    solution is C1's, and no iteration ran."""
    plain = final = solve_monotone(c1)
    iterations = 0
    if c2 is not None:
        final, _policy, iterations = policy_iterate(c2, plain=plain)
    if not (c1 if c2 is None else c2).satisfied_by(final.values):
        raise TuneError("solved assignment fails substitution check")
    return plain, final, iterations


def write_all(artifacts: dict[Path, str]) -> None:
    """Write every file of artifacts, or none.  Every target is opened
    before any is written, without truncating: an existing one as it
    is, a missing one created.  If one cannot be opened, the files this
    call created are removed and nothing is written.  Otherwise each is
    written over from its start, through the descriptor it was opened
    with, and then cut to what was written.

    Emptying a file and then writing it, as open(path, "w") does, makes
    ext4 start writing it back to disk when it is closed; writing over
    it does not.  Where a program is tuned again over its old
    artifacts, as perfbench's corpus workload does, that took op_s.p50
    from 9.5 to 8.2 ms (2-vCPU VM).  Writing each to a temporary file
    and renaming it onto the target made the same tunes 6-25% slower
    than the plain writes, as every write then makes a new file and
    deletes the old one."""
    fds: list[int] = []
    created: list[Path] = []
    try:
        for path in artifacts:
            try:
                fds.append(os.open(path, os.O_WRONLY))
            except FileNotFoundError:
                fds.append(os.open(path, os.O_WRONLY | os.O_CREAT
                                   | os.O_EXCL, 0o666))
                created.append(path)
    except OSError:
        for fd in fds:
            os.close(fd)
        for path in created:
            path.unlink(missing_ok=True)
        raise
    try:
        for fd, text in zip(fds, artifacts.values()):
            with open(fd, "w", closefd=False) as f:
                f.write(text)
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    finally:
        for fd in fds:
            os.close(fd)


def check_tuned(prog: Program, widths: dict[int, int], ref: Trace,
                cfg: TuningConfig, stages: dict[str, float] | None = None):
    """Run the program at widths on the first binding set and check it
    against ref, the reference trace of the same set.  Returns
    (verification rows, tuned trace); tuned_run and verify times are
    added to stages."""
    stages = {} if stages is None else stages
    with stage(stages, "tuned_run"):
        tuned = run_tuned(prog, widths, (cfg.bindings or (None,))[0])
    with stage(stages, "verify"):
        rows = _verify_rows(prog, ref, tuned)
    return rows, tuned


def tune(prog: Program, cfg: TuningConfig | None = None,
         stages: dict[str, float] | None = None):
    """Full pipeline on a parsed program; returns (NsbAssignment,
    TuningReport, C1), C1 being the plain system, for LP export.  Stage
    times are added to stages, which becomes report.stages."""
    cfg = cfg or TuningConfig()
    stages = {} if stages is None else stages
    if not requirements(prog, cfg):
        raise TuneError("program has no require_nsb statement; nothing to tune")
    with stage(stages, "reference_run"):
        ref = run_reference(prog, cfg.pref, cfg.bindings)
    with stage(stages, "generate"):
        c1, c2 = systems(prog, ref.ranges, cfg)
    with stage(stages, "solve"):
        plain, assignment, pi_iterations = solve(c1, c2)
    rows, tuned = check_tuned(prog, assignment.widths(), ref, cfg, stages)
    total_bits = {"ilp": plain.total}
    sizes = {"c1": system_stats(c1)}
    if c2 is not None:
        total_bits["pi"] = assignment.total
        sizes["c2"] = dict(system_stats(c2), xi_defs=len(c2.xi_defs))
    solved = c1 if c2 is None else c2
    report = TuningReport(
        method=cfg.method, total_bits=total_bits,
        nsb={str(p): n for p, n in sorted(assignment.widths().items())},
        systems=sizes, pi_iterations=pi_iterations, stages=stages,
        skipped_points=solved.skipped_points,
        zero_ufp_points=solved.zero_ufp_points,
        steps_reference=ref.steps, steps_tuned=tuned.steps,
        diverged=ref.steps != tuned.steps, verification=rows)
    return assignment, report, c1
