"""The four workloads: inputs made from the seed, the CLI invocations of
one round, what to keep from each invocation, and the output checks.

Every workload is a closed loop with one client: the benchmark repeats
its round of invocations, each starting when the previous one returns.

  nbody-tune   `tune --method pi` on the five-body program at two years,
               requirements 11/24/43, initial positions nudged by the
               seed.  Interpreter-bound: three passes of ~200 loop trips
               over 910 control points.  (PI fails at requirement 53
               today; `corpus` is where that defect is counted.)
  nbody-sweep  `bench --method ilp --jobs 1` over six requirements at
               half a year, series files on, requirement order from the
               seed.  One range and reference pass, then six tuned
               passes, exact-rational drift and CSV writes.
  corpus       `tune --method pi --emit-lp` on 300 random straight-line
               programs of 2-80 operations, each tuned at least once, a third with
               free inputs bound by 1-3 sample sets.  Bound by constraint
               generation and the solvers; PI failures are counted, not
               avoided.
  wide         `tune` (method ilp) on three straight-line programs of
               1.1k statements each.  The only workload where parsing
               and def-use analysis, both superlinear, show.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import gen
import replay

# Drift against the 500-bit orbit at ten years, in AU, for requirements
# 11, 18 and 24 (the README's figures); within 100x of these, and under
# PLATEAU_AU from requirement 34 on.
TEN_YEAR_AU = {
    "Jupiter": (5.542e-4, 1.650e-6, 1.577e-7),
    "Saturn": (1.571e-3, 2.111e-5, 1.326e-7),
    "Uranus": (2.952e-3, 2.364e-5, 1.140e-7),
    "Neptune": (2.360e-3, 3.807e-5, 2.206e-7),
}
PLATEAU_AU = 1e-7
SWEEP_NSB = (11, 18, 24, 34, 43, 53)


@dataclasses.dataclass
class Op:
    key: str                 # the input this invocation works on
    argv: list
    base: Path | None = None  # the source file, for tune invocations


class Workload:
    name = ""
    limit_s = 60.0           # an invocation running longer is stopped
    round_size = 0           # invocations per round; 0 means all of ops

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.ops: list[Op] = []

    def setup(self, bt) -> None:
        raise NotImplementedError

    def collect(self, op: Op, first: bool) -> dict:
        """Outputs of one successful invocation, read right after it."""
        raise NotImplementedError

    def check(self, bt, outputs: dict) -> tuple[list[str], dict]:
        """outputs maps op key -> [collected, ...].  Returns the problems
        found and the quality figures."""
        raise NotImplementedError


# --- tune-based workloads ------------------------------------------------

def _row_ratio(row: dict) -> float:
    """err / one-ulp bound of one verification row."""
    def val(text):
        return Fraction(2) ** int(text[2:]) if text.startswith("2^") \
            else Fraction(text)
    err, bound = val(row["error"]), val(row["bound"])
    # The report's bound is the tolerance-free one-ulp bound 2^(ufp-n+1).
    return float(err / bound)


class _TuneWorkload(Workload):
    method = "ilp"

    def collect(self, op, first):
        out = {"report": op.base.with_suffix(".report.json").read_text()}
        if first:
            out["script"] = op.base.with_suffix(".mp.txt").read_text()
            lp = op.base.with_suffix(".lp")
            if lp.exists():
                out["lp"] = lp.read_text()
        return out

    def check_program(self, bt, key, first) -> list[str]:
        return []

    def check(self, bt, outputs):
        problems: list[str] = []
        q = {"rows": 0, "verify_fail": 0, "strict_miss": 0, "overshoot": [],
             "bits": 0, "points": 0, "ilp_bits": 0, "pi_bits": 0,
             "pi_above_plain": 0}
        for key, seen in outputs.items():
            first = seen[0]
            if any(s["report"] != first["report"] for s in seen[1:]):
                problems.append(f"{key}: reruns wrote different reports")
            report = json.loads(first["report"])
            if report["method"] != self.method:
                problems.append(f"{key}: report method {report['method']}")
            if report["diverged"]:
                problems.append(f"{key}: control flow diverged")
            totals = report["total_bits"]
            if sum(report["nsb"].values()) != totals[self.method]:
                problems.append(f"{key}: widths do not sum to the total")
            if self.method == "pi":
                # Policy iteration should never end above the plain solve
                # it starts from, but does on a few corpus programs: a
                # defect to count, not an output to reject.
                q["pi_above_plain"] += totals["pi"] > totals["ilp"]
                q["ilp_bits"] += totals["ilp"]
                q["pi_bits"] += totals["pi"]
            q["bits"] += totals[self.method]
            q["points"] += len(report["nsb"])
            for row in report["verification"]:
                q["rows"] += 1
                q["verify_fail"] += not row["passed"]
                ratio = _row_ratio(row)
                q["strict_miss"] += ratio > 1.0
                q["overshoot"].append(ratio)
            problems += [f"{key}: {p}" for p in
                         self.check_program(bt, key, first)]
        return problems, q


class NbodyTune(_TuneWorkload):
    name = "nbody-tune"
    method = "pi"
    # Policy iteration's cost does not grow with the horizon; at two years
    # the interpreter's passes take most of the time.
    years = "2"
    reqs = (11, 24, 43)

    def setup(self, bt):
        rng = random.Random(self.seed)
        c = bt.nbody.load_bodies()
        nudge = Decimal("1e-9")
        bodies = tuple(
            b if b.fixed else dataclasses.replace(b, **{
                d: format(Decimal(getattr(b, d))
                          + rng.randint(-500, 500) * nudge, "f")
                for d in ("x", "y", "z")})
            for b in c.bodies)
        c = dataclasses.replace(c, bodies=bodies)
        t_max = bt.nbody.horizon_t_max(self.years)
        reqs = list(self.reqs)
        rng.shuffle(reqs)
        for req in reqs:
            path = self.dir / f"nbody_req{req}.pop"
            path.write_text(bt.nbody.build_nbody_program(c, "0.01", t_max, req))
            self.ops.append(Op(path.stem, ["tune", str(path), "--method", "pi"],
                               path))


class _GeneratedTune(_TuneWorkload):
    extra_args: tuple = ()

    def programs(self):
        raise NotImplementedError

    def setup(self, bt):
        self.progs = {}
        for i, prog in enumerate(self.programs()):
            path = self.dir / f"p{i:03d}.pop"
            path.write_text(prog.source())
            argv = ["tune", str(path), "--method", self.method,
                    *self.extra_args]
            if prog.samples:
                samples = path.with_suffix(".json")
                samples.write_text(prog.samples_json())
                argv += ["--samples", str(samples)]
            self.progs[path.stem] = prog
            self.ops.append(Op(path.stem, argv, path))

    def check_program(self, bt, key, first):
        report = json.loads(first["report"])
        problems = replay.check_tuned(self.progs[key], report,
                                      first["script"], bt.mpfloat)
        if "--emit-lp" in self.extra_args:
            lp = first.get("lp", "")
            n_obj = lp.split("Subject To")[0].count("nsb_")
            if not lp.rstrip().endswith("End") or n_obj != len(report["nsb"]):
                problems.append("LP file lacks its sections or objective")
        return problems


class Corpus(_GeneratedTune):
    name = "corpus"
    method = "pi"
    extra_args = ("--emit-lp",)
    # The seed's programs come in blocks of gen.BLOCK that each sweep the
    # sizes; a round is one block.  A run tunes every program at least
    # once, so the inputs that fail depend on the seed alone, not on how
    # many blocks fit in the time.  Successful invocations take under
    # 0.35 s on a 2-vCPU VM, while policy iteration's branch and bound
    # runs for minutes on about 0.7% of programs (all of 50+
    # operations).  Such an invocation is stopped at ten times the
    # slowest success, so a slowdown shows in the times long before it
    # turns successes into failures, and is counted as failed.
    round_size = gen.BLOCK
    limit_s = 3.0

    def programs(self):
        return gen.corpus(self.seed)


class Wide(_GeneratedTune):
    name = "wide"
    method = "ilp"

    def programs(self):
        return gen.wide(self.seed)


# --- the sweep -----------------------------------------------------------

class NbodySweep(Workload):
    name = "nbody-sweep"
    years = "0.5"

    def setup(self, bt):
        order = list(SWEEP_NSB)
        random.Random(self.seed).shuffle(order)
        self.out = self.dir / "sweep"
        self.ops.append(Op("sweep", [
            "bench", "--nsb", ",".join(map(str, order)), "--years", self.years,
            "--method", "ilp", "--jobs", "1", "--out", str(self.out)]))

    def collect(self, op, first):
        out = {"summary": (self.out / "summary.csv").read_text()}
        if first:
            out["series"] = {p.name: p.read_text()
                             for p in sorted(self.out.glob("series_*.csv"))}
        return out

    def check(self, bt, outputs):
        seen = outputs.get("sweep", [])
        if not seen:
            return [], {}
        drift = [drift_table(s["summary"]) for s in seen]
        problems = []
        if any(d != drift[0] for d in drift[1:]):
            problems.append("reruns reported different drift")
        problems += check_drift(drift[0], float(self.years))
        problems += _check_series(drift[0], seen[0]["series"], self.years)
        return problems, {}


def drift_table(summary_text: str) -> dict:
    """{body: {nsb: distance_au}} from a bench summary."""
    out: dict = {}
    for row in csv.DictReader(io.StringIO(summary_text)):
        out.setdefault(row["body"], {})[int(row["nsb"])] = \
            float(row["distance_au"])
    return out


def check_drift(drift: dict, years: float) -> list[str]:
    """Drift must not grow with the requirement until the plateau; at
    ten years it must also sit inside the known bands."""
    problems = []
    if sorted(drift) != sorted(TEN_YEAR_AU):
        return [f"summary bodies {sorted(drift)}"]
    for body, by_nsb in drift.items():
        if sorted(by_nsb) != sorted(SWEEP_NSB):
            problems.append(f"{body}: requirements {sorted(by_nsb)}")
            continue
        dist = [by_nsb[n] for n in SWEEP_NSB]
        for i in range(len(dist) - 1):
            if dist[i] <= PLATEAU_AU:
                break
            if dist[i + 1] > dist[i]:
                problems.append(f"{body}: drift grows from nsb "
                                f"{SWEEP_NSB[i]} to {SWEEP_NSB[i + 1]}")
        if years == 10.0:
            for i, d in enumerate(dist):
                bound = 100 * TEN_YEAR_AU[body][i] if i < 3 else PLATEAU_AU
                if not 0.0 <= d <= bound:
                    problems.append(f"{body}: drift {d:.3e} AU at nsb "
                                    f"{SWEEP_NSB[i]} outside {bound:.3e}")
    return problems


def _check_series(drift: dict, series: dict, years: str) -> list[str]:
    """Each series file ends where the summary's drift is."""
    problems = []
    for nsb in SWEEP_NSB:
        name = f"series_nsb{nsb:02d}_h{float(years):g}y.csv"
        if name not in series:
            problems.append(f"missing {name}")
            continue
        last = {}
        for row in csv.DictReader(io.StringIO(series[name])):
            last[row["body"]] = float(row["distance_au"])
        for body, d in last.items():
            if d != drift[body][nsb]:
                problems.append(f"{name}: final {body} drift {d!r} != "
                                f"summary {drift[body][nsb]!r}")
    return problems


WORKLOADS = {w.name: w for w in (NbodyTune, NbodySweep, Corpus, Wide)}
