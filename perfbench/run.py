#!/usr/bin/env python3
"""Benchmark of the bittune command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; bittune is imported from
`src/`, nothing is installed.  The CLI is called in process through
`bittune.cli.main(argv)`, by one client in a closed loop, with no worker
pool.  The workloads are described in `workloads.py`.

A run sets up several times (import plus input generation, into
`.perfbench-run/`) and reports the median as `setup_s`.  It then
repeats the workload's round of invocations until S seconds have gone,
every input has been tried once and the round in progress has ended,
reads each invocation's outputs between invocations, and checks them
all once the clock has stopped: reruns must write identical outputs,
generated programs are replayed exactly, the emitted scripts are run,
and the sweep's drift must fall with the requirement.

With --trace 0 the last line carries the end-to-end metrics:

  setup_s       median set-up time                            s    lower
  wall_s        median time of one full round of invocations  s    lower
                (a round is every input once, or a corpus block)
  op_s.p50      median time of a successful invocation        s    lower
  ops_per_s     successes per second of invocation time,      1/s  higher
                median over rounds
  ok_rate       inputs none of whose invocations failed,      1    higher
                over inputs
  peak_rss_mb   peak resident memory of this process          MB   lower

Times are in seconds at a reference machine speed.  Small shared
virtual machines change speed by half again for seconds at a time,
which moves the wall-clock medians of whole runs by 25-50%.  So a fixed
pure-Python loop (the gauge) is timed before the first invocation and
after every one, and each invocation's wall time is multiplied by
CAL_REF_S over the mean of the two gauges beside it.  The set-up
repetitions are scaled the same way, and the time limit of an
invocation is stretched by the gauge taken before it.  The wall-clock
figures are printed too, and kept in the result file.

The lines before the last also print figures that are 0 or undefined on
some workloads, so the bounds in BENCHMARK.json cannot gate them:
op_s.tail (the highest percentile of successful invocation times with
ten successes above it, with its percentile and count; undefined below
eleven successes, and a real tail only where a run has many, as on
corpus), fail_rate, verify_fail_rate (100x tolerance), strict_miss_rate
and overshoot_max (the one-ulp line), bits_per_point, pi_gain_pct and
pi_above_plain (inputs whose PI total exceeds the plain total).

With --trace 1 every invocation runs twice, untraced and then traced
(see `tracing.py`), and the last line carries per-layer figures, as
means per traced invocation, plus trace.overhead_pct, the traced time
against the untraced time of the same invocations.

The result line's `attempted` counts the workload's inputs and `failed`
those with a failed invocation, so both depend on the seed and the
program, not on how many rounds fit in the time.

Each run writes its figures, failures, environment and exact work counts
to `.perfbench-run/result-<workload>-<seed>-<trace>.json`, and a traced
run its spans to `spans-<workload>-<seed>.json` beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import types
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-run"
SETUP_REPEATS = 5
# Machine speed gauge: a fixed pure-Python loop, timed beside every
# invocation.  CAL_REF_S is what it takes at the reference speed, a
# typical figure for Python 3.11 on a 2-vCPU x86 VM.
CAL_ITERS = 3_000
CAL_REF_S = 0.0011
MODULES = ("cli", "tuner", "nbody", "parse", "flow", "interp", "mpfloat",
           "constraints", "solver", "render", "codegen", "lpfile")

E2E = [  # name, unit, better
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("op_s.p50", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("ok_rate", "1", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [  # name, unit; all better lower except steps_per_s
    ("cli.self_s", "s"), ("tuner.self_s", "s"), ("nbody.self_s", "s"),
    ("parse.s", "s"), ("parse.calls", "count"), ("parse.points", "count"),
    ("flow.s", "s"), ("flow.calls", "count"), ("flow.links", "count"),
    ("interp.ranges_s", "s"), ("interp.reference_s", "s"),
    ("interp.tuned_s", "s"), ("interp.passes", "count"),
    ("interp.steps", "count"), ("interp.steps_per_s", "1/s"),
    ("mpfloat.s", "s"), ("mpfloat.calls", "count"),
    ("constraints.c1_s", "s"), ("constraints.c2_s", "s"),
    ("constraints.rows", "count"), ("constraints.vars", "count"),
    ("constraints.xi_defs", "count"),
    ("solver.monotone_s", "s"), ("solver.pi_s", "s"),
    ("solver.pi_iterations", "count"), ("solver.bb_nodes", "count"),
    ("render.s", "s"), ("codegen.s", "s"), ("codegen.bytes", "count"),
    ("lpfile.s", "s"), ("trace.overhead_pct", "%"),
]

# Span name -> per-layer time metric it is charged to.
SELF_METRIC = {
    "cli.main": "cli.self_s", "tuner.tune": "tuner.self_s",
    "nbody.run_experiment": "nbody.self_s",
    "parse.parse_program": "parse.s",
    "flow.build_links": "flow.s", "flow.check_defined_before_use": "flow.s",
    "interp.ranges": "interp.ranges_s",
    "interp.reference": "interp.reference_s",
    "interp.tuned": "interp.tuned_s", "mpfloat": "mpfloat.s",
    "constraints.c1": "constraints.c1_s", "constraints.c2": "constraints.c2_s",
    "solver.monotone": "solver.monotone_s", "solver.pi": "solver.pi_s",
    "solver.bb": "solver.pi_s", "render.emit_annotated": "render.s",
    "codegen.emit_mp_code": "codegen.s", "lpfile.export_lp": "lpfile.s",
}


def _calibration_loop() -> int:
    # The kinds of work bittune does: wide integer products and shifts,
    # small tuples, dict stores and list appends.
    d = {}
    acc = []
    x = (1 << 200) + 12345
    for i in range(CAL_ITERS):
        y = (x * (i | 1)) >> 180
        d[i & 511] = (y, i)
        acc.append(y & 0xFFFF)
    return len(acc)


def gauge() -> float:
    """Seconds the calibration loop takes now (median of five)."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class InvocationTimeout(BaseException):
    """Raised into an invocation that outlives its limit.  A BaseException,
    so the CLI's own error handling does not swallow it."""


def _on_alarm(signum, frame):
    raise InvocationTimeout


def import_bittune():
    """A fresh import of every bittune module, as a namespace."""
    for name in [m for m in sys.modules if m == "bittune" or
                 m.startswith("bittune.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"bittune.{m}") for m in MODULES})


class Invoker:
    """Calls the CLI with its output captured and a time limit, and keeps
    the failures: exception class and first line of the message."""

    def __init__(self, bt, limit_s: float):
        self.bt = bt
        self.limit_s = limit_s       # at the reference speed
        self.slowdown = 1.0          # gauge time over CAL_REF_S
        self.failures: list[dict] = []
        self._raised = None
        signal.signal(signal.SIGALRM, _on_alarm)
        for attr in ("cmd_tune", "cmd_bench"):
            fn = getattr(bt.cli, attr, None)
            if fn is not None:
                setattr(bt.cli, attr, self._catching(fn))

    def _catching(self, fn):
        def wrapper(args):
            try:
                return fn(args)
            except Exception as e:
                self._raised = e
                raise
        return wrapper

    def __call__(self, argv, key: str, tracer=None) -> tuple[bool, float]:
        out, err = io.StringIO(), io.StringIO()
        self._raised = None
        raised = None
        signal.setitimer(signal.ITIMER_REAL, self.limit_s * self.slowdown)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = self.bt.cli.main(argv)
                else:
                    sid = tracer.open("cli.main")
                    try:
                        rc = self.bt.cli.main(argv)
                    finally:
                        tracer.close(sid)
        except (Exception, InvocationTimeout) as e:
            raised, rc = e, None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            dt = time.perf_counter() - t0
        if rc == 0:
            return True, dt
        exc = raised or self._raised
        if isinstance(exc, InvocationTimeout):
            message = f"stopped after {self.limit_s:g} s at the reference speed"
        elif exc is not None:
            message = (str(exc).splitlines() or [""])[0]
        else:
            message = (err.getvalue().splitlines() or [""])[0]
        self.failures.append({
            "key": key, "class": type(exc).__name__ if exc else f"exit {rc}",
            "message": message[:200]})
        return False, dt


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bittune").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": _git_commit(), "source_sha256": digest.hexdigest()}


def _git_commit():
    """HEAD from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup(workload_cls, seed: int):
    """SETUP_REPEATS fresh imports and input generations; returns the last
    and the median time."""
    times = []
    before = gauge()
    for _ in range(SETUP_REPEATS):
        workdir = OUT / f"{workload_cls.name}-{seed}"
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        bt = import_bittune()
        workdir.mkdir(parents=True)
        wl = workload_cls(seed, workdir)
        wl.setup(bt)
        dt = time.perf_counter() - t0
        after = gauge()
        times.append(dt * 2 * CAL_REF_S / (before + after))
        before = after
    return bt, wl, statistics.median(times)


def tail(latencies):
    """(value, percentile) of the highest percentile with at least ten
    samples above it, by nearest rank; NaN for both below eleven samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return math.nan, math.nan
    return xs[n - 11], 100.0 * (n - 10) / n


class Record(NamedTuple):
    op: int
    ok: bool
    raw_s: float           # wall seconds
    s: float               # seconds at the reference speed
    round: int
    traced: bool


def measure(wl, invoke, seconds: float, tracer=None):
    """The closed loop, for `seconds` or until every input has run once,
    whichever is later, and then to the end of the round, so that every
    input is timed equally often.  The speed gauge runs before
    the first invocation and after each one; an invocation's time is
    scaled by the mean of the gauges on either side.  Returns the records,
    the (untraced, traced) seconds of a traced run's pairs, and the outputs
    collected per op key."""
    records: list[Record] = []
    pairs = []
    outputs: dict = {}
    n = len(wl.ops)
    per_round = wl.round_size or n
    cal = gauge()

    def timed(op, i, traced):
        nonlocal cal
        invoke.slowdown = cal / CAL_REF_S
        ok, dt = invoke(op.argv, op.key, tracer if traced else None)
        after = gauge()
        scale = 2 * CAL_REF_S / (cal + after)
        cal = after
        records.append(Record(i % n, ok, dt, dt * scale, i // per_round, traced))
        return ok, dt * scale

    deadline = time.perf_counter() + seconds
    i = 0
    while i < n or i % per_round or time.perf_counter() < deadline:
        op = wl.ops[i % n]
        ok, dt = timed(op, i, False)
        if tracer is not None:
            tracer.install(vars(invoke.bt))
            tracer.begin_op(len(pairs))
            try:
                ok_t, dt_t = timed(op, i, True)
            finally:
                tracer.uninstall()
            tracer.end_op(dt_t / records[-1].raw_s)
            pairs.append((dt, dt_t))
            ok = ok and ok_t
        if ok:
            seen = outputs.setdefault(op.key, [])
            seen.append(wl.collect(op, first=not seen))
        i += 1
    return records, pairs, outputs


def failed_inputs(records) -> set:
    """The inputs with at least one failed invocation."""
    return {r.op for r in records if not r.ok}


def end_to_end(records, setup_s, per_round):
    """End-to-end figures from the untraced invocations, at the reference
    speed, and the same timings in wall seconds."""
    untraced = [r for r in records if not r.traced]
    rounds: dict = {}
    for r in untraced:
        rounds.setdefault(r.round, []).append(r)
    full = [rs for rs in rounds.values() if len(rs) == per_round]
    metrics = {"setup_s": setup_s}
    raw = {}
    for out, field in ((metrics, "s"), (raw, "raw_s")):
        ok_times = [getattr(r, field) for r in untraced if r.ok]
        round_s = [sum(getattr(r, field) for r in rs) for rs in full]
        # Throughput is a median over rounds, so that the rare invocation
        # that runs to its time limit moves ok_rate, not this figure.
        out.update({
            "wall_s": statistics.median(round_s),
            "op_s.p50": statistics.median(ok_times) if ok_times else math.nan,
            "ops_per_s": statistics.median(
                sum(r.ok for r in rs) / t for rs, t in zip(full, round_s)),
        })
    inputs = {r.op for r in untraced}
    metrics["ok_rate"] = 1 - len(failed_inputs(untraced)) / len(inputs)
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok_times = [r.s for r in untraced if r.ok]
    tail_s, pct = tail(ok_times)
    info = {"op_s.tail": tail_s, "tail_percentile": pct,
            "tail_samples": len(ok_times), "full_rounds": len(full),
            "wall_clock": raw}
    return metrics, info


def quality(q: dict, attempted: int, failed: int) -> dict:
    out = {"fail_rate": failed / attempted}
    if q.get("rows"):
        out.update({
            "verify_fail_rate": q["verify_fail"] / q["rows"],
            "strict_miss_rate": q["strict_miss"] / q["rows"],
            "overshoot_max": max(q["overshoot"]),
            "bits_per_point": q["bits"] / q["points"],
        })
    if q.get("ilp_bits"):
        out["pi_gain_pct"] = 100.0 * (q["ilp_bits"] - q["pi_bits"]) / q["ilp_bits"]
        out["pi_above_plain"] = q["pi_above_plain"]
    return out


QUALITY_UNITS = {"fail_rate": ("1", "lower"), "verify_fail_rate": ("1", "lower"),
                 "strict_miss_rate": ("1", "lower"),
                 "overshoot_max": ("x", "lower"),
                 "bits_per_point": ("bits", "lower"),
                 "pi_gain_pct": ("%", "higher"),
                 "pi_above_plain": ("count", "lower")}


def per_layer(tracer, pairs) -> dict:
    n = max(len(pairs), 1)
    sums = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    for span, secs in tracer.self_times().items():
        sums[SELF_METRIC[span]] += secs
    for counts in tracer.op_counts:
        for name, v in counts.items():
            sums[name] += v
    # Steps per second of interpreter time, arithmetic included.
    interp_total = tracer.inclusive("interp.")
    out = {k: v / n for k, v in sums.items()}
    out["interp.steps_per_s"] = (sums["interp.steps"] / interp_total
                                 if interp_total else 0.0)
    untraced = sum(u for u, _ in pairs)
    out["trace.overhead_pct"] = (100.0 * (sum(t for _, t in pairs) - untraced)
                                 / untraced if untraced else 0.0)
    return out


def layer_shares(tracer) -> dict:
    """Each layer's share of the summed self time of traced invocations."""
    by_layer: dict = {}
    for span, secs in tracer.self_times().items():
        layer = span.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + secs
    total = sum(by_layer.values())
    return {k: v / total for k, v in
            sorted(by_layer.items(), key=lambda kv: -kv[1])} if total else {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bittune" / "cli.py").is_file():
        print(f"perfbench: no bittune sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    from tracing import Tracer
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    bt, wl, setup_s = setup(WORKLOADS[args.workload], args.seed)
    invoke = Invoker(bt, wl.limit_s)
    tracer = Tracer() if args.trace else None
    records, pairs, outputs = measure(wl, invoke, args.seconds, tracer)

    t0 = time.perf_counter()
    problems, q = wl.check(bt, outputs)
    check_s = time.perf_counter() - t0
    if not outputs:
        problems.append("no invocation succeeded")
    attempted = len(wl.ops)
    failed = len(failed_inputs(records))
    e2e, info = end_to_end(records, setup_s, wl.round_size or len(wl.ops))
    info["check_s"] = check_s
    figures = quality(q, attempted, failed)
    env = environment()

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  nproc {env['nproc']}  "
          f"commit {env['commit'] or 'unknown'}  "
          f"source {env['source_sha256'][:12]}")
    print(f"inputs {attempted}  failed {failed}  "
          f"invocations {len(records)}  "
          f"full rounds {info['full_rounds']}  checks {check_s:.2f} s")
    for name, unit, better in E2E:
        print(f"  {name:<18} {e2e[name]:>14.6g} {unit:<6} {better}")
    print("  wall clock: " + ", ".join(
        f"{k} {v:.6g}" for k, v in info["wall_clock"].items()))
    if info["tail_samples"] < 11:
        print(f"  {'op_s.tail':<18} {'undefined':>14} {'s':<6} lower  "
              f"(not gated: {info['tail_samples']} successes, fewer than 11)")
    else:
        print(f"  {'op_s.tail':<18} {info['op_s.tail']:>14.6g} {'s':<6} lower  "
              f"(not gated: p{info['tail_percentile']:.1f} of "
              f"{info['tail_samples']} successes, 10 above it)")
    for name, v in figures.items():
        unit, better = QUALITY_UNITS[name]
        print(f"  {name:<18} {v:>14.6g} {unit:<6} {better}  (not gated)")
    fail_kinds: dict = {}
    for f in invoke.failures:
        kind = f"{f['class']}: {f['message']}"
        fail_kinds[kind] = fail_kinds.get(kind, 0) + 1
    for kind, count in sorted(fail_kinds.items()):
        print(f"  failed x{count}: {kind}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")

    result = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "environment": env, "end_to_end": e2e, "quality": figures,
              "info": info, "failures": invoke.failures, "problems": problems}
    if tracer is not None:
        layers = per_layer(tracer, pairs)
        shares = layer_shares(tracer)
        for name, unit in PER_LAYER:
            print(f"  {name:<22} {layers[name]:>14.6g} {unit}")
        print("  self-time shares: " + ", ".join(
            f"{k} {v:.1%}" for k, v in shares.items()))
        traced_s = sum(r.s for r in records if r.traced)
        covered = sum(tracer.self_times().values()) / traced_s
        print(f"  layer self times sum to {covered:.1%} of the traced "
              f"invocation time (tracing overhead "
              f"{layers['trace.overhead_pct']:.1f}%)")
        if tracer.missing:
            print(f"  names not found (zero calls): {', '.join(tracer.missing)}")
        result.update(per_layer=layers, shares=shares, covered=covered,
                      op_counts=tracer.op_counts, missing=tracer.missing)
        tracer.write(OUT / f"spans-{wl.name}-{args.seed}.json")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit, _ in E2E}
    (OUT / f"result-{wl.name}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
