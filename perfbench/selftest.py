#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Exact counts repeat: for every workload, two fresh set-ups with the
   same seed run one traced round each (a corpus round is one block),
   and every per-invocation work count (points, links, rows, xi
   definitions, steps, passes, PI iterations, B&B nodes, mpfloat calls,
   script bytes) must match.
2. The exact replay agrees with `bittune run --bits 53`, which prints
   every variable's exact value at one uniform width, on corpus and
   wide programs.
3. The ten-year sweep stays inside the drift bands of the README's
   acceptance figures.

Exits 1 on the first failed section, 0 when all pass.
"""

from __future__ import annotations

import contextlib
import io
import sys
from fractions import Fraction

import run

SEED = 7


def traced_round(workload_cls, seed: int) -> list[dict]:
    from tracing import Tracer
    bt, wl, _ = run.setup(workload_cls, seed)
    invoke = run.Invoker(bt, wl.limit_s)
    tracer = Tracer()
    for i, op in enumerate(wl.ops[:wl.round_size or None]):
        tracer.install(vars(bt))
        tracer.begin_op(i)
        try:
            invoke(op.argv, op.key, tracer)
        finally:
            tracer.uninstall()
        tracer.end_op()
    return tracer.op_counts


def check_counts(seed: int) -> bool:
    from workloads import WORKLOADS
    ok = True
    for name, cls in WORKLOADS.items():
        first = traced_round(cls, seed)
        second = traced_round(cls, seed)
        same = first == second
        ok &= same
        print(f"counts {name}: {len(first)} invocations, "
              f"{'identical' if same else 'DIFFERENT'}")
    return ok


def check_replay(seed: int) -> bool:
    import gen
    import replay
    bt = run.import_bittune()
    ok = True
    progs = gen.corpus(seed)[:20] + gen.wide(seed)[:1]
    for i, prog in enumerate(progs):
        path = run.OUT / f"selftest-{i}.pop"
        run.OUT.mkdir(exist_ok=True)
        path.write_text(prog.source())
        argv = ["run", str(path), "--bits", "53"]
        if prog.samples:
            path.with_suffix(".json").write_text(prog.samples_json())
            argv += ["--samples", str(path.with_suffix(".json"))]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = bt.cli.main(argv)
        printed = dict(line.split(" = ") for line in out.getvalue().splitlines())
        mine = replay.run(prog, lambda p: 53,
                          prog.samples[0] if prog.samples else None)
        same = rc == 0 and all(Fraction(printed[k]) == v
                               for k, v in mine.items())
        if not same:
            print(f"replay: program {i} disagrees with `bittune run`")
            ok = False
    print(f"replay: {len(progs)} programs, "
          f"{'all agree' if ok else 'MISMATCH'} with `bittune run --bits 53`")
    return ok


def check_ten_years() -> bool:
    from workloads import SWEEP_NSB, check_drift, drift_table
    bt = run.import_bittune()
    out = run.OUT / "selftest-sweep"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = bt.cli.main(["bench", "--nsb", ",".join(map(str, SWEEP_NSB)),
                          "--years", "10", "--jobs", "1", "--no-series",
                          "--out", str(out)])
    problems = ["bench failed"] if rc else \
        check_drift(drift_table((out / "summary.csv").read_text()), 10.0)
    for p in problems:
        print(f"ten-year sweep: {p}")
    print(f"ten-year sweep: {'inside the bands' if not problems else 'FAILED'}")
    return not problems


def main() -> int:
    if not (run.SRC / "bittune" / "cli.py").is_file():
        print(f"selftest: no bittune sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    sys.path.insert(0, str(run.HERE))
    ok = check_counts(SEED) and check_replay(SEED) and check_ten_years()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
