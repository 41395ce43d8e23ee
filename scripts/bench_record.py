#!/usr/bin/env python3
"""Record one BENCH_<n>.json from the benchmark harness.

    python3 scripts/bench_record.py N [--checkout DIR]

Runs `perfbench/run.py` of the checkout (by default the one this script
sits in) on every workload that BENCHMARK.json lists, at seed 7 for
BENCHMARK.json's run_seconds, once with --trace 0 and once with
--trace 1, and reads the result file each run leaves in the
checkout's `.perfbench-run/`.  Writes BENCH_N.json to the
root of this script's repository: per workload, the untraced run's
end_to_end, quality and environment, the traced run's per_layer, and
as sizes the work counts of the traced run's first invocation (points,
rows, variables, xi definitions, links, steps and the like).  A run
that reports a failed check stops the recording.  N must be 1 or more
and BENCH_N.json must not exist yet: the script refuses either before
it starts any run, with exit status 2, and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def record(checkout: Path, workload: str, seconds: float, trace: int) -> dict:
    """The result file of one harness run of workload."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", str(seconds),
            "--trace", str(trace)]
    if subprocess.run(argv, cwd=checkout).returncode != 0:
        raise SystemExit(f"bench_record: {workload} --trace {trace} failed")
    path = checkout / ".perfbench-run" / f"result-{workload}-{SEED}-{trace}.json"
    return json.loads(path.read_text())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, help="the record's number")
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="source checkout to measure (default this one)")
    args = ap.parse_args(argv)
    out = ROOT / f"BENCH_{args.n}.json"
    if args.n < 1:
        ap.error(f"the record's number must be 1 or more, not {args.n}")
    if out.exists():
        ap.error(f"{out.name} exists; record under a new number")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        plain = record(args.checkout, name, seconds, 0)
        traced = record(args.checkout, name, seconds, 1)
        workloads[name] = {
            "end_to_end": plain["end_to_end"],
            "quality": plain["quality"],
            "per_layer": traced["per_layer"],
            "sizes": traced["op_counts"][0],
            "environment": plain["environment"],
        }
    out.write_text(json.dumps({"seed": SEED, "seconds": seconds,
                               "workloads": workloads}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
