#!/usr/bin/env python3
"""Tune the five-body orbit program once and write its artifacts.

Builds the source at one requirement and horizon, solves it with the
chosen method, prints the totals and verification table, and leaves
the generated source plus the annotated/mp-script/report artifacts
beside --out.  Use --method pi to see the carry-refinement gain over
the plain integer solve (the report carries both totals).
"""

import argparse
from pathlib import Path

from bittune.codegen import emit_mp_code
from bittune.nbody import build_nbody_program, horizon_t_max
from bittune.parse import parse_program
from bittune.render import emit_annotated
from bittune.tuner import TuningConfig, tune


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--req", type=int, default=11,
                    help="bits demanded of every final coordinate (default 11)")
    ap.add_argument("--years", type=float, default=10.0)
    ap.add_argument("--dt", default="0.01")
    ap.add_argument("--method", choices=("ilp", "pi"), default="pi")
    ap.add_argument("--out", default="nbody.pop",
                    help="where to write the source; artifacts land beside it")
    args = ap.parse_args()

    source = build_nbody_program(dt=args.dt,
                                 t_max=horizon_t_max(args.years, args.dt),
                                 req=args.req)
    base = Path(args.out)
    base.write_text(source)

    prog = parse_program(source)
    assignment, report = tune(prog, TuningConfig(method=args.method))
    widths = assignment.widths()
    base.with_suffix(".annotated.pop").write_text(emit_annotated(prog, widths))
    base.with_suffix(".mp.txt").write_text(emit_mp_code(prog, widths))
    base.with_suffix(".report.json").write_text(report.to_json())

    print(report.to_text(), end="")
    for suffix in (".annotated.pop", ".mp.txt", ".report.json"):
        print(f"wrote {base.with_suffix(suffix)}")


if __name__ == "__main__":
    main()
