#!/usr/bin/env python3
"""Tune the five-body orbit program once and write its artifacts.

Builds the source at one requirement and horizon and writes it to
--out.  Then `bittune tune` leaves the annotated/mp-script/report
artifacts beside it, and `bittune verify` prints the verification
table.  Use --method pi to see the carry-refinement gain over the
plain integer solve (the report carries both totals).
"""

import argparse
import sys
from pathlib import Path

from bittune import cli
from bittune.nbody import ExperimentPlan, build_nbody_program, horizon_t_max
from bittune.tuner import TuneError


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--req", type=int, default=11,
                    help="bits demanded of every final coordinate (default 11)")
    ap.add_argument("--years", type=float, default=10.0)
    ap.add_argument("--dt", default="0.01")
    ap.add_argument("--method", choices=("ilp", "pi"), default="pi")
    ap.add_argument("--out", default="nbody.pop",
                    help="where to write the source; artifacts land beside it")
    args = ap.parse_args()
    try:
        ExperimentPlan(nsb_values=(args.req,), horizons_years=(args.years,),
                       dt=args.dt, method=args.method)
    except TuneError as e:
        flag = {"nsb_values": "req", "horizons_years": "years"}.get(e.field,
                                                                   e.field)
        ap.error(f"--{flag}: {e}")

    Path(args.out).write_text(build_nbody_program(
        dt=args.dt, t_max=horizon_t_max(args.years, args.dt), req=args.req))
    return (cli.main(["tune", args.out, "--method", args.method])
            or cli.main(["verify", args.out]))


if __name__ == "__main__":
    sys.exit(main())
