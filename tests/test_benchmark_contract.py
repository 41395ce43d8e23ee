"""The entry points the benchmark harness calls still work.

perfbench/ builds its inputs through bittune.nbody and runs the command
line through bittune.cli.main; a refactor that breaks either should fail
here, not only when the benchmark runs.  The harness is imported as it
imports itself, in a fresh interpreter with perfbench/ and src/ first on
sys.path, and works in its own temporary directory.  Each invoked
workload's own output check then runs on what it collected, which
replays the emitted scripts of the generated programs.
"""

import collections
import importlib
import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bittune import solver, tuner
from bittune.constraints import gen_ilp, gen_refined, system_stats
from bittune.interp import run_reference
from bittune.nbody import build_nbody_program, horizon_t_max
from bittune.parse import parse_program
from helpers import LOOP
from test_solver import make_system, random_mixed_rows

ROOT = Path(__file__).resolve().parents[1]
SEED = 1

# Sets up every workload at one seed and runs the first invocation of
# each workload named on the command line, then that workload's check on
# the invocation's outputs; prints {"codes": {workload: exit code},
# "problems": {workload: [problem, ...]}}.
_SCRIPT = """\
import contextlib, io, json, sys
from pathlib import Path
root, workdir, seed, *invoked = sys.argv[1:]
sys.path[:0] = [str(Path(root) / "perfbench"), str(Path(root) / "src")]
import run
from workloads import WORKLOADS
bt = run.import_bittune()
codes, problems = {}, {}
for name, cls in WORKLOADS.items():
    wl = cls(int(seed), Path(workdir) / name)
    wl.dir.mkdir()
    wl.setup(bt)
    if not wl.ops:
        codes[name] = "no invocations"
    elif name in invoked:
        op = wl.ops[0]
        with contextlib.redirect_stdout(io.StringIO()):
            codes[name] = bt.cli.main(op.argv)
        if codes[name] == 0:
            outputs = {op.key: [wl.collect(op, True)]}
            problems[name] = wl.check(bt, outputs)[0]
print(json.dumps({"codes": codes, "problems": problems}))
"""


def test_workloads_set_up_and_their_first_invocations_succeed(tmp_path):
    invoked = ["nbody-tune", "nbody-sweep", "corpus", "wide"]
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT), str(tmp_path), str(SEED),
         *invoked],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    codes = result["codes"]
    assert codes == dict.fromkeys(invoked, 0), proc.stderr
    assert result["problems"] == dict.fromkeys(invoked, []), proc.stderr


def _tracing():
    """perfbench/tracing.py, loaded by path and never written to."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Traced names the package no longer defines, each recorded as not found
# by every traced run (ROADMAP item 3).  A name missing beyond these
# means a layer has silently dropped out of the traced figures.
KNOWN_MISSING = {
    "tuner.parse_program",
    "cli.build_links", "tuner.build_links", "nbody.build_links",
    "cli.analyze_ranges", "tuner.analyze_ranges", "nbody.analyze_ranges",
    "nbody.gen_ilp", "nbody.gen_refined",
    "nbody.solve_monotone", "nbody.policy_iterate",
    "interp.round_to",
}


def test_every_traced_name_resolves_but_the_known_missing():
    tracing = _tracing()
    names = [(mod, attr) for mod, attr, _ in tracing.SPANNED]
    names += tracing.AGGREGATED
    missing = {f"{mod}.{attr}" for mod, attr in names
               if getattr(importlib.import_module(f"bittune.{mod}"), attr,
                          None) is None}
    assert missing <= KNOWN_MISSING


def test_traced_system_counts_match_system_stats():
    tracing = _tracing()
    cfg = tuner.TuningConfig(method="pi")
    for src in (LOOP, build_nbody_program(t_max=horizon_t_max(0.05))):
        prog = parse_program(src)
        ranges = run_reference(prog, cfg.pref).ranges
        for refined in (False, True):
            system = (gen_refined if refined else gen_ilp)(prog, ranges,
                                                           cfg.pref)
            counts = collections.defaultdict(int)
            tracing._count(counts, "constraints.c2" if refined
                           else "constraints.c1", system)
            stats = system_stats(system)
            assert dict(counts) == {
                "constraints.rows": stats["num_constraints"],
                "constraints.vars": stats["num_vars"],
                "constraints.xi_defs": len(system.xi_defs)}


def test_traced_solver_counts_read_the_solver_results():
    # The tracer takes policy_iterate's iteration count from result[2]
    # and solve_ilp's node count from result.nodes.
    tracing = _tracing()
    cfg = tuner.TuningConfig(method="pi")
    prog = parse_program(build_nbody_program(t_max=horizon_t_max(0.05)))
    c2 = gen_refined(prog, run_reference(prog, cfg.pref).ranges, cfg.pref)
    mixed, _ = make_system(random_mixed_rows(random.Random(2), 6, 10, 8), 6,
                           25)
    counts = collections.defaultdict(int)
    tracing._count(counts, "solver.pi", solver.policy_iterate(c2))
    tracing._count(counts, "solver.bb", solver.solve_ilp(mixed))
    assert dict(counts) == {"solver.pi_iterations": 2,
                            "solver.bb_nodes": 11}


def test_every_bench_record_names_each_workload_and_metric():
    """Each committed BENCH_<n>.json (scripts/bench_record.py) holds, for
    every workload of BENCHMARK.json, exactly its end-to-end and
    per-layer metric names.  Only the keys are checked, not the values."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    for path in records:
        workloads = json.loads(path.read_text())["workloads"]
        assert list(workloads) == [w["name"] for w in spec["workloads"]], \
            path.name
        for name, record in workloads.items():
            assert set(record["end_to_end"]) == e2e, (path.name, name)
            assert set(record["per_layer"]) == layers, (path.name, name)


def _bench_record():
    """scripts/bench_record.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n, message", [
    ("3", "BENCH_3.json exists"),
    ("0", "must be 1 or more, not 0"),
    ("-1", "must be 1 or more, not -1"),
])
def test_bench_record_refuses_a_taken_or_invalid_number_up_front(
        n, message, tmp_path, monkeypatch, capsys):
    # Refused before BENCHMARK.json is read or any harness run starts:
    # tmp_path holds no BENCHMARK.json, and record() fails if called.
    bench_record = _bench_record()

    def record(*args):
        raise AssertionError("a harness run started")

    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "record", record)
    committed = tmp_path / "BENCH_3.json"
    committed.write_text("{}\n")
    with pytest.raises(SystemExit) as exit_:
        bench_record.main([n])
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_3.json"]
    assert committed.read_text() == "{}\n"
