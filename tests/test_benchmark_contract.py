"""The entry points the benchmark harness calls still work.

perfbench/ builds its inputs through bittune.nbody and runs the command
line through bittune.cli.main; a refactor that breaks either should fail
here, not only when the benchmark runs.  The harness is imported as it
imports itself, in a fresh interpreter with perfbench/ and src/ first on
sys.path, and works in its own temporary directory.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1

# Sets up every workload at one seed and runs the first invocation of
# each workload named on the command line; prints {workload: exit code}.
_SCRIPT = """\
import contextlib, io, json, sys
from pathlib import Path
root, workdir, seed, *invoked = sys.argv[1:]
sys.path[:0] = [str(Path(root) / "perfbench"), str(Path(root) / "src")]
import run
from workloads import WORKLOADS
bt = run.import_bittune()
codes = {}
for name, cls in WORKLOADS.items():
    wl = cls(int(seed), Path(workdir) / name)
    wl.dir.mkdir()
    wl.setup(bt)
    if not wl.ops:
        codes[name] = "no invocations"
    elif name in invoked:
        with contextlib.redirect_stdout(io.StringIO()):
            codes[name] = bt.cli.main(wl.ops[0].argv)
print(json.dumps(codes))
"""


def test_workloads_set_up_and_their_first_invocations_succeed(tmp_path):
    invoked = ["nbody-tune", "nbody-sweep", "wide"]
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT), str(tmp_path), str(SEED),
         *invoked],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert codes == dict.fromkeys(invoked, 0), proc.stderr
