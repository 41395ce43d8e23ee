"""Output contract on mutated input.

Every command ends in exit status 0, 1 or 2, raises nothing past
cli.main, writes at most 4 KB to standard error and returns within
10 s.  The inputs are mutations of a few small sources, of a samples
file and of a tuned report: one character deleted, duplicated or
replaced, or the text truncated.  The mutations are seeded, so every
run checks the same cases.
"""

import random
import string
import time

from bittune import interp
from bittune.cli import main

SEED = 7
CASES = 300
STDERR_LIMIT = 4096
SECONDS_LIMIT = 10.0

# At most 12 operations each: policy iteration can run away on larger
# programs.
SOURCES = {
    "straight": "a = 0.1;\nb = 2.0;\nc = a * b + 1.5;\nd = sqrt(c) / b;\n"
                "require_nsb(d, 20);\n",
    "while": "i = 0.0;\ns = 0.0;\nwhile (i < 4.0) {\n  s = s + i * 0.5;\n"
             "  i = i + 1.0;\n}\nrequire_nsb(s, 20);\n",
    "if": "a = 1.3;\nif (a > 1.0) {\n  b = a * 3.7;\n} else {\n"
          "  b = a - 0.2;\n}\nrequire_nsb(b, 24);\n",
}
# A program with a free input, for the samples file.
OPEN_SOURCE = "y = x * 2.5 + 1.0;\nrequire_nsb(y, 20);\n"
SAMPLES = '[{"x": "1.5"}, {"x": 0.25}]\n'

# Case 54 mutates the while source into a loop that never ends
# ("i = i + .0" for "i = i + 1.0").  At the interpreter's step cap,
# 10,000,000, each command on it takes 7-11 s, verify over the limit,
# and 43 s in all (ROADMAP, "A loop that never ends").  The case stays:
# it runs with interp.MAX_STEPS patched to RUNAWAY_CAP, keeps the rest
# of the contract there and must still stop at that cap; the mend
# removes this entry.
RUNAWAY = {54}
RUNAWAY_CAP = 100_000

COMMANDS = (("tune",), ("tune", "--method", "pi"),
            ("export-lp", "--refined"), ("run",), ("verify",))


def _mutate(rng: random.Random, text: str) -> str:
    i = rng.randrange(len(text))
    kind = rng.randrange(4)
    if kind == 0:
        return text[:i] + text[i + 1:]
    if kind == 1:
        return text[:i] + text[i] + text[i:]
    if kind == 2:
        return text[:i] + rng.choice(string.printable) + text[i + 1:]
    return text[:i]


def _cases(rng: random.Random, reports: dict[str, str]):
    """((path, mutated text), [argv, ...]) for CASES mutated inputs:
    sources, the samples file and the reports tune wrote for SOURCES."""
    for k in range(CASES):
        kind = ("source", "samples", "report")[k % 3]
        if kind == "source":
            name = rng.choice(sorted(SOURCES))
            text = _mutate(rng, SOURCES[name])
            yield ("case.pop", text), [
                (*command, "case.pop", "--report", f"{name}.report.json")
                if command == ("verify",) else (*command, "case.pop")
                for command in COMMANDS]
        elif kind == "samples":
            text = _mutate(rng, SAMPLES)
            yield ("case.json", text), [
                (*command, "open.pop", "--samples", "case.json",
                 "--report", "case.report.json")
                if command[0] in ("tune", "verify")
                else (*command, "open.pop", "--samples", "case.json")
                for command in COMMANDS]
        else:
            name = rng.choice(sorted(SOURCES))
            text = _mutate(rng, reports[name])
            yield ("case.report.json", text), [
                ("verify", f"{name}.pop", "--report", "case.report.json")]


def test_every_command_keeps_the_contract_on_mutated_input(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    reports = {}
    for name, text in SOURCES.items():
        (tmp_path / f"{name}.pop").write_text(text)
        assert main(["tune", f"{name}.pop"]) == 0
        reports[name] = (tmp_path / f"{name}.report.json").read_text()
    (tmp_path / "open.pop").write_text(OPEN_SOURCE)
    capsys.readouterr()

    broken = []
    cases = enumerate(_cases(random.Random(SEED), reports))
    for k, ((path, text), calls) in cases:
        (tmp_path / path).write_text(text)
        for argv in calls:
            t0 = time.perf_counter()
            with monkeypatch.context() as m:
                if k in RUNAWAY:
                    m.setattr(interp, "MAX_STEPS", RUNAWAY_CAP)
                try:
                    code = main(list(argv))
                except (Exception, SystemExit) as e:
                    code = f"raised {type(e).__name__}: {e}"
            seconds = time.perf_counter() - t0
            err = capsys.readouterr().err
            if k in RUNAWAY and f"cap of {RUNAWAY_CAP} steps" not in err:
                broken.append(f"case {k} no longer runs away: {err!r}")
            problems = [p for p, bad in (
                (f"exit {code}", code not in (0, 1, 2)),
                (f"{len(err.encode())} bytes of stderr",
                 len(err.encode()) > STDERR_LIMIT),
                (f"{seconds:.1f} s", seconds > SECONDS_LIMIT)) if bad]
            if problems:
                broken.append(f"{' '.join(argv)} on {path} {text!r}: "
                              f"{', '.join(problems)}")
    assert broken == []
