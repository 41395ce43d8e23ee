"""Seeded input generators for the `corpus` and `wide` workloads.

A generated program is kept in two forms: the source text handed to
`bittune tune`, and a small expression tree that the exact replay in
`replay.py` executes.  Both come from the same tree, so the replay
never has to parse the language.

Expression trees are tuples:

    ("lit", text)            decimal literal, sign folded into the text
    ("var", name)            variable read
    ("bin", op, left, right) op in + - * /
    ("sqrt", operand)

Each statement holds one operation, so the rendered text parses back
to exactly this tree.  Each candidate operation is checked on
a double-precision estimate under every binding set: no near
cancellation, no division by a tiny value, no square root of a
non-positive value, and every magnitude inside [1e-6, 1e6].  Programs
therefore run without domain errors under every binding.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

BINOPS = ("+", "-", "*", "/")
LO, HI = 1e-6, 1e6


@dataclass
class GenProgram:
    stmts: list          # [(name, tree)]
    require: tuple       # (name, bits)
    inputs: tuple        # free input names, in binding order
    samples: list        # [{name: decimal text}], empty for closed programs

    def source(self) -> str:
        lines = [f"{name} = {render(tree)};" for name, tree in self.stmts]
        lines.append(f"require_nsb({self.require[0]}, {self.require[1]});")
        return "\n".join(lines) + "\n"

    def samples_json(self) -> str:
        return json.dumps(self.samples, indent=1) + "\n"


def render(t) -> str:
    kind = t[0]
    if kind in ("lit", "var"):
        return t[1]
    if kind == "sqrt":
        return f"sqrt({render(t[1])})"
    _, op, left, right = t
    return f"{render(left)} {op} {render(right)}"


def _decimal(rng: random.Random, lo: float = 0.1, hi: float = 10.0) -> str:
    digits = rng.randint(1, 6)
    v = round(rng.uniform(lo, hi), digits)
    if v == 0.0:
        v = 1.5
    text = f"{v:.{digits}f}"
    return "-" + text if rng.random() < 0.5 else text


def _ok(values) -> bool:
    return all(LO <= abs(v) <= HI and math.isfinite(v) for v in values)


def _apply(op, a, b):
    """Double estimates of one operation over every binding set, or None
    when the operation is ill-conditioned under any of them."""
    out = []
    for x, y in zip(a, b):
        scale = max(abs(x), abs(y))
        if op == "+":
            r = x + y
            if abs(r) < 1e-3 * scale:
                return None
        elif op == "-":
            r = x - y
            if abs(r) < 1e-3 * scale:
                return None
        elif op == "*":
            r = x * y
        else:
            if abs(y) < 1e-3:
                return None
            r = x / y
        out.append(r)
    return out if _ok(out) else None


def _operand(rng: random.Random, names, env, width: int):
    """A read of an earlier variable, or now and then a literal."""
    if rng.random() < 0.9:
        name = rng.choice(names)
        return ("var", name), env[name]
    text = _decimal(rng)
    return ("lit", text), [float(text)] * width


def straight_line(rng: random.Random, n_ops: int, req: int,
                  n_inputs: int = 0, n_sets: int = 1) -> GenProgram:
    """A straight-line program of n_ops single-operation statements over
    earlier variables, ending in require_nsb(last, req).  A closed
    program starts from two literal definitions; otherwise n_inputs free
    inputs are bound by n_sets binding sets."""
    inputs = tuple(f"in{i}" for i in range(n_inputs))
    samples = [{name: _decimal(rng, 0.5, 4.0) for name in inputs}
               for _ in range(n_sets)] if n_inputs else []
    width = max(n_sets, 1)
    env = {name: [float(s[name]) for s in samples] for name in inputs}
    names = list(inputs)
    stmts = []

    def define(tree, values) -> None:
        name = f"v{len(stmts)}"
        stmts.append((name, tree))
        env[name] = values
        names.append(name)

    if not inputs:
        for _ in range(2):
            text = _decimal(rng)
            define(("lit", text), [float(text)])
    for _ in range(n_ops):
        for _ in range(8):
            a, av = _operand(rng, names, env, width)
            op = rng.choice(BINOPS + ("sqrt",))
            if op == "sqrt":
                if all(x > 0 for x in av) and a[0] == "var":
                    define(("sqrt", a), [math.sqrt(x) for x in av])
                    break
                continue
            b, bv = _operand(rng, names, env, width)
            r = _apply(op, av, bv)
            if r is not None:
                define(("bin", op, a, b), r)
                break
        else:
            # Always well conditioned: scale the last value by a literal
            # in [0.5, 2].
            last = names[-1]
            text = f"{rng.uniform(0.5, 2.0):.3f}"
            define(("bin", "*", ("var", last), ("lit", text)),
                   [x * float(text) for x in env[last]])
    return GenProgram(stmts, (stmts[-1][0], req), inputs, samples)


# Corpus requirement widths and sizes are stratified rather than drawn:
# every block of BLOCK programs sweeps the sizes evenly, so per-run
# aggregates depend on the seed only through program structure and
# values.
CORPUS_REQS = (8, 12, 16, 20, 24, 28, 32, 36, 40)
BLOCK = 30


def corpus(seed: int, blocks: int = 10, min_ops: int = 2, max_ops: int = 80):
    """blocks * BLOCK programs.  Within each block the operator counts
    sweep [min_ops, max_ops] evenly, in shuffled order, and one program in
    three reads 1 to 3 free inputs, bound by 1 to 3 sample sets."""
    rng = random.Random(seed)
    progs = []
    for _ in range(blocks):
        block = []
        for i in range(BLOCK):
            n_ops = min_ops + (i * (max_ops - min_ops)) // (BLOCK - 1)
            req = CORPUS_REQS[i % len(CORPUS_REQS)]
            n_inputs = rng.randint(1, 3) if i % 3 == 0 else 0
            n_sets = rng.randint(1, 3) if n_inputs else 1
            block.append(straight_line(rng, n_ops, req, n_inputs, n_sets))
        rng.shuffle(block)
        progs += block
    return progs


def wide(seed: int, n_stmts: int = 1100, reqs=(18, 24, 30)):
    """Large closed programs of one size, one per requirement.  One size
    keeps their times together, so the run's quantiles do not jump
    between size classes."""
    rng = random.Random(seed)
    return [straight_line(rng, n_stmts, req) for req in reqs]
