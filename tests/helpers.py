"""Shared generators, independent oracles and test-only readers for the
test suite.

The rounding oracle here deliberately repeats none of the library's
code: it rounds exact rationals with divmod arithmetic so that the two
implementations can only agree by both being right.  The readers
(report_from_json, parse_solution, check_solution, strip_annotations)
and the energy check read what the commands write, dump writes a
system as text for pinned digests (keyed_defs names its carry
definitions by variable), and binding, to_float and abs_mpv are MPValue
conveniences; no command needs them, so they live here rather than in
the package.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction

from bittune.constraints import ConstraintSystem, LinExpr
from bittune.interp import run_reference
from bittune.mpfloat import (
    DEFAULT_PRECISION, MPValue, parse_decimal, to_fraction,
)
from bittune.nbody import (
    BODY_ORDER, BenchConstants, build_nbody_program, horizon_t_max,
    load_bodies,
)
from bittune.parse import parse_program
from bittune.program import If, Program, While
from bittune.render import emit_annotated
from bittune.tuner import TuningReport, VerifyRow


def round_fraction(f: Fraction, p: int) -> Fraction:
    """Round an exact rational to p significant bits, nearest, ties to even."""
    if f == 0:
        return Fraction(0)
    sign = 1 if f > 0 else -1
    a = abs(f)
    e = a.numerator.bit_length() - a.denominator.bit_length()
    if Fraction(2) ** e > a:
        e -= 1
    elif Fraction(2) ** (e + 1) <= a:
        e += 1
    assert Fraction(2) ** e <= a < Fraction(2) ** (e + 1)
    q = e - p + 1                         # weight of the last retained bit
    scaled = a / Fraction(2) ** q
    n, r = divmod(scaled.numerator, scaled.denominator)
    frac = Fraction(r, scaled.denominator)
    if frac > Fraction(1, 2) or (frac == Fraction(1, 2) and n % 2 == 1):
        n += 1
    return sign * n * Fraction(2) ** q


def fraction_ufp(f: Fraction) -> int:
    """floor(log2 |f|) by pure integer arithmetic."""
    a = abs(f)
    e = a.numerator.bit_length() - a.denominator.bit_length()
    if Fraction(2) ** e > a:
        e -= 1
    elif Fraction(2) ** (e + 1) <= a:
        e += 1
    return e


def random_mpv(rng: random.Random, max_prec: int = 120,
               exp_span: int = 80) -> MPValue:
    """A random normalized value: top mantissa bit set, random width."""
    p = rng.randint(1, max_prec)
    mant = rng.getrandbits(p) | (1 << (p - 1))
    exp = rng.randint(-exp_span, exp_span)
    sign = rng.choice((1, -1))
    return MPValue(sign, mant, exp, p)


def binding(**texts: str) -> dict[str, MPValue]:
    """A samples set as the command line reads it at the default --pref:
    each decimal string correctly rounded to DEFAULT_PRECISION bits."""
    return {name: parse_decimal(text, DEFAULT_PRECISION)
            for name, text in texts.items()}


def to_float(x: MPValue) -> float:
    """x as the nearest double, through its exact rational value."""
    return float(to_fraction(x))


def abs_mpv(x: MPValue) -> MPValue:
    return x if x.sign > 0 else -x


def loops(stmts):
    """Every while statement in stmts, nested ones included, outermost
    first."""
    for st in stmts:
        if isinstance(st, While):
            yield st
            yield from loops(st.body)
        elif isinstance(st, If):
            yield from loops(st.then_body)
            yield from loops(st.else_body)


def in_loop(prog, point: int) -> bool:
    """Whether the control point lies in the body of some while loop."""
    return any(point in w.body_points for w in loops(prog.stmts))


# A loop and a branch that several test modules run.
LOOP = """\
t = 0.0;
x = 1.0;
while (t < 4.0) {
    x = x * 0.5;
    t = t + 1.0;
}
require_nsb(x, 20);
"""

BRANCH = """\
a = 2.0;
if (a > 1.0) {
    b = a + 1.0;
} else {
    b = a - 1.0;
}
c = b * b;
"""


_BINOPS = ("+", "-", "*", "/")


def gen_straight_line(rng: random.Random, max_ops: int = 6,
                      req_range: tuple[int, int] = (5, 40)) -> str:
    """A random straight-line program ending in one require_nsb.

    Guards keep every intermediate rounding analysis-friendly: no exact
    or near cancellation (which would make a result's leading exponent
    depend on low-order bits), no division by near-zero, no square root
    of a non-positive value, and magnitudes boxed so chains of products
    cannot run away.
    """
    src: list[str] = []
    names: list[str] = []
    approx: dict[str, float] = {}

    def fresh_literal() -> str:
        v = round(rng.uniform(0.1, 10.0), rng.randint(1, 6))
        if v == 0.0:
            v = 1.5
        v *= rng.choice((1, -1))
        name = f"v{len(names)}"
        src.append(f"{name} = {v!r};")
        names.append(name)
        approx[name] = float(v)
        return name

    fresh_literal()
    fresh_literal()

    for _ in range(rng.randint(1, max_ops)):
        op = rng.choice(_BINOPS + ("sqrt",))
        a = rng.choice(names)
        name = f"v{len(names)}"
        if op == "sqrt":
            if approx[a] <= 0:
                op = "+"
            else:
                src.append(f"{name} = sqrt({a});")
                names.append(name)
                approx[name] = math.sqrt(approx[a])
                continue
        b = rng.choice(names)
        va, vb = approx[a], approx[b]
        scale = max(abs(va), abs(vb), 1e-9)
        if op in ("+", "-"):
            result = va + vb if op == "+" else va - vb
            if abs(result) < 1e-3 * scale:
                op = "*"
        if op == "/" and abs(vb) < 1e-6:
            op = "*"
        if op == "*" and abs(va * vb) > 1e9:
            op = "-" if abs(va - vb) >= 1e-3 * scale else "/"
        value = {"+": lambda: va + vb, "-": lambda: va - vb,
                 "*": lambda: va * vb, "/": lambda: va / vb}[op]()
        src.append(f"{name} = {a} {op} {b};")
        names.append(name)
        approx[name] = value

    req = rng.randint(*req_range)
    src.append(f"require_nsb({names[-1]}, {req});")
    return "\n".join(src) + "\n"


# --- readers of what the commands write ------------------------------

def report_from_json(text: str) -> TuningReport:
    """The TuningReport that to_json wrote as text; a report written
    without timings reads with no stages."""
    raw = json.loads(text)
    raw.setdefault("stages", {})
    rows = [VerifyRow(**r) for r in raw.pop("verification")]
    return TuningReport(verification=rows, **raw)


def parse_solution(text: str) -> dict[str, int]:
    """Read 'name = value' lines, one per LP variable; '#' starts a
    comment."""
    values: dict[str, int] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed solution line {raw!r}")
        name, _, val = line.partition("=")
        values[name.strip()] = int(val.strip())
    return values


def check_solution(system: ConstraintSystem,
                   named: dict[str, int]) -> tuple[bool, int]:
    """(feasible, objective total) of an external solution for the
    system, every defined carry at 1 (the LP export's policy): named
    gives every other variable by name, and each row is checked with
    its defined carries read as 1."""
    defined = {x for x, _, _ in system.xi_defs}
    values = {}
    for i, v in enumerate(system.variables):
        if i in defined:
            continue
        if v.name not in named:
            raise ValueError(f"solution is missing variable {v.name}")
        values[i] = named[v.name]
    feasible = all(0 <= n <= system.pmax for n in values.values())
    rows = system.rows
    for left, need, terms in zip(rows.lhs, rows.const, rows.terms):
        need += sum(c * (1 if i in defined else values[i]) for c, i in terms)
        feasible &= (values[left] if left >= 0 else 0) >= need
    return feasible, sum(values[p] for p in range(system.points))


def keyed_defs(system: ConstraintSystem) -> list[tuple]:
    """The system's carry definitions as (carry, arg1, arg2), each
    argument a LinExpr, all named by the variables themselves."""
    vs = system.variables

    def expr(const, terms) -> LinExpr:
        return LinExpr(const, tuple((c, vs[i]) for c, i in terms))

    return [(vs[x], expr(*arg1), expr(*arg2))
            for x, arg1, arg2 in system.xi_defs]


def dump(system: ConstraintSystem) -> str:
    """The system as text: its objective and bounds, one row per line,
    then one line per carry definition."""
    lines = [f"minimize sum nsb over {system.points} points,"
             f" bounds [0, {system.pmax}]"]
    lines += [str(c) for c in system.constraints]
    lines += [f"{x} = min(max({arg1}, 0), max({arg2}, 0), 1)"
              for x, arg1, arg2 in keyed_defs(system)]
    return "\n".join(lines) + "\n"


_ANNOT_RE = re.compile(r"\|\d+\|")


def strip_annotations(text: str) -> str:
    return _ANNOT_RE.sub("", text)


def emit_plain(prog: Program) -> str:
    """Render the AST back to bare source text."""
    return emit_annotated(prog, None)


# --- five-body energy ------------------------------------------------

def total_energy(env) -> float:
    """Kinetic plus pairwise potential energy of a program environment.

    env maps variable names to interpreter values; masses, positions
    and velocities are read back under the same names the builder
    emits.  With the benchmark's units the result is in
    solar-mass AU^2 / year^2 and G = 1.
    """

    def f(name: str) -> float:
        return to_float(env[name])

    names = [b for b in BODY_ORDER]
    e = 0.0
    for b in names:
        if f"vx{b}" in env:
            v2 = f(f"vx{b}") ** 2 + f(f"vy{b}") ** 2 + f(f"vz{b}") ** 2
            e += 0.5 * f(f"mass{b}") * v2
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            dx = f(f"x{names[i]}") - f(f"x{names[j]}")
            dy = f(f"y{names[i]}") - f(f"y{names[j]}")
            dz = f(f"z{names[i]}") - f(f"z{names[j]}")
            r = math.sqrt(dx * dx + dy * dy + dz * dz)
            e -= f(f"mass{names[i]}") * f(f"mass{names[j]}") / r
    return e


def reference_energy_drift(years: float = 10.0, dt: str = "0.01",
                           pref: int = 200,
                           constants: BenchConstants | None = None) -> float:
    """|E(end) - E(start)| / |E(start)| for the reference integrator."""
    c = constants if constants is not None else load_bodies()
    start = run_reference(parse_program(build_nbody_program(c, dt, horizon_t_max(0, dt))), pref)
    end = run_reference(parse_program(build_nbody_program(c, dt, horizon_t_max(years, dt))), pref)
    e0 = total_energy(start.env)
    return abs(total_energy(end.env) - e0) / abs(e0)
