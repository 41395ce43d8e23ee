"""Shared generators and independent oracles for the test suite.

The rounding oracle here deliberately repeats none of the library's
code: it rounds exact rationals with divmod arithmetic so that the two
implementations can only agree by both being right.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from bittune.mpfloat import MPValue
from bittune.program import If, While


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
