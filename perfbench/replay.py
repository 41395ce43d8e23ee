"""Exact-rational replay of generated straight-line programs.

An interpreter written for the benchmark alone: values are `Fraction`s,
every rounding goes to nearest with ties to even through `divmod`, and
square roots are rounded from `math.isqrt`.  It shares no code with
bittune, so when it agrees with the tuned run bit for bit, both are
right or both are wrong in the same way.

Control points follow the language's documented numbering: operands
before their operator, the right-hand side before the assigned
variable, and one point for the variable read by `require_nsb`.  Free
inputs enter at the reference precision, as the interpreter binds them,
and are re-rounded where they are read.
"""

from __future__ import annotations

import math
from fractions import Fraction

PREF = 500


def ufp(x: Fraction) -> int:
    """floor(log2 |x|) for x != 0."""
    a = abs(x)
    e = a.numerator.bit_length() - a.denominator.bit_length()
    if a < Fraction(2) ** e:
        e -= 1
    return e


def round_bits(x: Fraction, p: int) -> Fraction:
    """x rounded to p significant bits, nearest, ties to even."""
    if x == 0:
        return x
    q = ufp(x) - p + 1                   # weight of the last kept bit
    scaled = abs(x) / Fraction(2) ** q
    n, r = divmod(scaled.numerator, scaled.denominator)
    twice = 2 * r
    if twice > scaled.denominator or (twice == scaled.denominator and n & 1):
        n += 1
    out = n * Fraction(2) ** q
    return out if x > 0 else -out


def sqrt_bits(x: Fraction, p: int) -> Fraction:
    """sqrt(x) rounded to p significant bits, nearest, ties to even."""
    if x == 0:
        return x
    if x < 0:
        raise ValueError("square root of a negative value")
    q = ufp(x) // 2 - p + 1              # ufp(sqrt x) = floor(ufp(x) / 2)
    scaled = x / Fraction(4) ** q        # sqrt(scaled) = sqrt(x) / 2^q
    m = math.isqrt(scaled.numerator // scaled.denominator)
    # Compare sqrt(scaled) with m + 1/2 by squaring: 4*scaled vs (2m+1)^2.
    lhs = 4 * scaled
    mid = Fraction((2 * m + 1) ** 2)
    if lhs > mid or (lhs == mid and m & 1):
        m += 1
    return m * Fraction(2) ** q


def _apply(op: str, a: Fraction, b: Fraction) -> Fraction:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / b


def run(prog, widths, binding=None):
    """Execute a gen.GenProgram; widths maps control point -> bits (a
    callable or a dict).  Returns {variable: Fraction}."""
    width = widths if callable(widths) else (lambda p: max(widths[p], 1))
    env = {name: round_bits(Fraction(text), PREF)
           for name, text in (binding or {}).items()}
    point = 0

    def ev(t):
        nonlocal point
        kind = t[0]
        if kind == "lit":
            v = round_bits(Fraction(t[1]), width(point))
        elif kind == "var":
            v = round_bits(env[t[1]], width(point))
        elif kind == "sqrt":
            a = ev(t[1])
            v = sqrt_bits(a, width(point))
        else:
            a = ev(t[2])
            b = ev(t[3])
            v = round_bits(_apply(t[1], a, b), width(point))
        point += 1
        return v

    for name, tree in prog.stmts:
        v = ev(tree)
        env[name] = round_bits(v, width(point))
        point += 1
    return env


def mp_to_fraction(v) -> Fraction:
    """An MPValue (read through its sign/mant/exp fields) as a Fraction."""
    f = Fraction(v.mant) * Fraction(2) ** v.exp
    return f if v.sign > 0 else -f


def to_mpvalue(mpfloat, x: Fraction, prec: int = PREF):
    """x, already representable in prec bits, as a normalized MPValue."""
    if x == 0:
        return mpfloat.MPValue(1, 0, 0, prec)
    q = ufp(x) - prec + 1
    mant = abs(x) / Fraction(2) ** q
    if mant.denominator != 1:
        raise ValueError("value is not representable at this precision")
    return mpfloat.MPValue(1 if x > 0 else -1, int(mant), q, prec)


def exec_script(text: str, mpfloat, binding_values: dict) -> dict:
    """Run an emitted mp script with the inputs pre-bound; returns its
    variables as Fractions."""
    ns = {name: to_mpvalue(mpfloat, v) for name, v in binding_values.items()}
    exec(compile(text, "<mp script>", "exec"), ns)
    return {k: mp_to_fraction(v) for k, v in ns.items()
            if isinstance(v, mpfloat.MPValue)}


def check_tuned(prog, report: dict, script: str, mpfloat) -> list[str]:
    """Problems found when replaying one tuned program, or [] if none.

    The replay at the solved widths must equal the emitted script's
    values for every variable, and the reference/tuned error it implies
    at each requirement must equal the error the report states."""
    problems = []
    nsb = {int(p): n for p, n in report["nsb"].items()}
    n_points = sum(_points(t) + 1 for _, t in prog.stmts) + 1
    if sorted(nsb) != list(range(n_points)):
        return [f"report covers {len(nsb)} points, replay numbers {n_points}"]
    binding = prog.samples[0] if prog.samples else None
    tuned = run(prog, nsb, binding)
    ref = run(prog, lambda p: PREF, binding)
    scripted = exec_script(script, mpfloat,
                           {k: tuned[k] for k in prog.inputs})
    for name, _ in prog.stmts:
        if scripted.get(name) != tuned[name]:
            problems.append(f"{name}: script {scripted.get(name)} != "
                            f"replay {tuned[name]}")
            break
    for row in report["verification"]:
        err = abs(ref[row["var"]] - tuned[row["var"]])
        stated = row["error"]
        if stated.startswith("2^"):
            agree = err != 0 and ufp(err) in (int(stated[2:]), int(stated[2:]) - 1)
        else:
            agree = float(err) == float(stated)
        if not agree:
            problems.append(f"require {row['var']}: report error {stated}, "
                            f"replay {float(err)!r}")
    return problems


def _points(t) -> int:
    if t[0] in ("lit", "var"):
        return 1
    if t[0] == "sqrt":
        return 1 + _points(t[1])
    return 1 + _points(t[2]) + _points(t[3])
