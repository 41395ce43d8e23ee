"""Arbitrary-precision binary floating point with an explicit significand width.

The arithmetic is written once, on triples (m, e, p): the value m * 2**e
held at width p, with m a signed int of exactly p bits (or m == 0 and
e == 0).  Every operation rounds to a caller-chosen width with
round-to-nearest, ties to even, in one routine, round_t, of which
add_t, sub_t and mul_t, the interpreter's most frequent operations,
keep inline copies: the call they save is a sizeable share of each.
Addition and multiplication are computed exactly on
integers before rounding; division and square root run integer
algorithms whose remainders give exact sticky information, so those are
correctly rounded as well.  The interpreter computes on triples inside a
pass.

MPValue is the boxed public value, sign * mant * 2**exp at width prec,
that everything outside a pass reads: traces, the tuner, the emitted
scripts.  Its functions (round_to, sqrt, arith and the comparisons)
unbox their operands, call the triple kernel and box the result.

The module also holds the runtime of the emitted mp scripts (``mp`` and
``mp_sqrt``, at the end).  It imports only the standard library, so a
script can carry a copy of it and run where bittune is not installed.
"""

from __future__ import annotations

import math
from decimal import Decimal

DEFAULT_PRECISION = 500


class MPDomainError(ArithmeticError):
    """Division by zero or square root of a negative value."""


class MPValue:
    """One binary floating-point value.  Treat instances as immutable."""

    __slots__ = ("sign", "mant", "exp", "prec")

    def __init__(self, sign: int, mant: int, exp: int, prec: int):
        self.sign = sign
        self.mant = mant
        self.exp = exp
        self.prec = prec

    def is_zero(self) -> bool:
        return self.mant == 0

    def __repr__(self) -> str:
        if self.mant == 0:
            return f"MPValue(0, prec={self.prec})"
        s = "-" if self.sign < 0 else ""
        return f"MPValue({s}{self.mant}*2**{self.exp}, prec={self.prec})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPValue):
            return NotImplemented
        return _cmp(self, other) == 0

    def __ne__(self, other) -> bool:
        if not isinstance(other, MPValue):
            return NotImplemented
        return _cmp(self, other) != 0

    def __lt__(self, other: "MPValue") -> bool:
        return _cmp(self, other) < 0

    def __le__(self, other: "MPValue") -> bool:
        return _cmp(self, other) <= 0

    def __gt__(self, other: "MPValue") -> bool:
        return _cmp(self, other) > 0

    def __ge__(self, other: "MPValue") -> bool:
        return _cmp(self, other) >= 0

    def __hash__(self) -> int:
        if self.mant == 0:
            return hash(0)
        tz = (self.mant & -self.mant).bit_length() - 1
        return hash((self.sign, self.mant >> tz, self.exp + tz))

    # Deferred expression building, used by generated mp scripts.  Arithmetic
    # with a target width goes through arith(); the operators only record
    # the operation so that mp(a + b, n) can round exactly once.
    def __add__(self, other):
        return defer("+", self, other)

    def __sub__(self, other):
        return defer("-", self, other)

    def __mul__(self, other):
        return defer("*", self, other)

    def __truediv__(self, other):
        return defer("/", self, other)

    def __neg__(self):
        return neg(self)


def zero(prec: int = DEFAULT_PRECISION) -> MPValue:
    return MPValue(1, 0, 0, prec)


def from_int(n: int, prec: int) -> MPValue:
    return box(round_t(n, 0, prec))


def from_float(f: float) -> MPValue:
    """Exact conversion; the precision is the significand's bit length."""
    if f == 0.0:
        return zero(1)
    m, e = math.frexp(abs(f))
    mant = int(m * (1 << 53))
    exp = e - 53
    tz = (mant & -mant).bit_length() - 1
    mant >>= tz
    exp += tz
    return MPValue(1 if f > 0 else -1, mant, exp, mant.bit_length())


def to_fraction(x: MPValue):
    from fractions import Fraction
    if x.mant == 0:
        return Fraction(0)
    f = Fraction(x.mant) * Fraction(2) ** x.exp
    return f if x.sign > 0 else -f


def ufp(x: MPValue) -> int:
    """Exponent of the leading significant bit: 2**ufp(x) <= |x| < 2**(ufp(x)+1)."""
    if x.mant == 0:
        raise ValueError("ufp of zero is undefined; callers use a sentinel")
    return x.exp + x.prec - 1


def neg(x: MPValue) -> MPValue:
    if x.mant == 0:
        return x
    return MPValue(-x.sign, x.mant, x.exp, x.prec)


# --- the arithmetic, on triples -------------------------------------------
#
# Each kernel takes and returns triples (m, e, p) and allocates one tuple
# per result, so a pass that keeps its values as triples builds no MPValue.


def box(t: tuple) -> MPValue:
    m, e, p = t
    return MPValue(-1, -m, e, p) if m < 0 else MPValue(1, m, e, p)


def unbox(x: MPValue) -> tuple:
    return (x.sign * x.mant, x.exp if x.mant else 0, x.prec)


def round_t(m: int, e: int, p: int) -> tuple:
    """Round m * 2**e (m any int) to p bits, nearest, ties to even.

    Division and square root fold an inexact remainder into m as one
    extra low bit (a sticky bit); they keep at least two more bits than
    p, so that bit lies below the half-ulp bit and only breaks ties."""
    drop = m.bit_length() - p
    if drop <= 0:
        if not m:
            return (0, 0, p)
        return (m << -drop, e + drop, p)
    x = -m if m < 0 else m
    q = x >> drop
    # Up when the first dropped bit is set and the tie is broken by a
    # lower dropped bit or an odd q.
    if x >> (drop - 1) & 1 and (q & 1 or x & ((1 << (drop - 1)) - 1)):
        q += 1
        if q >> p:                      # carried out: q == 2**p
            q >>= 1
            drop += 1
    return (-q if m < 0 else q, e + drop, p)


def cmp_t(a: tuple, b: tuple) -> int:
    """-1, 0 or 1 as a < b, a == b or a > b; exact at any widths."""
    ma, ea, pa = a
    mb, eb, pb = b
    if ma and mb and (ma < 0) == (mb < 0):
        ua, ub = ea + pa, eb + pb       # ufp + 1 of each
        if ua != ub:
            return 1 if (ua > ub) == (ma > 0) else -1
        # Same leading-bit weight: align the last bits and compare exactly.
        if ea > eb:
            ma <<= ea - eb
        elif eb > ea:
            mb <<= eb - ea
    # Otherwise a zero or opposite signs: the signs alone decide.
    return (ma > mb) - (ma < mb)


def neg_t(a: tuple, p: int) -> tuple:
    return round_t(-a[0], a[1], p)


def add_t(a: tuple, b: tuple, p: int) -> tuple:
    """a + b correctly rounded to p bits."""
    ma, ea, pa = a
    mb, eb, pb = b
    if not ma:
        return (mb, eb, p) if pb == p else round_t(mb, eb, p)
    if not mb:
        return a if pa == p else round_t(ma, ea, p)
    # Order by exponent so the shift is applied to the higher one.
    if ea < eb:
        ma, mb = mb, ma
        ea, eb = eb, ea
        pa, pb = pb, pa
    gap = ea - eb
    if gap <= p + pa + pb + 8:
        m = (ma << gap) + mb
        e = eb
    else:
        # b is far below any bit the rounding can keep: replace it with
        # a one-ulp nudge that preserves ordering and tie direction.
        g = p + 8
        m = (ma << g) + (1 if mb > 0 else -1)
        e = ea - g
    # round_t's rounding, inline, as in sub_t and mul_t.
    drop = m.bit_length() - p
    if drop <= 0:
        if not m:
            return (0, 0, p)
        return (m << -drop, e + drop, p)
    x = -m if m < 0 else m
    q = x >> drop
    if x >> (drop - 1) & 1 and (q & 1 or x & ((1 << (drop - 1)) - 1)):
        q += 1
        if q >> p:
            q >>= 1
            drop += 1
    return (-q if m < 0 else q, e + drop, p)


def sub_t(a: tuple, b: tuple, p: int) -> tuple:
    """a - b correctly rounded to p bits: add_t on a and -b, written out."""
    ma, ea, pa = a
    mb, eb, pb = b
    mb = -mb
    if not ma:
        return (mb, eb, p) if pb == p else round_t(mb, eb, p)
    if not mb:
        return a if pa == p else round_t(ma, ea, p)
    if ea < eb:
        ma, mb = mb, ma
        ea, eb = eb, ea
        pa, pb = pb, pa
    gap = ea - eb
    if gap <= p + pa + pb + 8:
        m = (ma << gap) + mb
        e = eb
    else:
        g = p + 8
        m = (ma << g) + (1 if mb > 0 else -1)
        e = ea - g
    drop = m.bit_length() - p
    if drop <= 0:
        if not m:
            return (0, 0, p)
        return (m << -drop, e + drop, p)
    x = -m if m < 0 else m
    q = x >> drop
    if x >> (drop - 1) & 1 and (q & 1 or x & ((1 << (drop - 1)) - 1)):
        q += 1
        if q >> p:
            q >>= 1
            drop += 1
    return (-q if m < 0 else q, e + drop, p)


def mul_t(a: tuple, b: tuple, p: int) -> tuple:
    # round_t's rounding, inline, as in add_t and sub_t.
    m = a[0] * b[0]
    e = a[1] + b[1]
    drop = m.bit_length() - p
    if drop <= 0:
        if not m:
            return (0, 0, p)
        return (m << -drop, e + drop, p)
    x = -m if m < 0 else m
    q = x >> drop
    if x >> (drop - 1) & 1 and (q & 1 or x & ((1 << (drop - 1)) - 1)):
        q += 1
        if q >> p:
            q >>= 1
            drop += 1
    return (-q if m < 0 else q, e + drop, p)


def div_t(a: tuple, b: tuple, p: int) -> tuple:
    ma, ea, pa = a
    mb, eb, pb = b
    if not mb:
        raise MPDomainError("division by zero")
    if not ma:
        return (0, 0, p)
    if mb < 0:
        ma, mb = -ma, -mb
    # A quotient of p + 2 or p + 3 bits, floored; a sticky bit below it.
    k = p + 2 - (pa - pb)
    if k >= 0:
        q, r = divmod(ma << k, mb)
    else:
        q, r = divmod(ma, mb << -k)
    return round_t(q << 1 | (r != 0), ea - eb - k - 1, p)


def sqrt_t(a: tuple, p: int) -> tuple:
    m, e, _ = a
    if not m:
        return (0, 0, p)
    if m < 0:
        raise MPDomainError("square root of a negative value")
    if e & 1:
        m <<= 1
        e -= 1
    # A root of at least p + 2 bits, floored; a sticky bit below it.
    t = p + 2 - (m.bit_length() + 1) // 2
    if t < 0:
        t = 0
    M = m << (2 * t)
    r = math.isqrt(M)
    return round_t(r << 1 | (M != r * r), e // 2 - t - 1, p)


# --- the same operations on MPValues ----------------------------------------


def round_to(x: MPValue, p: int) -> MPValue:
    """Correctly round x to p significand bits."""
    if p < 1:
        raise ValueError(f"precision must be >= 1, got {p}")
    return box(round_t(x.sign * x.mant, x.exp, p))


def _cmp(a: MPValue, b: MPValue) -> int:
    return cmp_t(unbox(a), unbox(b))


def sqrt(a: MPValue, p: int) -> MPValue:
    return box(sqrt_t(unbox(a), p))


_BINOPS = {"+": add_t, "-": sub_t, "*": mul_t, "/": div_t}


def arith(op: str, a: MPValue, b: MPValue, p: int) -> MPValue:
    """Correctly rounded a op b at p bits; op in + - * /."""
    f = _BINOPS.get(op)
    if f is None:
        raise ValueError(f"unknown operation {op!r}")
    return box(f(unbox(a), unbox(b), p))


def parse_decimal(text: str, p: int) -> MPValue:
    """Parse a decimal or scientific literal, correctly rounded to p bits."""
    s = text.strip()
    sign = 1
    if s.startswith(("+", "-")):
        if s[0] == "-":
            sign = -1
        s = s[1:]
    mant_part, exp10 = s, 0
    for marker in ("e", "E"):
        if marker in mant_part:
            mant_part, exp_part = mant_part.split(marker, 1)
            exp10 = int(exp_part)
            break
    if "." in mant_part:
        int_part, frac_part = mant_part.split(".", 1)
        exp10 -= len(frac_part)
        digits = int_part + frac_part
    else:
        digits = mant_part
    if not digits or not digits.isdigit():
        raise ValueError(f"malformed numeric literal {text!r}")
    d = sign * int(digits)
    if exp10 >= 0:
        return box(round_t(d * 10 ** exp10, 0, p))
    # value = d / (5**f * 2**f), one correctly rounded division.
    f = -exp10
    den = 5 ** f
    return box(div_t((d, 0, d.bit_length()), (den, f, den.bit_length()), p))


def format_decimal_exact(x: MPValue) -> str:
    """Exact decimal rendering (binary fractions are finite decimals).

    The digits come from Decimal(int), which is exact and, unlike
    str(int), has no limit on the number of digits."""
    if x.mant == 0:
        return "0"
    sign = "-" if x.sign < 0 else ""
    if x.exp >= 0:
        return sign + str(Decimal(x.mant << x.exp))
    n = x.mant * 5 ** -x.exp
    digits = str(Decimal(n))
    point = -x.exp
    if len(digits) <= point:
        digits = "0" * (point - len(digits) + 1) + digits
    int_part, frac_part = digits[:-point], digits[-point:]
    frac_part = frac_part.rstrip("0")
    if not frac_part:
        return sign + int_part
    return f"{sign}{int_part}.{frac_part}"


# --- mp-script runtime ---------------------------------------------------
#
# The emitted scripts (codegen.emit_mp_code) are plain Python over mp()
# and mp_sqrt().  This module imports nothing from the package, so a
# script can run from a bundled copy of this file where bittune is not
# importable.


class _Deferred:
    """One arithmetic operation recorded for a later single rounding."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: MPValue, right: MPValue):
        self.op = op
        self.left = left
        self.right = right


def defer(op: str, left, right) -> _Deferred:
    """Record one arithmetic operation for a later single rounding."""
    if not isinstance(left, MPValue) or not isinstance(right, MPValue):
        raise TypeError(
            "operands must be rounded values; wrap inner expressions in mp()")
    return _Deferred(op, left, right)


def mp(x, n: int) -> MPValue:
    """Round x to n significant bits (n < 1 behaves as 1)."""
    if n < 1:
        n = 1
    if isinstance(x, _Deferred):
        return arith(x.op, x.left, x.right, n)
    if isinstance(x, MPValue):
        return round_to(x, n)
    if isinstance(x, str):
        return parse_decimal(x, n)
    if isinstance(x, int):
        return round_to(from_int(x, n), n)
    raise TypeError(f"mp() cannot round {type(x).__name__}; "
                    f"pass a quoted literal or a rounded value")


def mp_sqrt(x: MPValue, n: int) -> MPValue:
    """Square root of a rounded value, correctly rounded to n bits."""
    if not isinstance(x, MPValue):
        raise TypeError("mp_sqrt takes a rounded value; wrap the argument in mp()")
    return sqrt(x, 1 if n < 1 else n)
