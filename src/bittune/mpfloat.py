"""Arbitrary-precision binary floating point with an explicit significand width.

Values are sign * mant * 2**exp with the significand normalized so that
``mant.bit_length() == prec`` (top bit set) for nonzero values.  Every
operation rounds to a caller-chosen width with round-to-nearest, ties to
even.  Addition and multiplication are computed exactly on integers before
rounding; division and square root run integer algorithms whose remainders
give exact sticky information, so those are correctly rounded as well.

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
    if n == 0:
        return zero(prec)
    sign = 1 if n > 0 else -1
    return _normalize(sign, abs(n), 0, prec)


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


def to_float(x: MPValue) -> float:
    if x.mant == 0:
        return 0.0
    r = round_to(x, 53)
    return math.ldexp(r.sign * r.mant, r.exp)


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


def ulp_exponent(x: MPValue) -> int:
    """ufp(x) - prec + 1, the weight of the last stored bit."""
    return ufp(x) - x.prec + 1


def neg(x: MPValue) -> MPValue:
    if x.mant == 0:
        return x
    return MPValue(-x.sign, x.mant, x.exp, x.prec)


def abs_(x: MPValue) -> MPValue:
    return x if x.sign > 0 else neg(x)


def _normalize(sign: int, mant: int, exp: int, prec: int, sticky: int = 0) -> MPValue:
    """Round sign * mant * 2**exp to prec bits, nearest-even; sticky
    marks nonzero bits below mant."""
    if mant == 0:
        return MPValue(1, 0, 0, prec)
    drop = mant.bit_length() - prec
    if drop <= 0:
        return MPValue(sign, mant << -drop, exp + drop, prec)
    q = mant >> drop
    # Up when the first dropped bit is set and the tie is broken by a
    # lower dropped bit, the sticky bit or an odd q.
    if mant >> (drop - 1) & 1 and (
            q & 1 or sticky or mant & ((1 << (drop - 1)) - 1)):
        q += 1
        if q >> prec:                   # carried out: q == 2**prec
            q >>= 1
            drop += 1
    return MPValue(sign, q, exp + drop, prec)


def round_to(x: MPValue, p: int) -> MPValue:
    """Correctly round x to p significand bits."""
    if p < 1:
        raise ValueError(f"precision must be >= 1, got {p}")
    if x.mant == 0:
        return zero(p)
    if x.prec == p:
        return x
    return _normalize(x.sign, x.mant, x.exp, p)


def _cmp(a: MPValue, b: MPValue) -> int:
    if a.mant == 0 and b.mant == 0:
        return 0
    if a.mant == 0:
        return -b.sign
    if b.mant == 0:
        return a.sign
    if a.sign != b.sign:
        return 1 if a.sign > b.sign else -1
    ua, ub = ufp(a), ufp(b)
    if ua != ub:
        mag = 1 if ua > ub else -1
        return mag * a.sign
    # Same leading-bit weight: align the last bits and compare exactly.
    ea, eb = a.exp, b.exp
    ma, mb = a.mant, b.mant
    if ea > eb:
        ma <<= ea - eb
    elif eb > ea:
        mb <<= eb - ea
    if ma == mb:
        return 0
    mag = 1 if ma > mb else -1
    return mag * a.sign


def add(a: MPValue, b: MPValue, p: int) -> MPValue:
    if a.mant == 0:
        return round_to(b, p)
    if b.mant == 0:
        return round_to(a, p)
    # Order by exponent so the shift is applied to the higher one.
    if a.exp < b.exp:
        a, b = b, a
    gap = a.exp - b.exp
    limit = p + a.prec + b.prec + 8
    A = a.sign * a.mant
    B = b.sign * b.mant
    if gap <= limit:
        S = (A << gap) + B
        e = b.exp
        sticky = 0
    else:
        # b is far below any bit the rounding can keep: replace it with a
        # one-ulp nudge that preserves ordering and tie direction.
        g = p + 8
        S = (A << g) + (1 if B > 0 else -1)
        e = a.exp - g
        sticky = 0
    if S == 0:
        return zero(p)
    sign = 1 if S > 0 else -1
    return _normalize(sign, abs(S), e, p, sticky)


def sub(a: MPValue, b: MPValue, p: int) -> MPValue:
    return add(a, neg(b), p)


def mul(a: MPValue, b: MPValue, p: int) -> MPValue:
    # _normalize's rounding, inline: mul is the most frequent operation.
    m = a.mant * b.mant
    if m == 0:
        return MPValue(1, 0, 0, p)
    drop = m.bit_length() - p
    if drop <= 0:
        return MPValue(a.sign * b.sign, m << -drop, a.exp + b.exp + drop, p)
    q = m >> drop
    if m >> (drop - 1) & 1 and (q & 1 or m & ((1 << (drop - 1)) - 1)):
        q += 1
        if q >> p:
            q >>= 1
            drop += 1
    return MPValue(a.sign * b.sign, q, a.exp + b.exp + drop, p)


def div(a: MPValue, b: MPValue, p: int) -> MPValue:
    if b.mant == 0:
        raise MPDomainError("division by zero")
    if a.mant == 0:
        return zero(p)
    k = p + 2 - (a.prec - b.prec)
    if k >= 0:
        num, den = a.mant << k, b.mant
    else:
        num, den = a.mant, b.mant << -k
    q, r = divmod(num, den)
    e = a.exp - b.exp - k
    return _normalize(a.sign * b.sign, q, e, p, sticky=1 if r else 0)


def sqrt(a: MPValue, p: int) -> MPValue:
    if a.mant == 0:
        return zero(p)
    if a.sign < 0:
        raise MPDomainError("square root of a negative value")
    m, e = a.mant, a.exp
    if e & 1:
        m <<= 1
        e -= 1
    t = p + 2 - (m.bit_length() + 1) // 2
    if t < 0:
        t = 0
    M = m << (2 * t)
    r = math.isqrt(M)
    rem = M - r * r
    return _normalize(1, r, e // 2 - t, p, sticky=1 if rem else 0)


_BINOPS = {"+": add, "-": sub, "*": mul, "/": div}


def arith(op: str, a: MPValue, b: MPValue | None, p: int) -> MPValue:
    """Correctly rounded operation at p bits; op in + - * / sqrt neg."""
    if op == "sqrt":
        return sqrt(a, p)
    if op == "neg":
        return round_to(neg(a), p)
    f = _BINOPS.get(op)
    if f is None:
        raise ValueError(f"unknown operation {op!r}")
    assert b is not None
    return f(a, b, p)


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
    d = int(digits)
    if d == 0:
        return zero(p)
    if exp10 >= 0:
        return _normalize(sign, d * 10 ** exp10, 0, p)
    # value = d / (2**f * 5**f): divide by 5**f exactly with a remainder
    # for sticky bits, and fold the 2**f into the binary exponent.
    f = -exp10
    den = 5 ** f
    k = p + 2 - (d.bit_length() - den.bit_length())
    if k >= 0:
        num, dden = d << k, den
    else:
        num, dden = d, den << -k
    q, r = divmod(num, dden)
    return _normalize(sign, q, -f - k, p, sticky=1 if r else 0)


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
