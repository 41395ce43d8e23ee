"""Value model: normalization, rounding, correctly rounded arithmetic.

Everything is checked against exact-rational oracles from helpers.py;
the gmpy2 cross-checks at the bottom are a second, independent belt.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from bittune import mpfloat
from bittune.mpfloat import (
    MPDomainError, MPValue, arith, from_float, from_int, parse_decimal,
    round_to, sqrt, to_fraction, ufp, zero,
)
from helpers import (
    abs_mpv, fraction_ufp, random_mpv, round_fraction, to_float,
)

# Strategy for normalized values: top mantissa bit set, width 1..120.
mpvalues = st.builds(
    lambda p, bits, exp, sign: MPValue(sign, bits | (1 << (p - 1)), exp, p),
    st.integers(1, 120), st.integers(0, 2**119), st.integers(-200, 200),
    st.sampled_from((1, -1)),
).map(lambda v: MPValue(v.sign, v.mant & ((1 << v.prec) - 1) | (1 << (v.prec - 1)), v.exp, v.prec))

precisions = st.integers(1, 80)


class TestInvariants:
    @given(mpvalues)
    def test_normalized(self, x):
        assert x.mant.bit_length() == x.prec

    @given(mpvalues)
    def test_ufp_law(self, x):
        f = abs(to_fraction(x))
        u = ufp(x)
        assert Fraction(2) ** u <= f < Fraction(2) ** (u + 1)
        assert u == fraction_ufp(f)

    def test_ufp_of_zero_rejected(self):
        with pytest.raises(ValueError):
            ufp(zero())

    @given(mpvalues, mpvalues)
    def test_comparisons_match_fractions(self, a, b):
        fa, fb = to_fraction(a), to_fraction(b)
        assert (a < b) == (fa < fb)
        assert (a == b) == (fa == fb)
        assert (a >= b) == (fa >= fb)

    @given(mpvalues)
    def test_hash_consistent_across_widths(self, x):
        widened = round_to(x, x.prec + 7)
        assert widened == x and hash(widened) == hash(x)


class TestRounding:
    @given(mpvalues, precisions)
    def test_round_matches_oracle(self, x, p):
        got = to_fraction(round_to(x, p))
        assert got == round_fraction(to_fraction(x), p)

    @given(mpvalues, precisions)
    def test_round_error_bound(self, x, p):
        f = to_fraction(x)
        err = abs(to_fraction(round_to(x, p)) - f)
        assert err <= Fraction(2) ** (ufp(x) - p)

    @given(mpvalues, precisions)
    def test_idempotent(self, x, p):
        once = round_to(x, p)
        assert to_fraction(round_to(once, p)) == to_fraction(once)

    @given(mpvalues, st.integers(0, 80))
    def test_widening_is_exact(self, x, extra):
        # The width is drawn relative to x's own: filtering a free draw
        # with assume() discarded so many examples that hypothesis's
        # health check failed the test now and then.
        p = x.prec + extra
        assert to_fraction(round_to(x, p)) == to_fraction(x)

    def test_ties_go_to_even(self):
        # 11 = 1011b sits halfway between 3-bit 10 (101b, odd) and
        # 12 (110b, even); 13 halfway between 12 (even) and 14 (odd).
        assert to_fraction(round_to(from_int(11, 4), 3)) == 12
        assert to_fraction(round_to(from_int(13, 4), 3)) == 12

    def test_carry_across_binade(self):
        # 15 = 1111b rounds up to 16, which needs a new leading bit.
        r = round_to(from_int(15, 4), 3)
        assert to_fraction(r) == 16 and r.mant.bit_length() == 3

    @given(mpvalues)
    def test_width_one_keeps_sign_and_binade(self, x):
        r = round_to(x, 1)
        assert r.sign == x.sign
        assert ufp(r) in (ufp(x), ufp(x) + 1)


class TestRoundingEdges:
    """The round-half-even step of round_t and its inline copies in
    add_t, sub_t and mul_t."""

    def test_round_up_carries_out_of_the_top_bit(self):
        # 7 * 9 = 63 = 111111b rounds up to 1000b at 3 bits, which needs
        # a new leading bit: the result is 100b * 2**4.
        r = arith("*", from_int(7, 3), from_int(9, 4), 3)
        assert (r.sign, r.mant, r.exp, r.prec) == (1, 4, 4, 3)
        r = arith("+", from_int(-62, 6), from_int(-1, 1), 3)
        assert (r.sign, r.mant, r.exp, r.prec) == (-1, 4, 4, 3)
        # +-7.75 = 111.11b rounds up to 1000b * 2 at 3 bits, in add_t
        # and in sub_t, for both signs and both operand orders.
        for x, op, y in _signed_orders(7, 0.75):
            r = arith(op, from_float(x), from_float(y), 3)
            assert (r.mant, r.exp, r.prec) == (4, 1, 3), (x, op, y)
            assert to_fraction(r) == round_fraction(
                _exact(op, Fraction(x), Fraction(y)), 3)

    def test_tie_to_even_carries_out_of_the_top_bit(self):
        # 15 = 1111b ties between 111b and 1000b at 3 bits; 111b is odd.
        for r in (arith("*", from_int(5, 3), from_int(3, 2), 3),
                  round_to(from_int(15, 4), 3),
                  arith("/", from_int(15, 4), from_int(1, 1), 3)):
            assert (r.mant, r.exp, r.prec) == (4, 2, 3)
        # +-15 as 14 + 1 and as 16 - 1, in add_t and in sub_t, for both
        # signs and both operand orders.
        for big, small in ((14, 1), (16, -1)):
            for x, op, y in _signed_orders(big, small):
                r = arith(op, from_float(x), from_float(y), 3)
                assert (r.mant, r.exp, r.prec) == (4, 2, 3), (x, op, y)
                assert to_fraction(r) == round_fraction(
                    _exact(op, Fraction(x), Fraction(y)), 3)

    def test_results_narrower_than_the_width_shift_up_exactly(self):
        # drop < 0 and drop == 0: no bit is dropped, nothing rounds.
        r = arith("*", from_int(3, 2), from_int(5, 3), 10)
        assert (r.mant, r.exp, r.prec) == (15 << 6, -6, 10)
        r = arith("*", from_int(3, 2), from_int(5, 3), 4)
        assert (r.mant, r.exp, r.prec) == (15, 0, 4)
        r = arith("+", from_int(3, 2), from_int(5, 3), 10)
        assert (r.mant, r.exp, r.prec) == (1 << 9, -6, 10)

    def test_width_one(self):
        # At one bit every nonzero value is a power of two, and its
        # mantissa 1 is odd: every tie rounds up, into the next binade.
        for x, y, want in ((3, 1, 4), (3, 2, 8), (5, 1, 4)):
            r = arith("*", from_int(x, x.bit_length()),
                      from_int(y, y.bit_length()), 1)
            assert to_fraction(r) == want

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_small_integers_against_the_oracle(self, p):
        for x in range(-40, 41):
            for y in range(1, 9):
                a, b = from_int(x, 7), from_int(y, 4)
                for op in "+-*/":
                    r = arith(op, a, b, p)
                    assert r.prec == p
                    assert r.mant == 0 or r.mant.bit_length() == p
                    assert to_fraction(r) == \
                        round_fraction(_exact(op, Fraction(x), Fraction(y)),
                                       p), (x, op, y, p)
                # The other operand order, where x, of either sign,
                # becomes the right operand of add_t and sub_t.
                for op in "+-":
                    r = arith(op, b, a, p)
                    assert r.mant == 0 or r.mant.bit_length() == p
                    assert to_fraction(r) == \
                        round_fraction(_exact(op, Fraction(y), Fraction(x)),
                                       p), (y, op, x, p)


def _signed_orders(x, y):
    """(a, op, b) with a op b == +-(x + y), for + and -, with both
    operand orders and both signs."""
    for s in (1, -1):
        for a, b in ((s * x, s * y), (s * y, s * x)):
            yield a, "+", b
        yield s * x, "-", -s * y
        yield -s * y, "-", s * x


def _exact(op, fa, fb):
    if op == "+":
        return fa + fb
    if op == "-":
        return fa - fb
    if op == "*":
        return fa * fb
    return fa / fb


class TestArithmetic:
    @given(mpvalues, mpvalues, precisions, st.sampled_from("+-*/"))
    def test_correctly_rounded_against_rationals(self, a, b, p, op):
        fa, fb = to_fraction(a), to_fraction(b)
        if op == "/":
            assume(not b.is_zero())
        got = to_fraction(arith(op, a, b, p))
        assert got == round_fraction(_exact(op, fa, fb), p)

    @given(mpvalues, precisions)
    def test_sqrt_bracketed_by_squares(self, a, p):
        a = abs_mpv(a)
        r = sqrt(a, p)
        fa, fr = to_fraction(a), to_fraction(r)
        half_ulp = Fraction(2) ** (ufp(r) - p)
        # Correct rounding puts the true root within half an ulp; at an
        # exact halfway point the library must have picked evenly.
        lo, hi = fr - half_ulp, fr + half_ulp
        assert lo * lo <= fa or fr * fr <= fa
        assert fa <= hi * hi or fa <= fr * fr
        if fa == lo * lo or fa == hi * hi:
            assert r.mant % 2 == 0

    @given(mpvalues, mpvalues, precisions)
    def test_add_commutes(self, a, b, p):
        assert to_fraction(arith("+", a, b, p)) == \
            to_fraction(arith("+", b, a, p))

    @given(mpvalues, precisions)
    def test_sub_self_is_exact_zero(self, a, p):
        assert arith("-", a, a, p).is_zero()

    def test_division_by_zero(self):
        with pytest.raises(MPDomainError):
            arith("/", from_int(1, 10), zero(), 10)

    def test_sqrt_of_negative(self):
        with pytest.raises(MPDomainError):
            sqrt(from_int(-4, 10), 10)

    def test_sqrt_of_zero(self):
        assert sqrt(zero(), 10).is_zero()

    @given(mpvalues, mpvalues)
    def test_neg_and_abs(self, a, b):
        assert to_fraction(mpfloat.neg(a)) == -to_fraction(a)
        assert to_fraction(abs_mpv(a)) == abs(to_fraction(a))


# Triples (m, e, p), the form the kernels compute on: m * 2**e at width p.
def _triple(p, bits, exp, sign):
    return (sign * (bits & ((1 << p) - 1) | 1 << (p - 1)), exp, p)


triples = st.builds(_triple, st.integers(1, 120), st.integers(0, 2**119),
                    st.integers(-200, 200), st.sampled_from((1, -1)))
zeros = st.builds(lambda p: (0, 0, p), st.integers(1, 120))
_KERNELS = {"+": mpfloat.add_t, "-": mpfloat.sub_t, "*": mpfloat.mul_t,
            "/": mpfloat.div_t}


def _frac(t):
    return Fraction(t[0]) * Fraction(2) ** t[1]


def _check_triple(t, p, want):
    """t is the canonical triple of want at width p."""
    m, e, w = t
    assert w == p
    assert abs(m).bit_length() == p if m else e == 0
    assert _frac(t) == want


class TestTripleCore:
    """The kernels on triples, where the MPValue strategy above rarely or
    never goes: zeros, add's far-gap nudge, operands of unequal widths."""

    @given(st.one_of(triples, zeros), zeros, precisions,
           st.sampled_from("+-*/"))
    def test_zero_operands(self, a, z, p, op):
        kernel = _KERNELS[op]
        if op == "/":
            with pytest.raises(MPDomainError):
                kernel(a, z, p)
        else:
            _check_triple(kernel(a, z, p), p,
                          round_fraction(_exact(op, _frac(a), 0), p))
        if op != "/" or a[0]:
            _check_triple(kernel(z, a, p), p,
                          round_fraction(_exact(op, 0, _frac(a)), p))

    @given(triples, st.integers(0, 60), precisions)
    def test_zero_results_carry_the_width(self, a, extra, p):
        # The same value at a wider width, subtracted or negated and added.
        m, e, w = a
        wide = (m << extra, e - extra, w + extra)
        for t in (mpfloat.sub_t(a, wide, p), mpfloat.sub_t(wide, a, p),
                  mpfloat.add_t(a, mpfloat.neg_t(wide, w + extra), p),
                  mpfloat.mul_t(a, (0, 0, w), p),
                  mpfloat.div_t((0, 0, w), a, p),
                  mpfloat.sqrt_t((0, 0, w), p)):
            assert t == (0, 0, p)

    @given(st.integers(1, 60), st.integers(1, 60), precisions,
           st.integers(1, 40), st.integers(0, 2**59), st.integers(0, 2**59),
           st.sampled_from((1, -1)), st.sampled_from((1, -1)),
           st.sampled_from(("any", "power of two", "tie", "carry")))
    def test_far_gap_nudge(self, pa, pb, p, past, abits, bbits, sa, sb,
                           shape):
        # b lies below every bit of the sum that rounding to p can keep:
        # it only decides a tie (a then has p + 1 bits, the last one set),
        # a tie that carries out of the top bit (all p + 1 bits set) or
        # pulls a power of two into the binade below.
        if shape == "tie":
            pa, abits = p + 1, abits | 1
        if shape == "carry":
            pa, abits = p + 1, (1 << p + 1) - 1
        a = _triple(pa, 0 if shape == "power of two" else abits, 0, sa)
        gap = p + pa + pb + 8 + past
        b = _triple(pb, bbits, -gap, sb)
        for x, y in ((a, b), (b, a)):
            for op in "+-":
                _check_triple(_KERNELS[op](x, y, p), p, round_fraction(
                    _exact(op, _frac(x), _frac(y)), p))

    @given(triples, triples, st.integers(1, 80), precisions,
           st.sampled_from("+-*/"))
    def test_unequal_widths(self, a, b, extra, p, op):
        # b widened exactly by extra bits: the same value, another width.
        m, e, w = b
        wide = (m << extra, e - extra, w + extra)
        for y in (b, wide):
            _check_triple(_KERNELS[op](a, y, p), p,
                          round_fraction(_exact(op, _frac(a), _frac(b)), p))
        assert mpfloat.cmp_t(b, wide) == mpfloat.cmp_t(wide, b) == 0
        assert mpfloat.cmp_t(a, b) == (_frac(a) > _frac(b)) - (_frac(a) < _frac(b))

    @given(st.one_of(mpvalues, st.builds(zero, st.integers(1, 120))),
           st.one_of(mpvalues, st.builds(zero, st.integers(1, 120))),
           precisions)
    def test_mpvalue_adapters_agree_with_the_kernels(self, a, b, p):
        ta, tb = mpfloat.unbox(a), mpfloat.unbox(b)

        def same(x, t):
            m, e, w = t
            assert (x.sign, x.mant, x.exp, x.prec) == \
                (-1 if m < 0 else 1, abs(m), e, w)

        for op in "+-*/":
            if op == "/" and not b.mant:
                continue
            same(mpfloat.arith(op, a, b, p), _KERNELS[op](ta, tb, p))
        same(round_to(a, p), mpfloat.round_t(ta[0], ta[1], p))
        same(round_to(mpfloat.neg(a), p), mpfloat.neg_t(ta, p))
        if a.sign > 0 or not a.mant:
            same(sqrt(a, p), mpfloat.sqrt_t(ta, p))
        assert mpfloat._cmp(a, b) == mpfloat.cmp_t(ta, tb)
        assert mpfloat.box(ta) == a and mpfloat.unbox(mpfloat.box(ta)) == ta


class TestConversions:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_round_trip(self, f):
        assert to_float(from_float(f)) == f

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_from_float_is_exact(self, f):
        assert to_fraction(from_float(f)) == Fraction(f)

    @given(mpvalues)
    def test_exact_decimal_round_trip(self, x):
        text = mpfloat.format_decimal_exact(x)
        back = parse_decimal(text, x.prec)
        assert to_fraction(back) == to_fraction(x)

    @given(st.floats(allow_nan=False, allow_infinity=False,
                     allow_subnormal=False))
    def test_parse_agrees_with_float(self, f):
        # Python's float() is itself a correctly rounded decimal reader,
        # so at 53 bits the two parsers must agree on float reprs.
        assume(f != 0.0)
        assert to_fraction(parse_decimal(repr(f), 53)) == Fraction(f)

    def test_parse_benchmark_spellings(self):
        assert to_fraction(parse_decimal("6.9046E-5", 60)) == \
            round_fraction(Fraction(69046, 10**9), 60)
        assert to_fraction(parse_decimal("-0.10362204", 60)) == \
            round_fraction(Fraction(-10362204, 10**8), 60)
        assert to_fraction(parse_decimal("4.8414316", 30)) == \
            round_fraction(Fraction(48414316, 10**7), 30)

    @given(st.integers(-10**12, 10**12), precisions)
    def test_parse_integer_strings(self, n, p):
        assert to_fraction(parse_decimal(str(n), p)) == round_fraction(Fraction(n), p)


class TestGmpyBelt:
    """Independent cross-check against a C multiprecision library."""

    @pytest.fixture(autouse=True)
    def _gmpy2(self):
        self.gmpy2 = pytest.importorskip("gmpy2")

    def _to_mpfr(self, x, ctx):
        return self.gmpy2.mpfr(x.sign * x.mant, ctx.precision) * \
            self.gmpy2.mpfr(2, ctx.precision) ** x.exp

    def test_arith_matches_gmpy(self):
        g = self.gmpy2
        rng = random.Random(2024)
        ops = {"+": (add, lambda a, b: a + b), "-": (sub, lambda a, b: a - b),
               "*": (mul, lambda a, b: a * b), "/": (div, lambda a, b: a / b)}
        for _ in range(400):
            p = rng.randint(2, 90)
            a = random_mpv(rng, max_prec=p, exp_span=60)
            b = random_mpv(rng, max_prec=p, exp_span=60)
            name = rng.choice("+-*/")
            with g.context(precision=max(a.prec, b.prec, p) + 64):
                wide = g.context(precision=max(a.prec, b.prec) + 4)
                ga = self._to_mpfr(a, wide)
                gb = self._to_mpfr(b, wide)
            mine, theirs = ops[name]
            with g.context(precision=p):
                want = Fraction(g.mpq(theirs(ga, gb)))
            got = to_fraction(mine(a, b, p))
            assert got == want, (name, a, b, p)

    def test_sqrt_matches_gmpy(self):
        g = self.gmpy2
        rng = random.Random(2025)
        for _ in range(400):
            p = rng.randint(2, 90)
            a = abs_mpv(random_mpv(rng, max_prec=90, exp_span=60))
            with g.context(precision=a.prec + 4):
                ga = self._to_mpfr(a, g.get_context())
            with g.context(precision=p):
                want = Fraction(g.mpq(g.sqrt(ga)))
            assert to_fraction(sqrt(a, p)) == want, (a, p)
