"""Exact Laurent and rational scalar arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qdet.errors import PoleAtSpecialization
from qdet.scalars import (LaurentScalar, RationalScalar, ZERO, ONE, Q, Q_INV,
                          QHAT, MINUS_Q, RAT_ONE, RAT_ZERO,
                          DegenerateSpecializationWarning,
                          minus_q_power, render_laurent)


def L(**terms):
    """Shorthand: L(e2=1, e0=-1) is q^2 - 1; em1 means exponent -1."""
    parsed = {}
    for key, c in terms.items():
        exp = int(key[1:].replace("m", "-"))
        parsed[exp] = Fraction(c)
    return LaurentScalar(parsed)


class TestLaurentBasics:
    def test_zero_terms_dropped(self):
        assert LaurentScalar({3: Fraction(0)}) == ZERO
        assert LaurentScalar({}) == ZERO
        assert not ZERO
        assert ONE

    def test_examples(self):
        assert Q + Q_INV == L(e1=1, em1=1)
        assert Q - Q_INV == QHAT
        assert Q * Q_INV == ONE
        assert (Q + ONE) * (Q - ONE) == L(e2=1, e0=-1)
        assert MINUS_Q == -Q

    def test_pow(self):
        assert Q ** 5 == L(e5=1)
        assert QHAT ** 2 == L(e2=1, e0=-2, em2=1)
        assert (Q + ONE) ** 0 == ONE
        with pytest.raises(ValueError):
            Q ** -1

    def test_minus_q_power(self):
        for k in range(-4, 5):
            want = ONE
            base = MINUS_Q if k >= 0 else MINUS_Q.unit_inverse()
            for _ in range(abs(k)):
                want = want * base
            assert minus_q_power(k) == want

    def test_unit_inverse(self):
        assert Q.unit_inverse() == Q_INV
        assert L(e3=2).unit_inverse() == L(em3=Fraction(1, 2))
        with pytest.raises(ValueError):
            QHAT.unit_inverse()

    def test_queries(self):
        a = L(e2=3, em1=-1)
        assert a.min_exp == -1 and a.max_exp == 2
        assert a.leading_coeff == 3
        assert not a.is_single_term
        assert Q.is_single_term and Q.single_term() == (1, 1)
        assert a.shift(2) == L(e4=3, e1=-1)

    def test_int_coercion(self):
        assert ONE + 1 == L(e0=2)
        assert Q * 2 == L(e1=2)
        assert Q - 1 == L(e1=1, e0=-1)
        assert LaurentScalar.from_rational(Fraction(2, 3)) == L(e0=Fraction(2, 3))


class TestDivision:
    """The long division behind RationalScalar's canonical form."""

    def test_long_division_oracle(self):
        # (q^2 - 1) / (q - 1) = q + 1
        r = RationalScalar(L(e2=1, e0=-1), L(e1=1, e0=-1))
        assert r.to_laurent() == L(e1=1, e0=1)

    def test_qhat_division(self):
        # (q - q^-1) divides q^2 - q^-2 with quotient q + q^-1
        assert (RationalScalar(L(e2=1, em2=-1), QHAT).to_laurent()
                == L(e1=1, em1=1))

    def test_inexact_raises(self):
        with pytest.raises(ValueError):
            RationalScalar(L(e2=1, e0=1), L(e1=1, e0=-1)).to_laurent()


class TestSpecialize:
    def test_values(self):
        assert QHAT.specialize(2) == Fraction(3, 2)
        assert L(e2=1, e0=-1).specialize(Fraction(1, 2)) == Fraction(-3, 4)

    def test_degenerate_warning(self):
        with pytest.warns(DegenerateSpecializationWarning):
            QHAT.specialize(1)
        with pytest.warns(DegenerateSpecializationWarning):
            Q.specialize(-1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Q_INV.specialize(0)


_scalars = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=4,
).map(LaurentScalar)


class TestLaurentProperties:
    @settings(max_examples=120, deadline=None)
    @given(_scalars, _scalars)
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @settings(max_examples=120, deadline=None)
    @given(_scalars, _scalars, _scalars)
    def test_associative_distributive(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=120, deadline=None)
    @given(_scalars, _scalars)
    def test_specialize_is_a_homomorphism(self, a, b):
        q0 = Fraction(7, 3)
        assert (a + b).specialize(q0) == a.specialize(q0) + b.specialize(q0)
        assert (a * b).specialize(q0) == a.specialize(q0) * b.specialize(q0)


class TestRationalScalar:
    def test_canonical_cancellation(self):
        # (q^2 - q) / (q - 1) reduces to q
        r = RationalScalar(L(e2=1, e1=-1), L(e1=1, e0=-1))
        assert r == RationalScalar.from_laurent(Q)
        assert r.to_laurent() == Q

    def test_denominator_normalized(self):
        # denominators are monic with lowest exponent zero
        r = RationalScalar(ONE, L(e3=2, e1=2))
        assert r.den == L(e2=1, e0=1)
        assert r.num == L(em1=Fraction(1, 2))

    def test_zero_denominator_rejected(self):
        with pytest.raises(Exception):
            RationalScalar(ONE, ZERO)

    def test_arithmetic(self):
        half = RationalScalar(ONE, Q - 1)
        other = RationalScalar(ONE, Q + 1)
        s = half + other
        # 1/(q-1) + 1/(q+1) = 2q/(q^2-1)
        assert s == RationalScalar(L(e1=2), L(e2=1, e0=-1))
        assert half * other == RationalScalar(ONE, L(e2=1, e0=-1))
        assert (half - half).is_zero
        assert half / half == RAT_ONE

    def test_inverse(self):
        r = RationalScalar(QHAT, Q + 1)
        assert (r * r.inverse()) == RAT_ONE
        with pytest.raises(Exception):
            RAT_ZERO.inverse()

    def test_round_trip(self):
        for a in (ZERO, ONE, QHAT, L(e2=1, em2=-1, e0=Fraction(1, 3))):
            assert RationalScalar.from_laurent(a).to_laurent() == a

    def test_to_laurent_rejects_true_fractions(self):
        with pytest.raises(ValueError):
            RationalScalar(ONE, Q + 1).to_laurent()

    def test_specialize_and_pole(self):
        r = RationalScalar(ONE, Q - 2)
        assert r.specialize(3) == 1
        with pytest.raises(PoleAtSpecialization):
            r.specialize(2)

    @settings(max_examples=80, deadline=None)
    @given(_scalars, _scalars)
    def test_from_laurent_multiplicative(self, a, b):
        lhs = RationalScalar.from_laurent(a) * RationalScalar.from_laurent(b)
        assert lhs == RationalScalar.from_laurent(a * b)

    @settings(max_examples=80, deadline=None)
    @given(_scalars, _scalars, _scalars)
    def test_field_laws(self, a, b, c):
        ra, rb, rc = (RationalScalar.from_laurent(x) for x in (a, b, c))
        assert ra * (rb + rc) == ra * rb + ra * rc
        if not rc.is_zero:
            assert (ra / rc) * rc == ra


class TestRendering:
    def test_examples(self):
        assert render_laurent(ZERO) == "0"
        assert render_laurent(ONE) == "1"
        assert render_laurent(QHAT) == "q - q^-1"
        assert render_laurent(L(e0=1, em2=-1)) == "1 - q^-2"
        assert render_laurent(L(e2=1)) == "q^2"
        assert render_laurent(-Q) == "-q"
        assert render_laurent(L(e1=Fraction(2, 3))) == "2/3*q"


class TestIntegerCoefficients:
    def test_specialize_negative_exponents_is_exact(self):
        a = LaurentScalar({-2: 3, 1: 1})
        got = a.specialize(2)
        assert type(got) is Fraction
        assert got == Fraction(11, 4)
        with pytest.warns(DegenerateSpecializationWarning):
            at_one = QHAT.specialize(1)
        assert type(at_one) is Fraction and at_one == 0
        assert type(Q_INV.specialize(-3)) is Fraction

    def test_unit_inverse_of_two_q(self):
        inv = LaurentScalar({1: 2}).unit_inverse()
        assert inv == LaurentScalar({-1: Fraction(1, 2)})
        assert type(Q.unit_inverse().terms[-1]) is int
        assert type(MINUS_Q.unit_inverse().terms[-1]) is int

    def test_integral_fraction_is_stored_as_int(self):
        a = LaurentScalar({0: Fraction(2)})
        b = LaurentScalar({0: 2})
        assert a == b and hash(a) == hash(b)
        assert type(a.terms[0]) is int
        assert type(LaurentScalar.from_rational(Fraction(6, 3)).terms[0]) is int

    def test_integral_results_of_fraction_arithmetic_are_ints(self):
        half = LaurentScalar({1: Fraction(1, 2), 0: Fraction(1, 3)})
        for r in (half * 2, half + half, half * LaurentScalar({0: 6}),
                  half - LaurentScalar({0: Fraction(-2, 3)})):
            assert all(type(c) is int for c in r.terms.values()
                       if c.denominator == 1)
        assert type((half * 6).terms[1]) is int

    def test_int_arithmetic_stays_int(self):
        a = QHAT ** 3 * (Q + 2) - minus_q_power(-3) * 5
        assert all(type(c) is int for c in a.terms.values())

    def test_rational_scalar_parts(self):
        r = RationalScalar(L(e2=2, e0=-2), L(e1=2, e0=2))
        assert r.num == L(e1=1, e0=-1) and r.den == ONE
        assert all(type(c) is int for c in r.num.terms.values())
