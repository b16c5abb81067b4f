"""Exact Laurent scalar arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qdet.scalars import (LaurentScalar, ZERO, ONE, Q, Q_INV, QHAT, MINUS_Q,
                          UNIT_RANGE, _laurent, minus_q_power,
                          render_laurent)


def L(**terms):
    """Shorthand: L(e2=1, e0=-1) is q^2 - 1; em1 means exponent -1."""
    parsed = {}
    for key, c in terms.items():
        exp = int(key[1:].replace("m", "-"))
        parsed[exp] = c
    return LaurentScalar(parsed)


class TestLaurentBasics:
    def test_zero_terms_dropped(self):
        assert LaurentScalar({3: 0}) == ZERO
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
        assert Q.unit_inverse() is Q_INV
        assert L(e3=-1).unit_inverse() == L(em3=-1)
        with pytest.raises(ValueError):
            QHAT.unit_inverse()

    def test_queries(self):
        a = L(e2=3, em1=-1)
        assert a.leading_coeff == 3
        assert not a.is_unit and not L(e1=2).is_unit
        assert MINUS_Q.is_unit and Q.is_unit
        assert a * Q ** 2 == L(e4=3, e1=-1)

    def test_int_coercion(self):
        assert ONE + 1 == L(e0=2)
        assert Q * 2 == L(e1=2)
        assert Q - 1 == L(e1=1, e0=-1)

    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(2), 0.5],
                             ids=["half", "integral-fraction", "float"])
    def test_only_int_coefficients(self, c):
        with pytest.raises(TypeError):
            LaurentScalar({1: c})
        with pytest.raises(TypeError):
            Q * c
        with pytest.raises(TypeError):
            Q + c


_scalars = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-5, max_value=5),
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


class TestRendering:
    def test_examples(self):
        assert render_laurent(ZERO) == "0"
        assert render_laurent(ONE) == "1"
        assert render_laurent(QHAT) == "q - q^-1"
        assert render_laurent(L(e0=1, em2=-1)) == "1 - q^-2"
        assert render_laurent(L(e2=1)) == "q^2"
        assert render_laurent(-Q) == "-q"
        assert render_laurent(L(e1=2), 3) == "2/3*q"
        assert render_laurent(L(e1=4, e0=-6, em1=1), 6) == \
            "2/3*q - 1 + 1/6*q^-1"
        assert render_laurent(L(e0=-6), 2) == "-3"


class TestIntegerCoefficients:
    def test_unit_inverse_of_two_q(self):
        """2*q is no unit of Z[q, q^-1]: its inverse is refused."""
        for c in (LaurentScalar({1: 2}), LaurentScalar({0: -3}), ZERO):
            with pytest.raises(ValueError, match="not a unit"):
                c.unit_inverse()
        assert MINUS_Q.unit_inverse() == -Q_INV

    def test_int_arithmetic_stays_int(self):
        a = QHAT ** 3 * (Q + 2) - minus_q_power(-3) * 5
        assert all(type(c) is int for c in a.terms.values())


class TestSharedUnits:
    """+-q^k for |k| <= UNIT_RANGE is one shared instance."""

    def test_products_of_units_are_the_shared_instances(self):
        assert UNIT_RANGE == 64
        assert Q * Q_INV is ONE
        assert -Q is MINUS_Q
        assert Q * Q * Q_INV is Q
        assert minus_q_power(1) is MINUS_Q and minus_q_power(0) is ONE

    @pytest.mark.parametrize("c", [1, -1])
    def test_every_unit_in_range_is_shared(self, c):
        for k in range(-UNIT_RANGE, UNIT_RANGE + 1):
            unit = _laurent({k: c})
            assert _laurent({k: c}) is unit
            assert unit.terms == {k: c} and unit == LaurentScalar({k: c})
            assert minus_q_power(k) is _laurent({k: (-1) ** k})

    @pytest.mark.parametrize("terms", [{0: 2}, {3: -2}, {65: 1},
                                       {-65: -1}, {1: 1, 0: 1}])
    def test_other_scalars_are_not_shared(self, terms):
        a = _laurent(dict(terms))
        assert a is not _laurent(dict(terms))
        assert a == LaurentScalar(terms)
