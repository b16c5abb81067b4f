"""The expression language and index-pair parsing."""

from fractions import Fraction

import pytest

from conftest import random_poly
from qdet.algebra import MatrixShape, NCPoly, render_poly
from qdet.errors import DegreeTooLarge, ExprSyntaxError
from qdet.minors import Minor, minor_value
from qdet.parser import parse_expression, parse_index_pair
from qdet.scalars import LaurentScalar, ONE, Q, Q_INV, QHAT


class TestExpressions:
    def test_determinant_both_spellings(self, shape22):
        direct = parse_expression("x[1,1]*x[2,2] - q*x[1,2]*x[2,1]", shape22)
        named = parse_expression("minor[1,2|1,2]", shape22)
        assert direct == named == minor_value(Minor(shape22, (1, 2), (1, 2)))

    def test_scalars_and_powers(self, shape22):
        x11 = NCPoly.generator(shape22, 1, 1)
        got = parse_expression("q^-2*(2/3)*x[1,1]^2", shape22)
        assert got == (x11 * x11).scale(LaurentScalar({-2: Fraction(2, 3)}))
        assert parse_expression("2/3", shape22) == \
            NCPoly.scalar(shape22, Fraction(2, 3))
        assert parse_expression("5", shape22) == NCPoly.scalar(shape22, 5)
        assert parse_expression("1 - q^-2", shape22) == \
            NCPoly.scalar(shape22, ONE - LaurentScalar({-2: 1}))
        assert parse_expression("(3*q)^-1", shape22) == \
            NCPoly.scalar(shape22, LaurentScalar({-1: Fraction(1, 3)}))

    def test_sums_products_parens(self, shape22):
        a = NCPoly.generator(shape22, 1, 1)
        d = NCPoly.generator(shape22, 2, 2)
        got = parse_expression("(x[1,1]+x[2,2])^2", shape22)
        assert got == (a + d) ** 2
        assert parse_expression("-x[1,1] + x[2,2]", shape22) == -a + d
        assert parse_expression("x[1,1] - x[2,2] - x[1,1]", shape22) == \
            -d  # left associative

    def test_empty_minor(self, shape22):
        assert parse_expression("minor[|]", shape22) == NCPoly.one(shape22)

    def test_whitespace_is_free(self, shape22):
        tight = parse_expression("q*x[1,2]-x[2,1]", shape22)
        loose = parse_expression("  q * x[ 1 , 2 ]  -  x[2,1] ", shape22)
        assert tight == loose

    def test_precedence(self, shape22):
        a = NCPoly.generator(shape22, 1, 1)
        got = parse_expression("2*x[1,1]^2", shape22)
        assert got == (a * a).scale(LaurentScalar({0: 2}))
        assert parse_expression("q + q*q", shape22) == \
            NCPoly.scalar(shape22, Q + Q * Q)


class TestErrors:
    @pytest.mark.parametrize("text,pos", [
        ("x[1,3]", 0),          # index outside a 2x2 shape
        ("minor[1,2|1]", 0),    # ragged index sets
        ("x[1,1] + + x[2,2]", 9),
        ("q^", 2),
        ("2/0", 2),
        ("x[1,1", 5),
        ("q q", 2),
        ("x[1,1] $", 7),
        ("xy", 0),
        ("x[1,1]^-1", 6),
        ("(x[1,1]+x[2,2])^-1", 15),
        ("", 0),
    ])
    def test_positions(self, shape22, text, pos):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression(text, shape22)
        assert err.value.pos == pos, err.value

    def test_minor_size_guard(self):
        full = ",".join(map(str, range(1, 10)))
        with pytest.raises(DegreeTooLarge, match="size-8 guard"):
            parse_expression("minor[%s|%s]" % (full, full), MatrixShape(9, 9))

    def test_message_carries_position(self, shape22):
        with pytest.raises(ExprSyntaxError, match=r"at position 3"):
            parse_expression("q ^", shape22)


class TestRoundTrips:
    def test_rendered_polynomials_parse_back(self, rng, shape22, shape33):
        for shape in (shape22, shape33):
            for _ in range(25):
                p = random_poly(rng, shape)
                assert parse_expression(render_poly(p), shape) == p

    def test_special_coefficients(self, shape22):
        x12 = NCPoly.generator(shape22, 1, 2)
        for c in (QHAT, -Q, Q_INV - 1, LaurentScalar({3: Fraction(-5, 2)})):
            p = x12.scale(c) + NCPoly.one(shape22)
            assert parse_expression(render_poly(p), shape22) == p


class TestIndexPairs:
    def test_examples(self):
        assert parse_index_pair("1,3|1,2") == ((1, 3), (1, 2))
        assert parse_index_pair(" 1 , 3 | 1 , 2 ") == ((1, 3), (1, 2))
        assert parse_index_pair("|1,2") == ((), (1, 2))
        assert parse_index_pair("1|") == ((1,), ())
        assert parse_index_pair("|") == ((), ())

    def test_errors(self):
        with pytest.raises(ExprSyntaxError, match="exactly one"):
            parse_index_pair("1|2|3")
        with pytest.raises(ExprSyntaxError, match="exactly one"):
            parse_index_pair("1,2")
        with pytest.raises(ExprSyntaxError, match="integer index"):
            parse_index_pair("1,a|2")
        with pytest.raises(ExprSyntaxError, match="integer index"):
            parse_index_pair("1,|2")
