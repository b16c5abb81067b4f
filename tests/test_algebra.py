"""Defining relations, PBW normal forms, grading, and the torus action."""

import math
import warnings
from fractions import Fraction

import pytest

from conftest import naive_normal_form, random_poly, random_word
from qdet.algebra import (MatrixShape, Monomial, NCPoly, TorusElement,
                          commutative_product, eigenvalue_of, graded_basis,
                          graded_dim, normal_form, q_commute_scalar,
                          render_poly)
from qdet.errors import IndexOutOfShape, ShapeMismatch, ZeroInput
from qdet.scalars import (LaurentScalar, RationalScalar, ONE, Q, Q_INV, QHAT,
                          RAT_ONE, DegenerateSpecializationWarning)


def gens22(shape22):
    x = lambda i, j: NCPoly.generator(shape22, i, j)
    return x(1, 1), x(1, 2), x(2, 1), x(2, 2)


class TestShape:
    def test_gen_indexing_round_trip(self, shape34):
        assert shape34.ngens == 12
        for idx in range(shape34.ngens):
            i, j = shape34.gen_at(idx)
            assert shape34.gen_index(i, j) == idx
        assert list(shape34.gens())[:5] == [(1, 1), (1, 2), (1, 3), (1, 4),
                                            (2, 1)]

    def test_out_of_shape(self, shape22):
        for bad in ((0, 1), (1, 0), (3, 1), (1, 3)):
            with pytest.raises(IndexOutOfShape):
                shape22.check(*bad)
        with pytest.raises(ShapeMismatch):
            NCPoly.generator(shape22, 1, 1) + NCPoly.generator(
                MatrixShape(2, 3), 1, 1)


class TestRelations:
    def test_row_and_column(self, shape22):
        a, b, c, d = gens22(shape22)
        assert a * b == (b * a).scale(Q)
        assert a * c == (c * a).scale(Q)
        assert b * d == (d * b).scale(Q)
        assert c * d == (d * c).scale(Q)

    def test_antidiagonal_commutes(self, shape22):
        _, b, c, _ = gens22(shape22)
        assert b * c == c * b

    def test_diagonal_pair(self, shape22):
        a, b, c, d = gens22(shape22)
        assert a * d - d * a == (b * c).scale(QHAT)

    def test_explicit_normal_forms(self, shape22):
        a, b, c, d = gens22(shape22)
        assert normal_form(shape22, [(2, 2), (1, 1)]) == \
            a * d - (b * c).scale(QHAT)
        assert normal_form(shape22, [(2, 1), (1, 2)]) == b * c
        assert normal_form(shape22, [(1, 2), (1, 1)]) == (a * b).scale(Q_INV)
        assert normal_form(shape22, []) == NCPoly.one(shape22)

    def test_nf_against_leftmost_oracle(self, rng, shape22, shape33):
        for shape, trials, max_len in ((shape22, 60, 6), (shape33, 60, 5)):
            for _ in range(trials):
                w = random_word(rng, shape, max_len)
                assert normal_form(shape, w).terms == \
                    naive_normal_form(shape, w), w

    def test_product_matches_word_concatenation(self, rng, shape33):
        for _ in range(30):
            w1 = random_word(rng, shape33, 3)
            w2 = random_word(rng, shape33, 3)
            lhs = normal_form(shape33, w1) * normal_form(shape33, w2)
            assert lhs == normal_form(shape33, w1 + w2)

    def test_associativity_sample(self, rng, shape33):
        for _ in range(10):
            a = random_poly(rng, shape33, max_degree=2)
            b = random_poly(rng, shape33, max_degree=2)
            c = random_poly(rng, shape33, max_degree=2)
            assert (a * b) * c == a * (b * c)

    def test_specialized_at_one_is_commutative(self, rng, shape33):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSpecializationWarning)
            for _ in range(15):
                a = random_poly(rng, shape33, max_degree=2)
                b = random_poly(rng, shape33, max_degree=2)
                lhs = (a * b).specialize(1)
                rhs = commutative_product(a.specialize(1), b.specialize(1))
                assert lhs == rhs


class TestGrading:
    def test_dims_match_stars_and_bars(self, shape22, shape33):
        for shape in (shape22, shape33):
            for d in range(6):
                want = math.comb(shape.ngens + d - 1, d) if d else 1
                assert graded_dim(shape, d) == want
                basis = graded_basis(shape, d)
                assert len(basis) == want
                assert len(set(basis)) == want
                assert all(mono.degree == d for mono in basis)

    def test_basis_order_descending_lex(self, shape22):
        basis = graded_basis(shape22, 2)
        exps = [mono.exps for mono in basis]
        assert exps == sorted(exps, reverse=True)
        assert exps[0] == (2, 0, 0, 0)
        assert exps[-1] == (0, 0, 0, 2)

    def test_bidegree_additive(self, rng, shape33):
        for _ in range(20):
            w1 = random_word(rng, shape33, 3)
            w2 = random_word(rng, shape33, 3)
            m1 = Monomial.from_word(shape33, w1)
            m2 = Monomial.from_word(shape33, w2)
            r1, c1 = m1.bidegree()
            r2, c2 = m2.bidegree()
            want = (tuple(a + b for a, b in zip(r1, r2)),
                    tuple(a + b for a, b in zip(c1, c2)))
            assert (m1 * m2).bidegree() == want
            # products of bihomogeneous polynomials stay bihomogeneous
            p = normal_form(shape33, w1) * normal_form(shape33, w2)
            if not p.is_zero:
                assert p.bidegree() == want

    def test_homogeneous_components(self, shape22):
        a, b, _, _ = gens22(shape22)
        p = a * b + a + NCPoly.scalar(shape22, Q)
        comps = p.homogeneous_components()
        assert sorted(comps) == [0, 1, 2]
        assert comps[2] == a * b
        assert sum(comps.values(), NCPoly.zero(shape22)) == p


class TestQCommuteScalar:
    def test_generator_pairs(self, shape22):
        a, b, c, d = gens22(shape22)
        assert q_commute_scalar(a, b) == RationalScalar.from_laurent(Q)
        assert q_commute_scalar(b, a) == RationalScalar.from_laurent(Q_INV)
        assert q_commute_scalar(b, c) == RAT_ONE
        assert q_commute_scalar(a, d) is None

    def test_powers_compound(self, shape22):
        a, b, _, _ = gens22(shape22)
        assert q_commute_scalar(a * a, b) == \
            RationalScalar.from_laurent(Q ** 2)

    def test_zero_rejected(self, shape22):
        with pytest.raises(ZeroInput):
            q_commute_scalar(NCPoly.zero(shape22), NCPoly.one(shape22))


class TestTorus:
    def test_action_on_generators(self, shape22):
        a, b, c, d = gens22(shape22)
        h = TorusElement(shape22, (Q, ONE), (Q_INV, ONE))
        assert h.act(a) == a
        assert h.act(b) == b.scale(Q)
        assert h.act(c) == c.scale(Q_INV)
        assert h.act(d) == d

    def test_weight_multiplies_over_letters(self, shape22):
        h = TorusElement(shape22, (Q, Q ** 2), (ONE, Q_INV))
        # x[1,1]*x[2,2]: alpha_1*beta_1 * alpha_2*beta_2 = q * q^2 q^-1 = q^2
        assert h.weight((1, 0, 0, 1)) == Q ** 2

    def test_action_is_multiplicative(self, rng, shape33):
        h = TorusElement(shape33, (Q, ONE, Q_INV), (Q ** 2, ONE, Q_INV))
        for _ in range(10):
            a = random_poly(rng, shape33, max_degree=2)
            b = random_poly(rng, shape33, max_degree=2)
            assert h.act(a * b) == h.act(a) * h.act(b)
            assert h.inverse().act(h.act(a)) == a

    def test_eigenvalue_of(self, shape22):
        a, b, c, d = gens22(shape22)
        h = TorusElement(shape22, (Q, ONE), (Q_INV, ONE))
        assert eigenvalue_of(h, b + NCPoly.zero(shape22) + b) == Q
        assert eigenvalue_of(h, a + d) == ONE
        assert eigenvalue_of(h, a + b) is None
        with pytest.raises(ZeroInput):
            eigenvalue_of(h, NCPoly.zero(shape22))

    def test_entries_must_be_units(self, shape22):
        with pytest.raises(ZeroInput):
            TorusElement(shape22, (QHAT, ONE), (ONE, ONE))
        with pytest.raises(ShapeMismatch):
            TorusElement(shape22, (Q,), (ONE, ONE))


class TestRendering:
    def test_examples(self, shape22):
        a, b, c, d = gens22(shape22)
        dq = a * d - (b * c).scale(Q)
        assert render_poly(dq) == "x[1,1]*x[2,2] - q*x[1,2]*x[2,1]"
        assert render_poly((a * a).scale(
            LaurentScalar({-2: Fraction(2, 3)}))) == "2/3*q^-2*x[1,1]^2"
        assert render_poly(NCPoly.zero(shape22)) == "0"
        assert render_poly(NCPoly.one(shape22)) == "1"
        assert render_poly(a + d.scale(QHAT)) == \
            "x[1,1] + (q - q^-1)*x[2,2]"
