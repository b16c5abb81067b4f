"""Exact linear algebra over the Laurent coefficient field."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_poly
from qdet.algebra import MatrixShape, NCPoly, graded_dim, normal_form
from qdet.errors import BasisMismatch, DegreeTooLarge, ShapeMismatch
from qdet.linalg import (CoefficientVector, Echelon, LinearSolver,
                         component_basis, poly_row, rank,
                         row_normalized, span_membership)
from qdet.minors import Minor, minor_value
from qdet.scalars import (LaurentScalar, RationalScalar, ONE, Q, Q_INV,
                          RAT_ONE, RAT_ZERO)


def vec(p, basis):
    return CoefficientVector.from_poly(p, basis)


def monomial_vectors(basis):
    out = []
    for mono in basis.monomials:
        out.append(CoefficientVector(basis, {basis.index[mono.exps]: RAT_ONE}))
    return out


def combine(vectors, coeffs):
    acc = {}
    for c, v in zip(coeffs, vectors):
        for i, entry in v.coeffs.items():
            s = acc.get(i, RAT_ZERO) + c * entry
            if s.is_zero:
                acc.pop(i, None)
            else:
                acc[i] = s
    return acc


class TestBases:
    def test_component_basis(self, shape22):
        basis = component_basis(shape22, 3)
        assert len(basis) == graded_dim(shape22, 3) == 20
        for mono in basis.monomials:
            assert basis.monomials[basis.index[mono.exps]] == mono

    def test_guard(self, shape33):
        with pytest.raises(DegreeTooLarge):
            component_basis(shape33, 6, guard=10)

    def test_vector_round_trip(self, rng, shape33):
        basis = component_basis(shape33, 2)
        for _ in range(10):
            p = NCPoly.zero(shape33)
            while p.is_zero:
                p = random_poly(rng, shape33, max_degree=2)
                p = p.homogeneous_components().get(2, NCPoly.zero(shape33))
            v = vec(p, basis)
            assert v.to_poly() == p
            assert not v.is_zero
            assert len(v.entries) == len(basis)

    def test_degree_and_shape_guards(self, shape22, shape33):
        basis = component_basis(shape22, 2)
        with pytest.raises(BasisMismatch):
            vec(NCPoly.generator(shape22, 1, 1), basis)
        with pytest.raises(ShapeMismatch):
            vec(NCPoly.generator(shape33, 1, 1), basis)


class TestRank:
    def test_degree_two_example(self, shape22):
        basis = component_basis(shape22, 2)
        monos = monomial_vectors(basis)
        assert rank(monos) == 10
        dq = vec(minor_value(Minor(shape22, (1, 2), (1, 2))), basis)
        assert rank(monos + [dq]) == 10
        # drop the x[1,2]*x[2,1] basis line; the determinant restores it
        kept = [v for v in monos
                if v.coeffs != {basis.index[(0, 1, 1, 0)]: RAT_ONE}]
        assert rank(kept) == 9
        assert rank(kept + [dq]) == 10

    def test_empty_and_zero(self, shape22):
        basis = component_basis(shape22, 1)
        assert rank([]) == 0
        assert rank([CoefficientVector(basis, {})]) == 0

    def test_scaling_and_order_invariance(self, rng, shape33):
        basis = component_basis(shape33, 2)
        vs = []
        while len(vs) < 6:
            p = random_poly(rng, shape33, max_degree=2)
            p = p.homogeneous_components().get(2)
            if p is not None:
                vs.append(vec(p, basis))
        r = rank(vs)
        scaled = [CoefficientVector(
            basis, {i: c * RationalScalar.from_laurent(Q ** (k + 1))
                    for i, c in v.coeffs.items()})
            for k, v in enumerate(vs)]
        assert rank(scaled) == r
        assert rank(list(reversed(vs))) == r
        assert rank(vs + vs) == r


class TestMembership:
    def test_witness_recombines(self, rng, shape33):
        basis = component_basis(shape33, 2)
        spanning = []
        while len(spanning) < 5:
            p = random_poly(rng, shape33, max_degree=2)
            p = p.homogeneous_components().get(2)
            if p is not None:
                spanning.append(vec(p, basis))
        coeffs = [RationalScalar.from_laurent(Q),
                  RationalScalar(ONE, Q + 1),
                  RAT_ZERO,
                  RationalScalar.from_laurent(Q_INV - 1),
                  RAT_ONE]
        target = CoefficientVector(basis, combine(spanning, coeffs))
        witness = span_membership(target, spanning)
        assert witness is not None
        assert combine(spanning, witness) == target.coeffs

    def test_nonmember(self, shape22):
        basis = component_basis(shape22, 2)
        dq = vec(minor_value(Minor(shape22, (1, 2), (1, 2))), basis)
        only = vec(normal_form(shape22, ((1, 1), (2, 2))), basis)
        assert span_membership(dq, [only]) is None

    def test_zero_target(self, shape22):
        basis = component_basis(shape22, 1)
        monos = monomial_vectors(basis)
        zero = CoefficientVector(basis, {})
        assert span_membership(zero, monos) == [RAT_ZERO] * 4

    def test_pole_at_evaluation_point(self, shape22):
        # a witness with a pole at q = 2 is still found exactly
        basis = component_basis(shape22, 1)
        x11 = NCPoly.generator(shape22, 1, 1)
        row = vec(x11.scale(Q - 2), basis)
        target = vec(x11, basis)
        assert span_membership(target, [row]) == [RationalScalar(ONE, Q - 2)]


class TestEchelonInternals:
    def test_residue_detects_membership(self, shape22):
        basis = component_basis(shape22, 2)
        ech = Echelon()
        for mono in list(monomial_vectors(basis))[:4]:
            assert ech.insert(mono._laurent_row())
        member = {0: Q, 3: ONE - Q}
        outside = {0: ONE, 5: ONE}
        assert not ech.residue(member)
        assert ech.residue(outside)
        assert ech.rank == 4
        assert not ech.insert(member)
        assert ech.rank == 4


_int_entries = st.dictionaries(
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-3, max_value=3),
    max_size=3,
).map(LaurentScalar)

_int_rows = st.lists(
    st.dictionaries(st.integers(min_value=0, max_value=4), _int_entries,
                    max_size=4),
    max_size=7,
)


class TestIntegerRows:
    def test_poly_row_matches_the_coefficient_vector(self, rng, shape22):
        basis = component_basis(shape22, 2)
        for _ in range(10):
            p = random_poly(rng, shape22, max_terms=4, max_degree=2)
            p = p.homogeneous_components().get(2, NCPoly.zero(shape22))
            assert poly_row(p, basis) == CoefficientVector.from_poly(
                p, basis)._laurent_row()

    def test_poly_row_checks_shape_and_degree(self, shape22, shape33):
        basis = component_basis(shape22, 2)
        with pytest.raises(BasisMismatch):
            poly_row(NCPoly.generator(shape22, 1, 1), basis)
        with pytest.raises(ShapeMismatch):
            poly_row(NCPoly.generator(shape33, 1, 1) ** 2, basis)

    def test_row_normalized_strips_shift_content_and_sign(self):
        row = {3: LaurentScalar({2: -4, 0: 6}), 5: LaurentScalar({-1: 2})}
        out = row_normalized(row)
        assert out == {3: LaurentScalar({3: 2, 1: -3}),
                       5: LaurentScalar({0: -1})}
        assert all(type(c) is int for v in out.values()
                   for c in v.terms.values())

    def test_row_normalized_clears_fractions(self):
        row = {0: LaurentScalar({0: Fraction(1, 2)}),
               1: LaurentScalar({1: Fraction(-2, 3)})}
        out = row_normalized(row)
        assert out == {0: LaurentScalar({0: 3}), 1: LaurentScalar({1: -4})}
        assert all(type(c) is int for v in out.values()
                   for c in v.terms.values())

    def test_polynomial_content_is_kept(self):
        # (q + 1) divides both entries; only integer content is stripped
        row = {0: LaurentScalar({1: 2, 0: 2}), 1: LaurentScalar({2: 2, 1: 2})}
        assert row_normalized(row) == {0: LaurentScalar({1: 1, 0: 1}),
                                       1: LaurentScalar({2: 1, 1: 1})}

    @settings(max_examples=150, deadline=None)
    @given(_int_rows)
    def test_echelon_rank_matches_the_rational_solver(self, rows):
        ech = Echelon()
        solver = LinearSolver()
        grew = 0
        for row in rows:
            ech.insert(row)
            if solver.insert({k: RationalScalar.from_laurent(v)
                              for k, v in row.items() if v}):
                grew += 1
        assert ech.rank == grew
        for stored in ech.rows():
            for v in stored.values():
                assert all(type(c) is int for c in v.terms.values())
