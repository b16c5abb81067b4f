"""Exact linear algebra over the Laurent coefficient field."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_poly
from qdet.algebra import MatrixShape, NCPoly, graded_dim, normal_form
from qdet.errors import BasisMismatch, ShapeMismatch
from qdet.linalg import (Echelon, Span, component_basis, poly_row, rank,
                         row_normalized)
from qdet.minors import Minor, minor_value
from qdet.scalars import (LaurentScalar, RationalScalar, ONE, Q, Q_INV,
                          RAT_ZERO, ZERO)


def monomial_rows(basis):
    return [{i: ONE} for i in range(len(basis))]


def homogeneous_rows(rng, shape, degree, count):
    """`count` random nonzero degree-`degree` rows over that component."""
    basis = component_basis(shape, degree)
    rows = []
    while len(rows) < count:
        p = random_poly(rng, shape, max_degree=degree)
        p = p.homogeneous_components().get(degree)
        if p is not None:
            rows.append(poly_row(p, basis))
    return rows


def combine(rows, coeffs):
    """sum(c * row) over RationalScalar coefficients, zero entries dropped."""
    acc = {}
    for c, row in zip(coeffs, rows):
        for i, entry in row.items():
            s = acc.get(i, RAT_ZERO) + c * entry
            if s.is_zero:
                acc.pop(i, None)
            else:
                acc[i] = s
    return acc


def as_rational(row):
    return {i: RationalScalar.from_laurent(c) for i, c in row.items() if c}


def laurent_combine(rows, coeffs):
    """sum(c * row) over LaurentScalar coefficients, zero entries dropped."""
    acc = {}
    for c, row in zip(coeffs, rows):
        for i, entry in row.items():
            s = acc.get(i, ZERO) + c * entry
            if s.is_zero:
                acc.pop(i, None)
            else:
                acc[i] = s
    return acc


def express(target, spanning, width, base=None):
    return Span(spanning, width, base).express(target)


def recombines(witness, target, spanning):
    """den * target == sum(nums[i] * spanning[i]) exactly, with den != 0."""
    nums, den = witness
    return (not den.is_zero and len(nums) == len(spanning)
            and laurent_combine([target], [den])
            == laurent_combine(spanning, nums))


def gaussian_rank(rows):
    """Rank by textbook elimination with division in Q(q).

    The reference the fraction-free Echelon is compared against: rows
    over RationalScalar, each reduced by the stored row at its leading
    column until it vanishes or opens a new pivot.
    """
    pivots = {}
    for row in rows:
        row = as_rational(row)
        while row:
            col = min(row)
            stored = pivots.get(col)
            if stored is None:
                pivots[col] = row
                break
            fac = row[col] / stored[col]
            row = combine([row, stored], [ONE, -fac])
    return len(pivots)


class TestBases:
    def test_component_basis(self, shape22):
        basis = component_basis(shape22, 3)
        assert len(basis) == graded_dim(shape22, 3) == 20
        for mono in basis.monomials:
            assert basis.monomials[basis.index[mono.exps]] == mono


class TestRank:
    def test_degree_two_example(self, shape22):
        basis = component_basis(shape22, 2)
        monos = monomial_rows(basis)
        assert rank(monos) == 10
        dq = poly_row(minor_value(Minor(shape22, (1, 2), (1, 2))), basis)
        assert rank(monos + [dq]) == 10
        # drop the x[1,2]*x[2,1] basis line; the determinant restores it
        kept = [row for row in monos
                if row != {basis.index[(0, 1, 1, 0)]: ONE}]
        assert rank(kept) == 9
        assert rank(kept + [dq]) == 10

    def test_empty_and_zero(self):
        assert rank([]) == 0
        assert rank([{}]) == 0

    def test_scaling_and_order_invariance(self, rng, shape33):
        rows = homogeneous_rows(rng, shape33, 2, 6)
        r = rank(rows)
        scaled = [{i: c * Q ** (k + 1) for i, c in row.items()}
                  for k, row in enumerate(rows)]
        assert rank(scaled) == r
        assert rank(list(reversed(rows))) == r
        assert rank(rows + rows) == r


class TestMembership:
    def test_witness_recombines(self, rng, shape33):
        width = len(component_basis(shape33, 2))
        spanning = homogeneous_rows(rng, shape33, 2, 5)
        coeffs = [Q, Q + 1, LaurentScalar(), Q_INV - 1, ONE]
        target = laurent_combine(spanning, coeffs)
        witness = express(target, spanning, width)
        assert witness is not None
        assert recombines(witness, target, spanning)

    def test_nonmember(self, shape22):
        basis = component_basis(shape22, 2)
        dq = poly_row(minor_value(Minor(shape22, (1, 2), (1, 2))), basis)
        only = poly_row(normal_form(shape22, ((1, 1), (2, 2))), basis)
        assert express(dq, [only], len(basis)) is None

    def test_zero_target(self, shape22):
        basis = component_basis(shape22, 1)
        monos = monomial_rows(basis)
        nums, den = express({}, monos, len(basis))
        assert nums == [ZERO] * 4 and not den.is_zero

    def test_pole_at_evaluation_point(self, shape22):
        # a witness with a pole at q = 2 is still found exactly
        basis = component_basis(shape22, 1)
        x11 = NCPoly.generator(shape22, 1, 1)
        row = poly_row(x11.scale(Q - 2), basis)
        target = poly_row(x11, basis)
        (num,), den = express(target, [row], len(basis))
        assert num * (Q - 2) == den
        assert RationalScalar(num, den) == RationalScalar(ONE, Q - 2)


class TestEchelonInternals:
    def test_residue_detects_membership(self, shape22):
        basis = component_basis(shape22, 2)
        ech = Echelon()
        for row in monomial_rows(basis)[:4]:
            assert ech.insert(row)
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

#: rows have their columns below _WIDTH; membership puts provenance above
_WIDTH = 5

_int_row = st.dictionaries(st.integers(min_value=0, max_value=_WIDTH - 1),
                           _int_entries, max_size=4)

_int_rows = st.lists(_int_row, max_size=7)


class TestIntegerRows:
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
        for row in rows:
            ech.insert(row)
        assert ech.rank == gaussian_rank(rows)
        for stored in ech.rows():
            for v in stored.values():
                assert all(type(c) is int for c in v.terms.values())


class TestSpanMembership:
    @settings(max_examples=200, deadline=None)
    @given(_int_row, st.lists(_int_row, max_size=5))
    def test_none_exactly_when_the_rank_grows(self, target, spanning):
        witness = express(target, spanning, _WIDTH)
        grows = rank(spanning + [target]) > rank(spanning)
        assert (witness is None) == grows
        if witness is not None:
            assert recombines(witness, target, spanning)

    @settings(max_examples=200, deadline=None)
    @given(_int_row, st.lists(_int_row, max_size=4),
           st.lists(_int_row, max_size=3))
    def test_with_a_base_span(self, target, spanning, base_rows):
        base = Echelon()
        for row in base_rows:
            base.insert(row)
        before = dict(base.pivots)
        witness = express(target, spanning, _WIDTH, base=base)
        assert base.pivots == before
        grows = (rank(base_rows + spanning + [target])
                 > rank(base_rows + spanning))
        assert (witness is None) == grows
        if witness is not None:
            # den * target - sum(nums_i * s_i) lies in the base span
            nums, den = witness
            assert not den.is_zero and len(nums) == len(spanning)
            rest = laurent_combine([target] + spanning,
                                   [den] + [-n for n in nums])
            assert not base.residue(rest)

    def test_base_members_cost_nothing(self, shape22):
        basis = component_basis(shape22, 1)
        x = [poly_row(NCPoly.generator(shape22, 1, j), basis) for j in (1, 2)]
        base = Echelon()
        base.insert(x[1])
        target = {**x[0], **{k: c * Q for k, c in x[1].items()}}
        (num,), den = express(target, [x[0]], len(basis), base=base)
        assert num == den and not den.is_zero
        assert express(target, [x[0]], len(basis)) is None

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_int_row, max_size=4), st.lists(_int_row, max_size=5),
           st.lists(_int_row, max_size=3))
    def test_one_span_serves_every_target(self, spanning, targets, base_rows):
        base = Echelon()
        for row in base_rows:
            base.insert(row)
        shared = Span(spanning, _WIDTH, base)
        pivots = dict(shared.echelon.pivots)
        for target in targets:
            assert (shared.express(target)
                    == express(target, spanning, _WIDTH, base))
            assert shared.echelon.pivots == pivots


class TestEchelonCopy:
    def test_copy_is_independent(self, shape22):
        basis = component_basis(shape22, 1)
        ech = Echelon()
        ech.insert(monomial_rows(basis)[0])
        dup = ech.copy()
        assert dup.pivots == ech.pivots
        assert dup.insert(monomial_rows(basis)[1])
        assert (ech.rank, dup.rank) == (1, 2)
