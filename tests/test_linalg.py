"""Exact linear algebra over the Laurent coefficient field."""

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (express, int_row, laurent_row, random_poly, rank,
                      spans_clear, watch_images)
from qdet.algebra import (MatrixShape, NCPoly, _nf_mono_gen, graded_dim,
                          normal_form)
from qdet.errors import BasisMismatch, ShapeMismatch
from qdet.factor import ideal_component
from qdet.linalg import (Echelon, LocalColumns, _combine, _entry,
                         component_basis, generator_images,
                         generator_products, poly_row, row_normalized)
from qdet.minors import Minor, minor_value
from qdet.scalars import LaurentScalar, ONE, Q, Q_INV, ZERO


def monomial_rows(basis):
    return [{(i, 0): 1} for i in range(len(basis))]


def homogeneous_rows(rng, shape, degree, count):
    """`count` random nonzero degree-`degree` rows over that component."""
    basis = component_basis(shape, degree)
    rows = []
    while len(rows) < count:
        p = random_poly(rng, shape, max_degree=degree)
        terms = {e: c for e, c in p.terms.items() if sum(e) == degree}
        if terms:
            rows.append(poly_row(NCPoly(shape, terms), basis))
    return rows


def laurent_combine(rows, coeffs):
    """sum(c * row) over LaurentScalar coefficients, as a Laurent row
    {column: LaurentScalar} with zero entries dropped."""
    acc = {}
    for c, row in zip(coeffs, rows):
        for i, entry in laurent_row(row).items():
            s = acc.get(i, ZERO) + c * entry
            if s.is_zero:
                acc.pop(i, None)
            else:
                acc[i] = s
    return acc


def recombines(witness, target, spanning):
    """den * target == sum(nums[i] * spanning[i]) exactly, with den != 0."""
    nums, den = witness
    return (not den.is_zero and len(nums) == len(spanning)
            and laurent_combine([target], [den])
            == laurent_combine(spanning, nums))


def gaussian_rank(rows):
    """Rank of integer rows by textbook elimination with division in Q(q).

    The reference the fraction-free Echelon is compared against: entries
    are unreduced (num, den) pairs of Laurent polynomials, and each row is
    reduced by the stored row at its leading column, times the quotient
    of the two leading entries, until it vanishes or opens a new pivot.
    A pair is zero exactly when its numerator is, so the zero tests need
    no gcd and nothing is ever cancelled.
    """
    pivots = {}
    for row in rows:
        row = {i: (c, ONE) for i, c in laurent_row(row).items()}
        while row:
            col = min(row)
            stored = pivots.get(col)
            if stored is None:
                pivots[col] = row
                break
            (rn, rd), (sn, sd) = row[col], stored[col]
            fn, fd = rn * sd, rd * sn
            out = {}
            for i in row.keys() | stored.keys():
                an, ad = row.get(i, (ZERO, ONE))
                bn, bd = stored.get(i, (ZERO, ONE))
                num = an * fd * bd - fn * bn * ad
                if num:
                    out[i] = (num, ad * fd * bd)
            row = out
    return len(pivots)


class TestBases:
    def test_component_basis(self, shape22):
        basis = component_basis(shape22, 3)
        assert len(basis) == graded_dim(shape22, 3) == 20
        for e in basis.monomials:
            assert basis.monomials[basis.index[e]] == e


class TestRank:
    def test_degree_two_example(self, shape22):
        basis = component_basis(shape22, 2)
        monos = monomial_rows(basis)
        assert rank(monos) == 10
        dq = poly_row(minor_value(Minor(shape22, (1, 2), (1, 2))), basis)
        assert rank(monos + [dq]) == 10
        # drop the x[1,2]*x[2,1] basis line; the determinant restores it
        kept = [row for row in monos
                if row != {(basis.index[(0, 1, 1, 0)], 0): 1}]
        assert rank(kept) == 9
        assert rank(kept + [dq]) == 10

    def test_empty_and_zero(self):
        assert rank([]) == 0
        assert rank([{}]) == 0

    def test_scaling_and_order_invariance(self, rng, shape33):
        rows = homogeneous_rows(rng, shape33, 2, 6)
        r = rank(rows)
        scaled = [{(i, e + k + 1): c for (i, e), c in row.items()}
                  for k, row in enumerate(rows)]
        assert rank(scaled) == r
        assert rank(list(reversed(rows))) == r
        assert rank(rows + rows) == r


class TestMembership:
    def test_witness_recombines(self, rng, shape33):
        width = len(component_basis(shape33, 2))
        spanning = homogeneous_rows(rng, shape33, 2, 5)
        coeffs = [Q, Q + 1, LaurentScalar(), Q_INV - 1, ONE]
        target = int_row(laurent_combine(spanning, coeffs))
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


class TestEchelonInternals:
    def test_residue_detects_membership(self, shape22):
        basis = component_basis(shape22, 2)
        ech = Echelon()
        for row in monomial_rows(basis)[:4]:
            assert ech.insert(row)
        member = {(0, 1): 1, (3, 0): 1, (3, 1): -1}
        outside = {(0, 0): 1, (5, 0): 1}
        assert not ech.residue(member)
        assert ech.residue(outside)
        assert ech.rank == 4
        assert not ech.insert(member)
        assert ech.rank == 4


_int_entries = st.dictionaries(
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-3, max_value=3),
    max_size=3,
)

#: rows have their columns below _WIDTH
_WIDTH = 5

#: integer rows; a zero coefficient stays in, for insert to drop
_int_row = st.dictionaries(st.integers(min_value=0, max_value=_WIDTH - 1),
                           _int_entries, max_size=4).map(
    lambda cols: {(i, e): c for i, terms in cols.items()
                  for e, c in terms.items()})

_int_rows = st.lists(_int_row, max_size=7)


class TestIntegerRows:
    def test_poly_row_checks_shape_and_degree(self, shape22, shape33):
        basis = component_basis(shape22, 2)
        with pytest.raises(BasisMismatch):
            poly_row(NCPoly.generator(shape22, 1, 1), basis)
        with pytest.raises(ShapeMismatch):
            poly_row(NCPoly.generator(shape33, 1, 1)
                     * NCPoly.generator(shape33, 1, 1), basis)

    def test_local_columns_number_in_first_seen_order(self, shape22):
        columns = LocalColumns(shape22, 2)
        x = lambda i, j: NCPoly.generator(shape22, i, j)
        assert poly_row(x(1, 2) * x(2, 1), columns) == {(0, 0): 1}
        # x[2,2]*x[1,1] = x[1,1]*x[2,2] - (q - q^-1) x[1,2]*x[2,1]
        assert poly_row(x(2, 2) * x(1, 1), columns) == {
            (1, 0): 1, (0, 1): -1, (0, -1): 1}
        with pytest.raises(BasisMismatch):
            poly_row(x(1, 1), columns)
        assert len(columns.index) == 2

    def test_row_normalized_strips_shift_content_and_sign(self):
        row = {(3, 2): -4, (3, 0): 6, (5, -1): 2}
        out = row_normalized(row)
        assert out == {(3, 3): 2, (3, 1): -3, (5, 0): -1}
        assert all(type(c) is int for c in out.values())

    def test_polynomial_content_is_kept(self):
        # (q + 1) divides both entries; only integer content is stripped
        row = {(0, 1): 2, (0, 0): 2, (1, 2): 2, (1, 1): 2}
        assert row_normalized(row) == {(0, 1): 1, (0, 0): 1,
                                       (1, 2): 1, (1, 1): 1}

    @settings(max_examples=150, deadline=None)
    @given(_int_rows)
    def test_echelon_rank_matches_the_rational_solver(self, rows):
        """Rank, growth and membership agree with division in Q(q):
        residue(row) is empty exactly when the reference rank does not
        grow, and insert says True exactly when it does."""
        ech = Echelon()
        for k, row in enumerate(rows):
            grows = gaussian_rank(rows[:k + 1]) > gaussian_rank(rows[:k])
            assert (not ech.residue(row)) == (not grows)
            assert ech.insert(row) == grows
        assert ech.rank == gaussian_rank(rows)
        for stored in ech.rows():
            assert all(type(c) is int and c for c in stored.values())


class TestEchelonCopy:
    def test_copy_is_independent(self, shape22):
        basis = component_basis(shape22, 1)
        ech = Echelon()
        ech.insert(monomial_rows(basis)[0])
        dup = ech.copy()
        assert dup.pivots == ech.pivots
        assert dup.insert(monomial_rows(basis)[1])
        assert (ech.rank, dup.rank) == (1, 2)


class TestGeneratorImages:
    """Each generator image is the NCPoly product it stands for."""

    @pytest.mark.parametrize("m, n, top",
                             [(3, 3, 4), (4, 4, 3), (2, 3, 5), (3, 2, 3)])
    def test_images_are_the_products(self, m, n, top):
        """Right images are b * x_g; the left products generator_products
        reads through the reversal are x_g * b, also on non-square shapes,
        where rho is not a transpose."""
        shape = MatrixShape(m, n)
        gens = [NCPoly.generator(shape, a, b) for a, b in shape.gens()]
        for d in range(1, top + 1):
            dst = component_basis(shape, d)
            for i, e in enumerate(component_basis(shape, d - 1).monomials):
                right = generator_images(shape, d, i)
                products = list(generator_products(shape, d, [{(i, 0): 1}]))
                assert len(right) == len(gens)
                assert len(products) == 2 * len(gens)
                b = NCPoly(shape, {e: ONE})
                for g, x in enumerate(gens):
                    assert products[2 * g] == poly_row(x * b, dst)
                    assert products[2 * g + 1] == poly_row(b * x, dst)
                    it = iter(right[g])
                    assert {(j, f): c for j, f, c in zip(it, it, it)} \
                        == poly_row(b * x, dst)

    def test_reversal_reads_each_monomial_backwards(self):
        for m, n, d in ((2, 3, 3), (3, 2, 2), (3, 3, 2)):
            basis = component_basis(MatrixShape(m, n), d)
            rev = basis.reversal()
            for k, e in enumerate(basis.monomials):
                assert basis.monomials[rev[k]] == e[::-1]
                assert rev[rev[k]] == k

    def test_images_skip_the_product_memo(self, monkeypatch):
        # the rewriting the images read is not stored in _nf_mono_gen, the
        # left products read the right images only, each column's once,
        # and no image outlives the span build that made it
        shape = MatrixShape(3, 3)
        built = watch_images(monkeypatch)
        _nf_mono_gen.cache_clear()
        rows = monomial_rows(component_basis(shape, 2))
        products = list(generator_products(shape, 3, rows))
        assert len(products) == 2 * shape.ngens * len(rows)
        assert _nf_mono_gen.cache_info().currsize == 0
        assert sorted(key for key, _ in built) == [(3, i) for i in
                                                   range(len(rows))]
        built.clear()
        spans_clear()
        gamma = Minor(shape, (1, 3), (1, 2))
        ideal_component(gamma, 2)
        built.clear()
        ideal_component(gamma, 3)
        assert built and all(ref() is None for _, ref in built)

    def test_products_of_a_row(self):
        shape = MatrixShape(3, 3)
        src = component_basis(shape, 2)
        dst = component_basis(shape, 3)
        p = (minor_value(Minor(shape, (1, 2), (1, 3)))
             + minor_value(Minor(shape, (2, 3), (2, 3))).scale(Q))
        products = list(generator_products(shape, 3, [poly_row(p, src)]))
        expected = []
        for a, b in shape.gens():
            x = NCPoly.generator(shape, a, b)
            expected += [poly_row(x * p, dst), poly_row(p * x, dst)]
        assert [{k: c for k, c in row.items() if c} for row in products] \
            == expected


def insert_without_shortcut(pivots, row):
    """Echelon.insert with no equal-row shortcut, on a pivots dict.

    The reference for the shortcut: an equal row is always reduced to
    zero by a full combination.
    """
    row = row_normalized({k: c for k, c in row.items() if c})
    while row:
        col = min(row)[0]
        stored = pivots.get(col)
        if stored is None:
            pivots[col] = row
            return True
        fac, piv = _entry(row, col), _entry(stored, col)
        if len(fac) < len(piv):
            pivots[col] = row
            row = stored
            continue
        row = _combine(row, stored, col, fac, piv)
    return False


#: a fresh row, or a repeat of an earlier one scaled by sign * q^k
_repeat = st.tuples(st.integers(min_value=0, max_value=7),
                    st.sampled_from([1, -1]),
                    st.integers(min_value=-2, max_value=2))
_insert_steps = st.lists(st.one_of(_int_row, _repeat), max_size=10)


class TestEqualRowShortcut:
    @settings(max_examples=300, deadline=None)
    @given(_insert_steps)
    @example([{(0, 0): 1, (0, 1): 1, (2, -1): 1}, (0, -1, 1), (0, 1, 0)])
    def test_same_answers_and_pivots_as_without_it(self, steps):
        ech = Echelon()
        reference = {}
        seen = []
        for step in steps:
            if isinstance(step, tuple):
                if not seen:
                    continue
                i, sign, k = step
                row = {(c, e + k): v * sign
                       for (c, e), v in seen[i % len(seen)].items()}
            else:
                row = step
            seen.append(row)
            assert ech.insert(row) == insert_without_shortcut(reference, row)
            assert ech.pivots == reference
