"""Quantum minors, the standard order, and Laplace-style identities."""

import itertools
import math

import pytest

from qdet.algebra import (MatrixShape, Monomial, NCPoly, q_commute_scalar)
from qdet.errors import (DegreeTooLarge, EmptyMinor, IndexOutOfShape,
                         OverlapError, SizeMismatch)
from qdet.minors import (Minor, MinorIdentity, enumerate_minors,
                         excluded_minors, laplace_relation,
                         laplace_row_relation, minor_value, muir_extend,
                         quantum_determinant, std_le)
from qdet.scalars import ONE, Q, Q_INV, RAT_ONE, minus_q_power


def M(shape, rows, cols):
    return Minor(shape, rows, cols)


def mono(shape, word):
    return Monomial.from_word(shape, word)


class TestMinorBasics:
    def test_validation(self, shape22):
        with pytest.raises(IndexOutOfShape):
            M(shape22, (1, 3), (1, 2))
        with pytest.raises(IndexOutOfShape):
            M(shape22, (2, 1), (1, 2))
        with pytest.raises(IndexOutOfShape):
            M(shape22, (1, 1), (1, 2))
        with pytest.raises(SizeMismatch):
            M(shape22, (1,), (1, 2))

    def test_str_and_size(self, shape33):
        a = M(shape33, (1, 3), (1, 2))
        assert str(a) == "minor[1,3|1,2]"
        assert a.size == 2 and not a.is_empty
        assert M(shape33, (), ()).is_empty

    def test_values(self, shape22, shape33):
        x = lambda s, i, j: NCPoly.generator(s, i, j)
        assert minor_value(M(shape22, (), ())) == NCPoly.one(shape22)
        assert minor_value(M(shape22, (2,), (1,))) == x(shape22, 2, 1)
        assert minor_value(M(shape22, (1, 2), (1, 2))) == \
            x(shape22, 1, 1) * x(shape22, 2, 2) - \
            (x(shape22, 1, 2) * x(shape22, 2, 1)).scale(Q)
        assert minor_value(M(shape33, (1, 3), (1, 2))) == \
            x(shape33, 1, 1) * x(shape33, 3, 2) - \
            (x(shape33, 1, 2) * x(shape33, 3, 1)).scale(Q)

    def test_determinant_coefficients(self, shape33):
        d = minor_value(quantum_determinant(shape33))
        assert len(d.terms) == 6
        assert d.coeff(mono(shape33, ((1, 1), (2, 2), (3, 3)))) == ONE
        assert d.coeff(mono(shape33, ((1, 3), (2, 2), (3, 1)))) == \
            minus_q_power(3)
        assert d.coeff(mono(shape33, ((1, 2), (2, 1), (3, 3)))) == \
            minus_q_power(1)

    def test_expansion_methods_agree(self, shape33, shape34):
        for shape in (shape33, shape34):
            for minor in enumerate_minors(shape):
                assert minor_value(minor, "perm_sum") == \
                    minor_value(minor, "laplace_first_row"), minor

    def test_full_determinants_agree_up_to_size_6(self):
        for t in range(1, 7):
            det = quantum_determinant(MatrixShape(t, t))
            value = minor_value(det)
            assert len(value.terms) == math.factorial(t)
            assert value == minor_value(det, "laplace_first_row"), t

    def test_size_guard(self):
        ok = quantum_determinant(MatrixShape(8, 8))
        assert minor_value(ok).coeff(mono(ok.shape, tuple(
            (i, 9 - i) for i in range(1, 9)))) == minus_q_power(28)
        big = quantum_determinant(MatrixShape(9, 9))
        for method in ("perm_sum", "laplace_first_row"):
            with pytest.raises(DegreeTooLarge, match="size-8 guard"):
                minor_value(big, method)
        assert minor_value(Minor(big.shape, (1, 9), (2, 9))).degree() == 2


class TestStandardOrder:
    def test_examples(self, shape22, shape33):
        assert std_le(M(shape22, (1, 2), (1, 2)), M(shape22, (1,), (1,)))
        assert std_le(M(shape22, (1, 2), (1, 2)), M(shape22, (2,), (2,)))
        assert not std_le(M(shape22, (1,), (1,)), M(shape22, (1, 2), (1, 2)))
        assert std_le(M(shape33, (1, 3), (1, 2)), M(shape33, (2,), (3,)))
        assert std_le(M(shape33, (1, 3), (1, 2)), M(shape33, (1, 3), (2, 3)))
        assert not std_le(M(shape33, (1, 3), (1, 2)), M(shape33, (1, 2), (1, 3)))
        assert not std_le(M(shape33, (1,), (2,)), M(shape33, (2,), (1,)))

    def test_empty_rejected(self, shape22):
        with pytest.raises(EmptyMinor):
            std_le(M(shape22, (), ()), M(shape22, (1,), (1,)))

    def test_partial_order_axioms(self, shape33):
        minors = enumerate_minors(shape33)
        for a in minors:
            assert std_le(a, a)
        for a, b in itertools.permutations(minors, 2):
            if std_le(a, b) and std_le(b, a):
                assert a == b
        for a, b, c in itertools.product(minors, repeat=3):
            if std_le(a, b) and std_le(b, c):
                assert std_le(a, c)

    def test_counts(self):
        for m, n, count in ((2, 2, 5), (3, 3, 19), (3, 4, 34), (4, 4, 69)):
            minors = enumerate_minors(MatrixShape(m, n))
            assert len(minors) == count
            sizes = [a.size for a in minors]
            assert sizes == sorted(sizes)

    def test_excluded_minors(self, shape22, shape33):
        assert excluded_minors(M(shape22, (1,), (1,))) == \
            [M(shape22, (1, 2), (1, 2))]
        got = excluded_minors(M(shape33, (1, 3), (1, 2)))
        assert got == [M(shape33, (1, 2), (1, 2)),
                       M(shape33, (1, 2), (1, 3)),
                       M(shape33, (1, 2), (2, 3)),
                       M(shape33, (1, 2, 3), (1, 2, 3))]


class TestLaplace:
    def test_explicit_column_instance(self, shape22):
        # x[2,1]*[1|2] - q*x[2,2]*[1|1] + q*[12|12] = 0
        rel = laplace_relation(shape22, (1,), (1, 2), 2)
        assert rel.holds
        coeffs = {fs: c for c, fs in rel.terms}
        assert coeffs[(M(shape22, (2,), (1,)), M(shape22, (1,), (2,)))] == ONE
        assert coeffs[(M(shape22, (2,), (2,)), M(shape22, (1,), (1,)))] == \
            minus_q_power(1)
        assert coeffs[(M(shape22, (1, 2), (1, 2)),)] == Q

    def test_alternating_sum_vanishes_inside(self, shape22):
        # expanding along a row already used: no minor term at all
        rel = laplace_relation(shape22, (1,), (1, 2), 1)
        assert len(rel.terms) == 2
        assert rel.holds

    def test_row_instance(self, shape22):
        rel = laplace_row_relation(shape22, (1, 2), (2,), 1)
        assert rel.holds
        assert any(fs == (M(shape22, (1, 2), (1, 2)),) for _, fs in rel.terms)

    def test_sweep_3x3(self, shape33):
        idx = (1, 2, 3)
        for t in (1, 2):
            for small in itertools.combinations(idx, t):
                for big in itertools.combinations(idx, t + 1):
                    for r in idx:
                        assert laplace_relation(shape33, small, big, r).holds
                        assert laplace_row_relation(shape33, big, small, r).holds

    def test_size_guard(self, shape22):
        with pytest.raises(SizeMismatch):
            laplace_relation(shape22, (1,), (1,), 2)
        with pytest.raises(SizeMismatch):
            laplace_row_relation(shape22, (1,), (1,), 2)


def padded_laplace(shape):
    """The 2x2 Laplace relation with its lone minor term padded by [|].

    Extension adjoins the new indices to every factor, so all terms must
    carry the same number of factors for degrees to stay balanced; the
    empty minor is the neutral padding.
    """
    rel = laplace_relation(shape, (1,), (1, 2), 2)
    empty = Minor(shape, (), ())
    return MinorIdentity(shape, [
        (c, fs if len(fs) == 2 else fs + (empty,)) for c, fs in rel.terms])


class TestMuirExtension:
    def test_transport_preserves_truth(self, shape22):
        big = muir_extend(padded_laplace(shape22), (3,), (3,))
        assert big.shape == MatrixShape(3, 3)
        assert big.holds
        # every factor gained the new row and column
        for _, fs in big.terms:
            for f in fs:
                assert 3 in f.rows and 3 in f.cols
        two = muir_extend(padded_laplace(shape22), (3, 4), (3, 4))
        assert two.shape == MatrixShape(4, 4)
        assert two.holds

    def test_coefficients_unchanged(self, shape22):
        rel = padded_laplace(shape22)
        big = muir_extend(rel, (4,), (3,), shape=MatrixShape(4, 3))
        assert [c for c, _ in big.terms] == [c for c, _ in rel.terms]
        assert big.holds

    def test_unbalanced_transport_is_detected(self, shape22):
        # without padding, terms gain unequal degrees; the transported
        # statement is false and evaluation catches it
        rel = laplace_relation(shape22, (1,), (1, 2), 2)
        assert rel.holds
        assert not muir_extend(rel, (3,), (3,)).holds

    def test_overlap_rejected(self, shape22):
        rel = laplace_relation(shape22, (1,), (1, 2), 2)
        with pytest.raises(OverlapError):
            muir_extend(rel, (1,), (3,))
        with pytest.raises(SizeMismatch):
            muir_extend(rel, (3,), ())
        with pytest.raises(IndexOutOfShape):
            muir_extend(rel, (3,), (3,), shape=MatrixShape(2, 2))


class TestCentrality:
    def test_quantum_determinant_is_central(self, shape22, shape33):
        for shape in (shape22, shape33):
            d = minor_value(quantum_determinant(shape))
            for (i, j) in shape.gens():
                g = NCPoly.generator(shape, i, j)
                assert d * g == g * d
            for minor in enumerate_minors(shape):
                assert q_commute_scalar(d, minor_value(minor)) == RAT_ONE

    def test_square_only(self, shape34):
        with pytest.raises(SizeMismatch):
            quantum_determinant(shape34)


class TestIdentityContainer:
    def test_build_and_render(self, shape22):
        ident = MinorIdentity(shape22, [
            (ONE, (M(shape22, (1,), (2,)), M(shape22, (2,), (1,)))),
            (-ONE, (M(shape22, (2,), (1,)), M(shape22, (1,), (2,)))),
        ])
        assert ident.holds
        assert "minor[1|2]*minor[2|1]" in str(ident)

    def test_false_identity_detected(self, shape22):
        ident = MinorIdentity(shape22, [
            (ONE, (M(shape22, (1,), (1,)), M(shape22, (1,), (2,)))),
            (-ONE, (M(shape22, (1,), (2,)), M(shape22, (1,), (1,)))),
        ])
        assert not ident.holds
        x11x12 = NCPoly.generator(shape22, 1, 1) * NCPoly.generator(shape22, 1, 2)
        assert ident.evaluate() == x11x12.scale(ONE - Q_INV)


class TestIntegerStructureConstants:
    def test_normal_form_and_minor_coefficients_are_ints(self, shape33):
        for i, j, k, l in itertools.product(range(1, 4), repeat=4):
            p = NCPoly.generator(shape33, i, j) * NCPoly.generator(shape33, k, l)
            for c in p.terms.values():
                assert all(type(v) is int for v in c.terms.values())
        for mn in enumerate_minors(shape33):
            for method in ("perm_sum", "laplace_first_row"):
                for c in minor_value(mn, method).terms.values():
                    assert all(type(v) is int for v in c.terms.values())
