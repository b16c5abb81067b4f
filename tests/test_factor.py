"""Factor rings by excluded minors: ideals, bases, and normality."""

import hashlib
import itertools
import json
import os
from collections import Counter

import pytest

from conftest import laurent_row, spans_clear, watch_images
from qdet import cache, cli, factor, linalg
from qdet.algebra import MatrixShape, NCPoly, graded_dim
from qdet.errors import (BasisMismatch, DegreeTooLarge, NoScalarFound,
                         NotAboveGamma, ShapeMismatch)
from qdet.factor import (IdealComponent, StandardMonomial, basis_check,
                         generator_image_check, generator_image_suite,
                         hilbert_check, hilbert_function, ideal_component,
                         normality_check, normality_scalar, regularity_check,
                         standard_monomial_counts, standard_monomials,
                         tower_image_check, zero_divisor_check)
from qdet.linalg import Echelon, component_basis, poly_row
from qdet.minors import (Minor, enumerate_minors, excluded_minors,
                         laplace_relation, laplace_row_relation, minor_value,
                         minors_product, std_le)
from qdet.scalars import ONE, Q, ZERO
from qdet.report import SuiteReport
from qdet.suites import WorkbenchConfig, run_workbench


@pytest.fixture
def g11(shape22):
    return Minor(shape22, (1,), (1,))


@pytest.fixture
def g1312(shape33):
    return Minor(shape33, (1, 3), (1, 2))


@pytest.fixture
def span_dir(tmp_path):
    """tmp_path as the span cache directory for one test."""
    cache.set_cache_dir(str(tmp_path))
    yield tmp_path
    cache.set_cache_dir(None)


class TestIdealComponents:
    def test_ranks_for_corner_variable(self, g11):
        assert [ideal_component(g11, d).rank for d in range(5)] == \
            [0, 0, 1, 4, 10]

    def test_degree_two_is_the_determinant_line(self, g11, shape22):
        ic = ideal_component(g11, 2)
        dq = minor_value(Minor(shape22, (1, 2), (1, 2)))
        assert ic.contains(dq)
        assert ic.contains(dq.scale(Q - 1))
        x11x22 = NCPoly.generator(shape22, 1, 1) * NCPoly.generator(shape22, 2, 2)
        assert not ic.contains(x11x22)

    def test_row_polys_lie_in_the_ideal(self, g1312):
        ic = ideal_component(g1312, 3)
        assert ic.rank > 0
        for row in ic.echelon.rows():
            assert ic.contains(row_poly(ic.basis, row))


def row_poly(basis, row):
    """An integer row over a component basis as the NCPoly it stands for."""
    monos = basis.monomials
    return NCPoly(basis.shape,
                  {monos[i]: c for i, c in laurent_row(row).items()})


def reference_echelons(gamma, max_degree):
    """The ideal echelons of degrees 0..max_degree, built on polynomials.

    The reference the column-space build is compared against: every row
    of the previous degree is turned back into an NCPoly, multiplied by
    each generator on both sides and mapped to a row by poly_row, in the
    same order, followed by the excluded minors of the degree.
    """
    shape = gamma.shape
    gens = [NCPoly.generator(shape, a, b) for a, b in shape.gens()]
    excluded = [mn for mn in enumerate_minors(shape) if not std_le(gamma, mn)]
    out = []
    for d in range(max_degree + 1):
        basis = component_basis(shape, d)
        ech = Echelon()
        if d:
            prev = component_basis(shape, d - 1)
            for p in [row_poly(prev, row) for row in out[-1].rows()]:
                for g in gens:
                    ech.insert(poly_row(g * p, basis))
                    ech.insert(poly_row(p * g, basis))
        for mn in excluded:
            if mn.size == d:
                ech.insert(poly_row(minor_value(mn), basis))
        out.append(ech)
    return out


def shifted(gamma):
    """gamma' on R: gamma moved into its southeast rectangle R, the rows
    min I..m and the columns min J..n, whose corner becomes (1, 1)."""
    r1, c1 = gamma.rows[0], gamma.cols[0]
    shape = MatrixShape(gamma.shape.m - r1 + 1, gamma.shape.n - c1 + 1)
    return Minor(shape, [i - r1 + 1 for i in gamma.rows],
                 [j - c1 + 1 for j in gamma.cols])


def project(p, gamma):
    """pi(p): p's terms with every letter in gamma's R, as an NCPoly on R.

    Written letter by letter, apart from factor's slices of the exponent
    tuple.
    """
    shape, sub = gamma.shape, shifted(gamma).shape
    r1, c1 = gamma.rows[0], gamma.cols[0]
    out = {}
    for e, c in p.terms.items():
        letters = [shape.gen_at(g) for g, k in enumerate(e) for _ in range(k)]
        if all(i >= r1 and j >= c1 for i, j in letters):
            exps = [0] * sub.ngens
            for i, j in letters:
                exps[sub.gen_index(i - r1 + 1, j - c1 + 1)] += 1
            out[tuple(exps)] = c
    return NCPoly(sub, out)


def assert_same_span(gamma, d, ref):
    """ideal_component(gamma, d) is the span of the ambient reference
    echelon ref: it holds every row of ref and has ref's rank."""
    ic = ideal_component(gamma, d)
    assert ic.rank == ref.rank
    basis = component_basis(gamma.shape, d)
    for row in ref.rows():
        assert ic.contains(row_poly(basis, row))


BENCH_GAMMAS = [Minor(MatrixShape(4, 4), (2, 4), (1, 3)),
                Minor(MatrixShape(4, 4), (2, 3), (2, 3))]


class TestColumnSpaceBuild:
    """ideal_component holds the span the polynomial route builds on the
    whole shape, and builds on rows what that route builds on R."""

    @staticmethod
    def check_through_degree_4(gamma):
        on_r = reference_echelons(shifted(gamma), 4)
        for d, ref in enumerate(reference_echelons(gamma, 4)):
            assert_same_span(gamma, d, ref)
            assert ideal_component(gamma, d).echelon.pivots == on_r[d].pivots

    @pytest.mark.parametrize("gamma", enumerate_minors(MatrixShape(3, 3)),
                             ids=str)
    def test_every_3x3_minor_through_degree_4(self, gamma):
        self.check_through_degree_4(gamma)

    @pytest.mark.parametrize("gamma", BENCH_GAMMAS, ids=str)
    def test_bench_gammas_of_4x4_through_degree_4(self, gamma):
        self.check_through_degree_4(gamma)

    @pytest.mark.parametrize("m, n, rows, cols, degrees", [
        (3, 3, (1, 3), (1, 2), (2, 3, 4)),
        (4, 4, (2, 4), (1, 3), (4,)),
    ], ids=["3x3-13|12", "4x4-24|13"])
    def test_images_only_of_touched_columns(self, m, n, rows, cols, degrees,
                                            monkeypatch):
        """The degree-d build takes right images of I_{d-1}'s row columns
        and of their reversals (the left images) only, each exactly once;
        rows, columns and images are those of gamma' on R."""
        gamma = Minor(MatrixShape(m, n), rows, cols)
        sub = shifted(gamma)
        built = watch_images(monkeypatch)
        for d in degrees:
            spans_clear()
            prev = ideal_component(gamma, d - 1).echelon
            built.clear()
            ideal_component(gamma, d)
            rev = linalg.component_basis(sub.shape, d - 1).reversal()
            touched = {c for row in prev.rows() for c, _ in row}
            assert Counter(key for key, _ in built) == Counter(
                {(d, c): 1
                 for c in touched | {rev[c] for c in touched}})

    @pytest.mark.parametrize("m, n, rows, cols, d", [
        (3, 3, (1, 3), (1, 2), 4),
        (4, 4, (2, 4), (1, 3), 3),
    ], ids=["3x3-13|12-4", "4x4-24|13-3"])
    def test_images_live_from_first_to_last_reading_row(self, m, n, rows,
                                                         cols, d,
                                                         monkeypatch):
        """While row r of I_{d-1} has its products inserted, the images
        alive are exactly those of the columns that a row at or before r
        and a row at or after r read; none outlives the build.  Rows,
        columns and generators are those of gamma' on R."""
        gamma = Minor(MatrixShape(m, n), rows, cols)
        sub = shifted(gamma)
        spans_clear()
        prev = ideal_component(gamma, d - 1).echelon.rows()
        rev = linalg.component_basis(sub.shape, d - 1).reversal()
        first, last = {}, {}
        for r, row in enumerate(prev):
            for c, _ in row:
                for col in (c, rev[c]):
                    first.setdefault(col, r)
                    last[col] = r
        built = watch_images(monkeypatch)
        per_row = 2 * sub.shape.ngens
        live = []
        real = Echelon.insert

        def watching(self, row):
            if len(live) < per_row * len(prev):
                live.append({key[1] for key, ref in built
                             if ref() is not None})
            return real(self, row)

        monkeypatch.setattr(Echelon, "insert", watching)
        ideal_component(gamma, d)
        assert len(live) == per_row * len(prev)
        for k, cols_alive in enumerate(live):
            r = k // per_row
            assert cols_alive == {c for c in first
                                  if first[c] <= r <= last[c]}, k
        assert all(ref() is None for _, ref in built)


class TestSoutheastRectangle:
    """The facts the module docstring's proof rests on, checked on 4x4."""

    @pytest.mark.parametrize("gamma", BENCH_GAMMAS, ids=str)
    def test_the_kernel_keeps_m_closed(self, gamma):
        """A monomial with a letter outside R, times any generator on
        either side, is a sum of monomials with such a letter."""
        shape = gamma.shape
        r1, c1 = gamma.rows[0], gamma.cols[0]
        outside = [shape.gen_index(i, j) for i, j in shape.gens()
                   if i < r1 or j < c1]
        gens = [NCPoly.generator(shape, i, j) for i, j in shape.gens()]
        products = 0
        for d in range(4):
            for e in component_basis(shape, d).monomials:
                if not any(e[g] for g in outside):
                    continue
                mono = NCPoly(shape, {e: ONE})
                for g in gens:
                    for p in (g * mono, mono * g):
                        products += 1
                        assert all(any(f[k] for k in outside)
                                   for f in p.terms), (e, g)
        assert products == 2 * 16 * sum(
            graded_dim(shape, d) - graded_dim(shifted(gamma).shape, d)
            for d in range(4))

    @pytest.mark.parametrize("gamma", BENCH_GAMMAS, ids=str)
    def test_the_echelon_is_gamma_primes(self, gamma):
        """gamma and gamma' share their echelons, and answer alike through
        pi: the quotient is the same and a polynomial lies in I_gamma
        exactly when its projection lies in I_gamma'."""
        sub = shifted(gamma)
        for d in range(4):
            ic, on_r = ideal_component(gamma, d), ideal_component(sub, d)
            assert ic.echelon is on_r.echelon
            assert ic.quotient_dim == on_r.quotient_dim
            assert ic.rank == graded_dim(gamma.shape, d) - ic.quotient_dim
        taus = [t for t in enumerate_minors(gamma.shape) if std_le(gamma, t)]
        for tau in taus[:6]:
            p = minor_value(gamma) * minor_value(tau)
            ic = ideal_component(gamma, gamma.size + tau.size)
            on_r = ideal_component(sub, gamma.size + tau.size)
            assert ic.contains(p) == on_r.contains(project(p, gamma))


def degree_4_build(gamma, monkeypatch):
    """(Echelon.insert calls, rank) of gamma's degree-4 build alone."""
    spans_clear()
    ideal_component(gamma, 3)
    calls = []
    real = Echelon.insert

    def counting(self, row):
        calls.append(None)
        return real(self, row)

    monkeypatch.setattr(Echelon, "insert", counting)
    try:
        rank = ideal_component(gamma, 4).rank
    finally:
        spans_clear()
    return len(calls), rank


class TestInsertSequence:
    """The benchmark's degree-4 builds, pinned as it pins them: the smoke
    run's 3x3 build and the ideal-4x4 workload's traced one."""

    def test_3x3_1312_degree_4_makes_450_inserts(self, g1312, monkeypatch):
        assert degree_4_build(g1312, monkeypatch) == (450, 117)

    def test_4x4_2413_degree_4_makes_2016_inserts(self, monkeypatch):
        """Built on R (3x4, where I_gamma' has rank 483), read as the
        ambient rank 2994, the rank the bench's self-check compares."""
        gamma = Minor(MatrixShape(4, 4), (2, 4), (1, 3))
        assert degree_4_build(gamma, monkeypatch) == (2016, 2994)


class TestSizeGuard:
    """ideal_component checks the component size, once, before any work."""

    @pytest.fixture
    def g2413(self):
        return Minor(MatrixShape(5, 5), (2, 4), (1, 3))

    def test_ideal_component_refuses_before_any_build(self, g2413):
        spans_clear()
        with pytest.raises(DegreeTooLarge, match=r"degree-4 component of 5x5 "
                           r"has dimension 20475 \(guard 10000\)"):
            ideal_component(g2413, 4)
        assert not factor._ECHELONS

    def test_the_guard_reads_the_ambient_shape(self):
        """4x4 2,3,4|2,3,4 is built on 3x3, whose degree-5 component
        (dimension 1287) is under the guard; its own (15504) is not."""
        gamma = Minor(MatrixShape(4, 4), (2, 3, 4), (2, 3, 4))
        assert graded_dim(shifted(gamma).shape, 5) == 1287
        spans_clear()
        with pytest.raises(DegreeTooLarge, match=r"degree-5 component of 4x4 "
                           r"has dimension 15504 \(guard 10000\)"):
            ideal_component(gamma, 5)
        assert not factor._ECHELONS

    def test_basis_check_refuses_before_expanding(self, g2413, monkeypatch):
        def expanded(*args):
            raise AssertionError("standard monomials expanded")

        monkeypatch.setattr(factor, "standard_monomials", expanded)
        with pytest.raises(DegreeTooLarge, match=r"\(guard 10000\)"):
            basis_check(g2413, 4)

    def test_one_basis_per_component(self, g1312):
        for d in range(4):
            assert (component_basis(g1312.shape, d)
                    is ideal_component(g1312, d).basis)


class TestThreeQuestions:
    """IdealComponent's contains, quotient_dim and rank_mod against the
    standard monomials, which count and span J_gamma independently."""

    @pytest.mark.parametrize("gamma", enumerate_minors(MatrixShape(3, 3)),
                             ids=str)
    def test_every_3x3_minor_through_degree_3(self, gamma):
        counts = standard_monomial_counts(gamma, 3)
        for d in range(4):
            ic = ideal_component(gamma, d)
            assert ic.quotient_dim == counts[d] == \
                graded_dim(gamma.shape, d) - ic.rank
            values = [s.value() for s in standard_monomials(gamma, d)]
            assert ic.rank_mod(values) == counts[d]
            assert ic.rank_mod(values + values) == counts[d]

    def test_rank_mod_counts_images_not_polynomials(self, g11, shape22):
        ic = ideal_component(g11, 2)
        dq = minor_value(Minor(shape22, (1, 2), (1, 2)))
        x11x22 = NCPoly.generator(shape22, 1, 1) * NCPoly.generator(shape22,
                                                                    2, 2)
        assert ic.contains(dq) and not ic.contains(x11x22)
        assert ic.rank_mod([]) == ic.rank_mod([dq]) == 0
        assert ic.rank_mod([dq, x11x22, x11x22.scale(Q) + dq]) == 1
        assert ic.rank_mod(iter([x11x22])) == 1
        # asking leaves the component as it was
        assert ic.rank == 1 and ic.quotient_dim == 9


class TestQuotient:
    def test_relations_modulo_corner(self, g11, shape22):
        x = lambda i, j: NCPoly.generator(shape22, i, j)
        assert ideal_component(g11, 2).contains(NCPoly.zero(shape22))
        assert ideal_component(g11, 2).contains(
            x(1, 1) * x(2, 2) - (x(1, 2) * x(2, 1)).scale(Q))
        assert not ideal_component(g11, 1).contains(x(1, 1))
        dq = minor_value(Minor(shape22, (1, 2), (1, 2)))
        assert ideal_component(g11, 3).contains(x(1, 1) * dq)
        assert not ideal_component(g11, 3).contains(
            x(1, 1) * dq + x(1, 1) * x(1, 1) * x(1, 1))

    def test_shape_guard(self, g11, shape33):
        with pytest.raises(ShapeMismatch):
            ideal_component(g11, 0).contains(NCPoly.one(shape33))

    def test_degree_guard(self):
        """A term of another degree is refused, also when dropping its
        letters outside R would leave a monomial of this degree."""
        shape = MatrixShape(4, 4)
        x = lambda i, j: NCPoly.generator(shape, i, j)
        ic = ideal_component(Minor(shape, (2, 4), (1, 3)), 2)
        assert ic.contains(x(1, 1) * x(2, 2))
        for p in (x(2, 2), x(1, 1) * x(2, 2) * x(3, 3)):
            with pytest.raises(BasisMismatch):
                ic.contains(p)

    def test_hilbert_functions(self, g11, shape22):
        assert hilbert_function(g11, 4) == [1, 4, 9, 16, 25]
        # the full minor excludes nothing: the quotient is the whole ring
        full = Minor(shape22, (1, 2), (1, 2))
        assert hilbert_function(full, 3) == \
            [graded_dim(shape22, d) for d in range(4)]
        # the largest corner leaves a single variable
        last = Minor(shape22, (2,), (2,))
        assert hilbert_function(last, 3) == [1, 1, 1, 1]

    def test_hilbert_check_passes(self, g11, g1312):
        assert hilbert_check(g11, 3).passed
        assert hilbert_check(g1312, 3).passed

    def test_hilbert_check_counts_without_enumerating(self, g1312,
                                                      monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("standard monomials enumerated")

        monkeypatch.setattr(factor, "standard_monomials", refuse)
        rep = hilbert_check(g1312, 3)
        assert rep.passed
        assert [c.witness for c in rep.checks] == [
            "dimension %d, standard monomials %d" % (d, d)
            for d in (1, 9, 42, 140)]


def full_minor(shape):
    """The full-size leading minor [1..t|1..t], t = min(m, n): it sits
    below every minor, so its quotient is the whole ring."""
    t = min(shape.m, shape.n)
    return Minor(shape, range(1, t + 1), range(1, t + 1))


def brute_chains(floor, degree):
    """Exhaustive filter over raw factor tuples, as an oracle."""
    pool = [mn for mn in enumerate_minors(floor.shape) if std_le(floor, mn)]
    found = set()
    for length in range(degree + 1):
        for tup in itertools.product(pool, repeat=length):
            if sum(f.size for f in tup) != degree:
                continue
            if all(std_le(a, b) for a, b in zip(tup, tup[1:])):
                found.add(tup)
    return found


class TestStandardMonomials:
    def test_container(self, shape22):
        one = StandardMonomial(shape22, ())
        assert one.degree == 0 and str(one) == "1"
        assert one.value() == NCPoly.one(shape22)
        pair = StandardMonomial(shape22, (Minor(shape22, (1,), (1,)),
                                          Minor(shape22, (2,), (2,))))
        assert str(pair) == "[1|1][2|2]"
        assert pair.degree == 2

    def test_against_exhaustive_oracle(self, shape22, shape33, g11, g1312):
        full22, full33 = full_minor(shape22), full_minor(shape33)
        cases = [(full22, 2), (full22, 3), (g11, 2), (g11, 3), (full33, 2),
                 (g1312, 2)]
        for floor, degree in cases:
            got = {s.factors for s in standard_monomials(floor, degree)}
            assert got == brute_chains(floor, degree)

    def test_counts(self, shape22, g11):
        assert len(standard_monomials(full_minor(shape22), 2)) == 10
        assert len(standard_monomials(g11, 2)) == 9
        assert [len(standard_monomials(g11, d))
                for d in range(5)] == [1, 4, 9, 16, 25]

    @pytest.mark.parametrize("side", [2, 3])
    def test_recursion_counts_the_chains(self, side):
        shape = MatrixShape(side, side)
        for floor in enumerate_minors(shape):
            assert standard_monomial_counts(floor, 4) == [
                len(standard_monomials(floor, d)) for d in range(5)], floor

    def test_enumerated_once(self, shape33, g1312, monkeypatch):
        calls = []
        real = std_le

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(factor, "std_le", counting)
        first = standard_monomials(g1312, 3)
        assert isinstance(first, tuple) and calls
        assert standard_monomials(floor=g1312, degree=3) == first

    def test_chains_are_nondecreasing(self, shape33):
        for s in standard_monomials(full_minor(shape33), 3):
            for a, b in zip(s.factors, s.factors[1:]):
                assert std_le(a, b)

    def test_order_is_depth_first_in_pool_order(self, shape22, shape33, g11,
                                                g1312):
        def recursive(floor, degree):
            pool = [mn for mn in enumerate_minors(floor.shape)
                    if std_le(floor, mn)]

            def rec(chain, remaining):
                if remaining == 0:
                    yield chain
                    return
                for mn in pool:
                    if mn.size <= remaining and (not chain
                                                 or std_le(chain[-1], mn)):
                        yield from rec(chain + (mn,), remaining - mn.size)

            return list(rec((), degree))

        full22, full33 = full_minor(shape22), full_minor(shape33)
        for floor, degree in [(full22, 4), (g11, 3), (full33, 3), (g1312, 3),
                              (full22, 0), (full22, -1)]:
            got = [s.factors for s in standard_monomials(floor, degree)]
            assert got == recursive(floor, degree)

    def test_long_chains_need_no_recursion(self):
        shape = MatrixShape(1, 1)
        chains = standard_monomials(full_minor(shape), 1500)
        assert len(chains) == 1
        assert chains[0].factors == (Minor(shape, (1,), (1,)),) * 1500


class TestBasisChecks:
    def test_full_ring(self, shape22, shape33):
        for d in range(5):
            assert basis_check(full_minor(shape22), d).passed
        for d in range(3):
            assert basis_check(full_minor(shape33), d).passed

    def test_quotient_bases(self, g11, g1312):
        for d in range(5):
            assert basis_check(g11, d).passed
        for d in range(4):
            assert basis_check(g1312, d).passed


class TestNormalityScalars:
    def test_corner_values(self, g11, shape22):
        want = {(1, 1): ONE, (1, 2): Q, (2, 1): Q, (2, 2): Q ** 2}
        for (i, j), c in want.items():
            assert normality_scalar(g11, Minor(shape22, (i,), (j,))) == c

    def test_not_above(self, g11, shape22):
        with pytest.raises(NotAboveGamma):
            normality_scalar(g11, Minor(shape22, (1, 2), (1, 2)))

    def test_shape_guard(self, g11, shape33):
        with pytest.raises(ShapeMismatch):
            normality_scalar(g11, Minor(shape33, (1,), (1,)))

    def test_reports_pass(self, g11, g1312):
        assert normality_check(g11).passed
        rep = normality_check(g1312)
        assert rep.passed
        # every minor above gamma received a scalar
        above = [t for t in enumerate_minors(g1312.shape) if std_le(g1312, t)]
        assert len(rep.checks) == len(above)

    def test_failure_paths(self, monkeypatch, g11, shape22):
        class FakeComponent:
            def __init__(self, verdict):
                self.verdict = verdict

            def contains(self, p):
                return self.verdict

        # everything collapses: tau*gamma already vanishes
        monkeypatch.setattr("qdet.factor.ideal_component",
                            lambda *a, **k: FakeComponent(True))
        with pytest.raises(NoScalarFound, match="vanishes"):
            normality_scalar(g11, Minor(shape22, (2,), (2,)))

        # nothing vanishes: the predicted q^2 is refused, and named
        monkeypatch.setattr("qdet.factor.ideal_component",
                            lambda *a, **k: FakeComponent(False))
        with pytest.raises(NoScalarFound,
                           match=r"not congruent to q\^2 times"):
            normality_scalar(g11, Minor(shape22, (2,), (2,)))


def solved_scalar(gamma, tau):
    """c solved for by elimination, the reference for the prediction.

    The ideal echelon is gamma' 's on R, so both products enter through
    the test's own projection.  tau*gamma is inserted on top of a copy of
    the echelon, tagged with a 1 at column width; gamma*tau, tagged at
    width + 1, then reduces to den*gamma*tau - num*tau*gamma plus an
    ideal member, so its residue holds -num at width and den at
    width + 1.  Returns (num, den), so c = num / den.
    """
    u = project(minor_value(gamma) * minor_value(tau), gamma)
    v = project(minor_value(tau) * minor_value(gamma), gamma)
    ic = ideal_component(gamma, gamma.size + tau.size)
    width = len(ic.basis)
    ech = ic.echelon.copy()
    ech.insert({**poly_row(v, ic.basis), (width, 0): 1})
    res = laurent_row(ech.residue({**poly_row(u, ic.basis),
                                   (width + 1, 0): 1}))
    assert min(res) >= width, "gamma*tau is no multiple of tau*gamma"
    return -res.get(width, ZERO), res[width + 1]


def normality_pairs(gammas):
    return [(gamma, tau) for gamma in gammas
            for tau in enumerate_minors(gamma.shape) if std_le(gamma, tau)]


class TestNormalityScalarReference:
    """The predicted scalar equals the one elimination solves for."""

    @pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_every_pair_of_small_shapes(self, m, n):
        pairs = normality_pairs(enumerate_minors(MatrixShape(m, n)))
        for gamma, tau in pairs:
            num, den = solved_scalar(gamma, tau)
            assert num == normality_scalar(gamma, tau) * den

    def test_bench_gammas_of_4x4(self):
        shape = MatrixShape(4, 4)
        pairs = normality_pairs([Minor(shape, (2, 4), (1, 3)),
                                 Minor(shape, (2, 3), (2, 3))])
        assert len(pairs) == 40
        for gamma, tau in pairs:
            num, den = solved_scalar(gamma, tau)
            assert num == normality_scalar(gamma, tau) * den


class TestGeneratorImages:
    def test_base_variable_is_trivial(self, g1312):
        rep = generator_image_check(g1312, 1, 1)
        assert rep.passed
        assert [c.name for c in rep.checks] == ["base variable"]

    def test_column_expansion_case(self, g1312):
        rep = generator_image_check(g1312, 2, 3)
        assert rep.passed
        names = [c.name for c in rep.checks]
        assert names == ["expansion holds", "surviving minor[1,3|2,3]",
                         "surviving minor[1,3|1,3]", "head term",
                         "dead minor[1,2,3|1,2,3]", "head present",
                         "congruence"]

    def test_row_expansion_case(self, g1312):
        rep = generator_image_check(g1312, 2, 1)
        assert rep.passed
        assert any("head term" == c.name for c in rep.checks)

    def test_suites(self, g11, g1312):
        assert generator_image_suite(g11).passed
        assert generator_image_suite(g1312).passed

    def test_5x5_needs_no_span(self, monkeypatch, capsys):
        """Its degree-4 component (dimension 20475) is above the guard."""
        def refuse(gamma, degree):
            raise AssertionError("theta read the span of degree %d" % degree)
        monkeypatch.setattr(factor, "ideal_component", refuse)
        rc = cli.main(["verify", "--m", "5", "--n", "5",
                       "--gamma", "2,3,5|1,3,4", "--suites", "theta"])
        assert rc == 0, capsys.readouterr()


def span_route(gamma):
    """The dead-term argument of generator_image_check, by ideal spans.

    The reference the span-free check is compared against: for every
    variable off the base, each dead term's value and the head plus
    surviving terms are tested in the degree t+1 ideal component, and
    each dead tail against excluded_minors.  Returns the dead term count.
    """
    shape = gamma.shape
    ic = ideal_component(gamma, gamma.size + 1)
    generators = set(excluded_minors(gamma))
    dead = 0
    for r in range(1, shape.m + 1):
        for s in range(1, shape.n + 1):
            if r in gamma.rows and s in gamma.cols:
                continue
            if s not in gamma.cols:
                identity = laplace_relation(
                    shape, gamma.rows, sorted(gamma.cols + (s,)), r)
            else:
                identity = laplace_row_relation(
                    shape, sorted(gamma.rows + (r,)), gamma.cols, s)
            kept = NCPoly.zero(shape)
            for coeff, factors in identity.terms:
                value = minors_product(shape, factors).scale(coeff)
                if std_le(gamma, factors[-1]):
                    kept = kept + value
                    continue
                dead += 1
                assert ic.contains(value), (gamma, r, s, factors)
                assert factors[-1] in generators, (gamma, r, s, factors)
            assert ic.contains(kept), (gamma, r, s)
            assert generator_image_check(gamma, r, s).passed, (gamma, r, s)
    return dead


class TestGeneratorImageSpanReference:
    def test_every_minor_of_3x3(self, shape33):
        assert sum(span_route(g) for g in enumerate_minors(shape33)) > 0

    def test_bench_gammas_of_4x4(self):
        shape = MatrixShape(4, 4)
        assert span_route(Minor(shape, (2, 4), (1, 3))) > 0
        assert span_route(Minor(shape, (2, 3), (2, 3))) > 0


class TestGeneratorImageFailures:
    def test_failing_sub_check_is_reported_by_name(self, g11, monkeypatch):
        def failing(gamma, r, s):
            rep = SuiteReport("generator_image", {})
            rep.add("congruence", False, "forced")
            return rep

        monkeypatch.setattr(factor, "generator_image_check", failing)
        rep = generator_image_suite(g11)
        assert not rep.passed
        assert all(c.witness == "congruence" for c in rep.checks)


class TestRegularityAndDomain:
    def test_regularity(self, g11, g1312):
        assert regularity_check(g11, 3).passed
        assert regularity_check(g1312, 3).passed

    def test_zero_divisors(self, g11, g1312):
        rep = zero_divisor_check(g11, 3)
        assert rep.passed
        assert len(rep.checks) > 0
        assert zero_divisor_check(g1312, 3).passed

    def test_tower_image(self, g1312, g11):
        rep = tower_image_check(g1312, 3)
        assert rep.passed
        assert tower_image_check(g11, 3).passed


class TestDiskCache:
    def test_row_round_trip(self, span_dir):
        rows = [{(0, 1): 1, (0, -1): -1}, {(2, 0): 1, (5, -3): 1}]
        key = ("test", 1, (2, 3))
        cache.store_rows(key, rows)
        assert cache.load_rows(key) == rows
        assert cache.load_rows(("other",)) is None

    def test_corrupt_and_mismatched_files_are_misses(self, span_dir):
        key = ("test", 2)
        cache.store_rows(key, [{(0, 0): 1}])
        path = cache._path_for(str(span_dir), key)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("{not json")
        assert cache.load_rows(key) is None
        cache.store_rows(key, [{(0, 0): 1}])
        with open(path, "r", encoding="ascii") as fh:
            payload = fh.read()
        with open(path, "w", encoding="ascii") as fh:
            fh.write(payload.replace('"format":%d' % cache.FORMAT,
                                     '"format":99'))
        assert cache.load_rows(key) is None

    def test_environment_variable_is_ignored(self, tmp_path, monkeypatch,
                                             shape22):
        monkeypatch.setenv("QDET_CACHE", str(tmp_path))
        assert cache.cache_dir() is None
        try:
            spans_clear()
            ideal_component(Minor(shape22, (1,), (1,)), 2)
        finally:
            spans_clear()
        assert not list(tmp_path.iterdir())

    def test_ideal_spans_persist_and_reload(self, span_dir, shape22):
        gamma = Minor(shape22, (1,), (1,))
        try:
            spans_clear()
            want = ideal_component(gamma, 2).rank
            files = list(span_dir.glob("*.json"))
            assert files
            # poison the stored span to prove the reload path is taken
            key = ("ideal", 2, 2, (1,), (1,), 2)
            cache.store_rows(key, [{(0, 0): 1}, {(1, 0): 1}, {(2, 0): 1}])
            spans_clear()
            assert ideal_component(gamma, 2).rank == 3
        finally:
            cache.set_cache_dir(None)
            spans_clear()
        assert ideal_component(gamma, 2).rank == want == 1


    def test_a_shifted_gamma_reads_the_spans_of_gamma_prime(
            self, tmp_path, monkeypatch, capsys):
        """4x4 2,3|2,3 is built on 3x3 as 1,2|1,2 under the same keys, so
        after a 3x3 1,2|1,2 run fills the cache, a 4x4 run builds no span
        and reports what it reports uncached (the config's cache aside)."""
        span_dir = str(tmp_path / "spans")
        small = ["verify", "--m", "3", "--n", "3", "--gamma", "1,2|1,2",
                 "--max-degree", "3"]
        large = ["verify", "--m", "4", "--n", "4", "--gamma", "2,3|2,3",
                 "--max-degree", "3"]

        def report(argv, name):
            path = str(tmp_path / name)
            try:
                assert cli.main(argv + ["--report", path]) == 0
            finally:
                cache.set_cache_dir(None)
            with open(path, encoding="ascii") as fh:
                return json.load(fh)

        want = report(large, "uncached.json")
        report(small + ["--cache", span_dir], "small.json")
        files = sorted(os.listdir(span_dir))
        assert files

        def built(*args):
            raise AssertionError("a span was built")

        monkeypatch.setattr(factor, "generator_products", built)
        monkeypatch.setattr(cache, "store_rows", built)
        got = report(large + ["--cache", span_dir], "cached.json")
        capsys.readouterr()
        assert sorted(os.listdir(span_dir)) == files
        assert got["config"].pop("cache") == span_dir
        want["config"].pop("cache")
        assert got == want


def _tamper_rows(path, edit):
    """Apply edit to the stored rows of a cache file; the header is kept."""
    with open(path, "r", encoding="ascii") as fh:
        header, body = fh.read().splitlines()
    rows = json.loads(body)
    edit(rows)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n" + json.dumps(rows, separators=(",", ":")) + "\n")


def _delete_middle_row(rows):
    if rows:
        rows.pop(len(rows) // 2)


def _edit_middle_coefficient(rows):
    if rows:
        rows[len(rows) // 2][-1] += 1


class TestDiskCacheIntegrity:
    """Tampered span files are misses: the spans are rebuilt, never trusted."""

    @pytest.mark.parametrize("edit", [_delete_middle_row,
                                      _edit_middle_coefficient])
    def test_tampered_spans_are_rebuilt(self, tmp_path, edit):
        config = WorkbenchConfig(m=3, n=3, gamma=((1, 3), (1, 2)),
                                 max_degree=3, suites=("factor-basis",),
                                 cache=str(tmp_path))
        try:
            first = run_workbench(config)
            assert first.ok
            files = sorted(tmp_path.glob("*.json"))
            assert files
            for path in files:
                _tamper_rows(path, edit)
            second = run_workbench(config)
            assert second.ok, [c.name for s in second.suites
                               for c in s.failed]
            assert second.counts() == first.counts()
        finally:
            cache.set_cache_dir(None)

    def test_missing_field_and_stale_rank_are_misses(self, span_dir):
        key = ("test", 3)
        rows = [{(0, 0): 1}, {(1, 1): 1}]
        cache.store_rows(key, rows)
        assert cache.load_rows(key) == rows
        path = cache._path_for(str(span_dir), key)
        with open(path, "r", encoding="ascii") as fh:
            header, body = fh.read().splitlines()
        head = json.loads(header)
        for field in ("rank", "sha256"):
            partial = {k: v for k, v in head.items() if k != field}
            with open(path, "w", encoding="ascii") as fh:
                fh.write(json.dumps(partial) + "\n" + body + "\n")
            assert cache.load_rows(key) is None
        # one row deleted with a digest that matches what is left
        short = json.dumps(json.loads(body)[:1], separators=(",", ":"))
        head["sha256"] = hashlib.sha256(short.encode("ascii")).hexdigest()
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(head) + "\n" + short + "\n")
        assert cache.load_rows(key) is None

    @pytest.mark.parametrize("body", ['[[0,0,0]]', '[[0,0]]', '[[0,0.5,1]]',
                                      '[[0,0,1,0,0,2]]',
                                      "[" * 100000 + "]" * 100000],
                             ids=["zero-coefficient", "short-entry",
                                  "float-exponent", "repeated-key",
                                  "deep-nesting"])
    def test_undecodable_rows_with_a_matching_digest_are_misses(
            self, span_dir, body):
        key = ("test", 4)
        header = {"format": cache.FORMAT, "key": repr(key), "rank": 1,
                  "sha256": hashlib.sha256(body.encode("ascii")).hexdigest()}
        with open(cache._path_for(str(span_dir), key), "w",
                  encoding="ascii") as fh:
            fh.write(json.dumps(header) + "\n" + body + "\n")
        assert cache.load_rows(key) is None

    def test_dependent_stored_rows_are_rebuilt(self, span_dir, shape22):
        gamma = Minor(shape22, (1,), (1,))
        try:
            spans_clear()
            # header and digest are consistent, but the second row is
            # q times the first, so re-inserting gives rank 1, not 2
            cache.store_rows(("ideal", 2, 2, (1,), (1,), 2),
                             [{(0, 0): 1}, {(0, 1): 1}])
            assert ideal_component(gamma, 2).rank == 1
            assert ideal_component(gamma, 2).contains(minor_value(
                Minor(shape22, (1, 2), (1, 2))))
        finally:
            spans_clear()
