"""Factor rings by excluded minors: ideals, bases, and normality."""

import hashlib
import itertools
import json
import os

import pytest

from qdet import cache, factor
from qdet.algebra import MatrixShape, NCPoly, graded_dim
from qdet.errors import (DegreeTooLarge, NoScalarFound, NotAboveGamma,
                         ShapeMismatch)
from qdet.factor import (IdealComponent, StandardMonomial, basis_check,
                         generator_image_check, generator_image_suite,
                         hilbert_check, hilbert_function, ideal_component,
                         normality_check, normality_scalar, quotient_is_zero, regularity_check, spans_clear,
                         standard_monomial_count, standard_monomials,
                         tower_image_check, zero_divisor_check)
from qdet.linalg import Echelon, component_basis
from qdet.minors import Minor, enumerate_minors, minor_value, std_le
from qdet.scalars import (LaurentScalar, RationalScalar, ONE, Q, RAT_ONE)
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
        for p in ic.row_polys():
            assert quotient_is_zero(g1312, p)


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

    def test_basis_check_refuses_before_expanding(self, g2413, monkeypatch):
        def expanded(*args):
            raise AssertionError("standard monomials expanded")

        monkeypatch.setattr(factor, "standard_monomials", expanded)
        with pytest.raises(DegreeTooLarge, match=r"\(guard 10000\)"):
            basis_check(g2413.shape, 4, g2413)

    def test_one_basis_per_component(self, g1312):
        for d in range(4):
            assert (component_basis(g1312.shape, d)
                    is ideal_component(g1312, d).basis)


class TestQuotient:
    def test_relations_modulo_corner(self, g11, shape22):
        x = lambda i, j: NCPoly.generator(shape22, i, j)
        assert quotient_is_zero(g11, NCPoly.zero(shape22))
        assert quotient_is_zero(g11, x(1, 1) * x(2, 2)
                                - (x(1, 2) * x(2, 1)).scale(Q))
        assert not quotient_is_zero(g11, x(1, 1))
        # mixed degrees are handled component by component
        dq = minor_value(Minor(shape22, (1, 2), (1, 2)))
        assert quotient_is_zero(g11, dq + x(1, 1) * dq)
        assert not quotient_is_zero(g11, dq + x(1, 1))

    def test_shape_guard(self, g11, shape33):
        with pytest.raises(ShapeMismatch):
            quotient_is_zero(g11, NCPoly.one(shape33))

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


def brute_chains(shape, degree, floor=None):
    """Exhaustive filter over raw factor tuples, as an oracle."""
    pool = [mn for mn in enumerate_minors(shape)
            if floor is None or std_le(floor, mn)]
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
        cases = [(shape22, 2, None), (shape22, 3, None), (shape22, 2, g11),
                 (shape22, 3, g11), (shape33, 2, None), (shape33, 2, g1312)]
        for shape, degree, floor in cases:
            got = {s.factors for s in standard_monomials(shape, degree, floor)}
            assert got == brute_chains(shape, degree, floor)

    def test_counts(self, shape22, g11):
        assert standard_monomial_count(shape22, 2) == 10
        assert standard_monomial_count(shape22, 2, floor=g11) == 9
        assert [standard_monomial_count(shape22, d, floor=g11)
                for d in range(5)] == [1, 4, 9, 16, 25]

    def test_chains_are_nondecreasing(self, shape33):
        for s in standard_monomials(shape33, 3):
            for a, b in zip(s.factors, s.factors[1:]):
                assert std_le(a, b)

    def test_order_is_depth_first_in_pool_order(self, shape22, shape33, g11,
                                                g1312):
        def recursive(shape, degree, floor):
            pool = [mn for mn in enumerate_minors(shape)
                    if floor is None or std_le(floor, mn)]

            def rec(chain, remaining):
                if remaining == 0:
                    yield chain
                    return
                for mn in pool:
                    if mn.size <= remaining and (not chain
                                                 or std_le(chain[-1], mn)):
                        yield from rec(chain + (mn,), remaining - mn.size)

            return list(rec((), degree))

        for shape, degree, floor in [(shape22, 4, None), (shape22, 3, g11),
                                     (shape33, 3, None), (shape33, 3, g1312),
                                     (shape22, 0, None), (shape22, -1, None)]:
            got = [s.factors for s in standard_monomials(shape, degree, floor)]
            assert got == recursive(shape, degree, floor)

    def test_long_chains_need_no_recursion(self):
        shape = MatrixShape(1, 1)
        chains = standard_monomials(shape, 1500)
        assert len(chains) == 1
        assert chains[0].factors == (Minor(shape, (1,), (1,)),) * 1500


class TestBasisChecks:
    def test_full_ring(self, shape22, shape33):
        for d in range(5):
            assert basis_check(shape22, d).passed
        for d in range(3):
            assert basis_check(shape33, d).passed

    def test_quotient_bases(self, g11, g1312):
        for d in range(5):
            assert basis_check(g11.shape, d, gamma=g11).passed
        for d in range(4):
            assert basis_check(g1312.shape, d, gamma=g1312).passed

    def test_shape_guard(self, shape33, g11):
        with pytest.raises(ShapeMismatch):
            basis_check(shape33, 2, gamma=g11)


class TestNormalityScalars:
    def test_corner_values(self, g11, shape22):
        want = {(1, 1): RAT_ONE,
                (1, 2): RationalScalar.from_laurent(Q),
                (2, 1): RationalScalar.from_laurent(Q),
                (2, 2): RationalScalar.from_laurent(Q ** 2)}
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

    def test_failure_paths(self, monkeypatch, shape22):
        full = Minor(shape22, (1, 2), (1, 2))

        class FakeComponent:
            def __init__(self, verdict):
                self.verdict = verdict
                self.basis = component_basis(shape22, 4)
                self.echelon = Echelon()

            def contains(self, p):
                return self.verdict

        # everything collapses: tau*gamma already vanishes
        monkeypatch.setattr("qdet.factor.ideal_component",
                            lambda *a, **k: FakeComponent(True))
        with pytest.raises(NoScalarFound, match="vanishes"):
            normality_scalar(full, full)

        # nothing vanishes and no relation is available: the solved scalar
        # for gamma = tau is 1, but re-verification is denied
        monkeypatch.setattr("qdet.factor.ideal_component",
                            lambda *a, **k: FakeComponent(False))
        with pytest.raises(NoScalarFound, match="re-verification"):
            normality_scalar(full, full)

        # gamma*tau not congruent to any multiple of tau*gamma
        g11 = Minor(shape22, (1,), (1,))
        fake = FakeComponent(False)
        fake.basis = component_basis(shape22, 2)
        monkeypatch.setattr("qdet.factor.ideal_component",
                            lambda *a, **k: fake)
        with pytest.raises(NoScalarFound, match="not congruent"):
            normality_scalar(g11, Minor(shape22, (2,), (2,)))


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
        rows = [{0: LaurentScalar({1: 1, -1: -1})},
                {2: ONE, 5: LaurentScalar({-3: 1})}]
        key = ("test", 1, (2, 3))
        cache.store_rows(key, rows)
        assert cache.load_rows(key) == rows
        assert cache.load_rows(("other",)) is None

    def test_corrupt_and_mismatched_files_are_misses(self, span_dir):
        key = ("test", 2)
        cache.store_rows(key, [{0: ONE}])
        path = cache._path_for(str(span_dir), key)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("{not json")
        assert cache.load_rows(key) is None
        cache.store_rows(key, [{0: ONE}])
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
            cache.store_rows(key, [{0: ONE}, {1: ONE}, {2: ONE}])
            spans_clear()
            assert ideal_component(gamma, 2).rank == 3
        finally:
            cache.set_cache_dir(None)
            spans_clear()
        assert ideal_component(gamma, 2).rank == want == 1


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
        row = rows[len(rows) // 2]
        row[-1][1][0][1] += 1


class TestDiskCacheIntegrity:
    """Tampered span files are misses: the spans are rebuilt, never trusted."""

    @pytest.mark.parametrize("edit", [_delete_middle_row,
                                      _edit_middle_coefficient])
    def test_tampered_spans_are_rebuilt(self, tmp_path, edit):
        config = WorkbenchConfig(m=3, n=3, gamma=((1, 3), (1, 2)),
                                 max_degree=3, suites=("factor-basis",),
                                 cache=str(tmp_path))
        try:
            spans_clear()
            first = run_workbench(config)
            assert first.ok
            files = sorted(tmp_path.glob("*.json"))
            assert files
            for path in files:
                _tamper_rows(path, edit)
            spans_clear()
            second = run_workbench(config)
            assert second.ok, [c.name for s in second.suites
                               for c in s.failed]
            assert second.counts() == first.counts()
        finally:
            cache.set_cache_dir(None)
            spans_clear()

    def test_missing_field_and_stale_rank_are_misses(self, span_dir):
        key = ("test", 3)
        rows = [{0: ONE}, {1: Q}]
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

    def test_dependent_stored_rows_are_rebuilt(self, span_dir, shape22):
        gamma = Minor(shape22, (1,), (1,))
        try:
            spans_clear()
            # header and digest are consistent, but the second row is
            # q times the first, so re-inserting gives rank 1, not 2
            cache.store_rows(("ideal", 2, 2, (1,), (1,), 2),
                             [{0: ONE}, {0: Q}])
            assert ideal_component(gamma, 2).rank == 1
            assert ideal_component(gamma, 2).contains(minor_value(
                Minor(shape22, (1, 2), (1, 2))))
        finally:
            spans_clear()
