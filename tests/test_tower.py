"""Tower frames, swap families, torus data, and Ore-type certificates."""

import itertools

import pytest

from qdet.algebra import MatrixShape, NCPoly, TorusElement, eigenvalue_of
from qdet.errors import (DegreeTooLarge, StageOutOfRange, UndefinedMember,
                         ZeroInput)
from qdet.minors import Minor, enumerate_minors, minor_value
from qdet import linalg, tower as tower_mod
from qdet.scalars import LaurentScalar, ONE, Q, Q_INV, QHAT, minus_q_power
from qdet.tower import (Frame, build_frame, check_h_actions,
                        family_relations_check, gamma_normality_check,
                        generator_count, member_torus, ore_step_check,
                        stage_monomials, stage_series_dims,
                        subalgebra_commutation_check, tower_stages)


@pytest.fixture
def frame1312(shape33):
    return build_frame(Minor(shape33, (1, 3), (1, 2)))


class TestFrame:
    def test_guards(self, shape22):
        with pytest.raises(ZeroInput):
            build_frame(Minor(shape22, (), ()))
        big = MatrixShape(6, 6)
        with pytest.raises(DegreeTooLarge):
            build_frame(Minor(big, (1,), (1,)))
        direct = Frame(Minor(big, (1,), (1,)))
        assert len(direct.family()) == 10

    def test_complements_and_added_indices(self, frame1312):
        assert frame1312.row_complement == (2,)
        assert frame1312.col_complement == (3,)
        assert frame1312.added_col(1) == 3
        assert frame1312.added_row(1) == 2

    def test_family_order(self, frame1312, shape33):
        fam = list(frame1312.family())
        assert [mb.label for mb in fam] == \
            ["col_swap[1,1]", "col_swap[1,2]", "row_swap[1,1]"]
        assert [mb.minor for mb in fam] == [
            Minor(shape33, (1, 3), (2, 3)),
            Minor(shape33, (1, 3), (1, 3)),
            Minor(shape33, (2, 3), (1, 2))]
        assert [mb.position for mb in fam] == [0, 1, 2]

    def test_swap_defined_iff_removed_below_added(self, frame1312):
        # removing row 3 would bring in the smaller row 2: undefined
        with pytest.raises(UndefinedMember):
            frame1312.member("row_swap", 1, 2)
        with pytest.raises(UndefinedMember):
            frame1312.member("col_swap", 2, 1)

    def test_base_generators(self, frame1312):
        labels = [g.label for g in frame1312.base_generators()]
        assert labels == ["x[1,1]", "x[1,2]", "x[3,1]", "x[3,2]"]
        assert all(g.degree == 1 for g in frame1312.base_generators())

    def test_generator_count(self, frame1312, shape33, shape34):
        assert generator_count(frame1312) == 7
        one = build_frame(Minor(MatrixShape(2, 2), (1,), (1,)))
        assert generator_count(one) == 3
        for shape in (shape33, shape34):
            for gamma in enumerate_minors(shape):
                fr = build_frame(gamma)
                t = fr.size
                assert generator_count(fr) == t * t + len(fr.family())


class TestTorusElements:
    def test_col_swap_entries(self, frame1312):
        h = member_torus(frame1312, frame1312.member("col_swap", 1, 1))
        assert h.alphas == (ONE, Q_INV, ONE)
        assert h.betas == (Q, ONE, LaurentScalar({-2: 1}))

    def test_row_swap_entries(self, frame1312):
        h = member_torus(frame1312, frame1312.member("row_swap", 1, 1))
        assert h.alphas == (Q, LaurentScalar({-2: 1}), ONE)
        assert h.betas == (ONE, ONE, Q_INV)

    def test_h_actions(self, frame1312, shape33):
        assert check_h_actions(frame1312).passed
        assert check_h_actions(
            build_frame(Minor(shape33, (2,), (1,)))).passed
        assert check_h_actions(
            build_frame(Minor(MatrixShape(2, 2), (1,), (1,)))).passed

    def test_naive_scaling_element_fails_on_members(self, shape33):
        # scaling only the removed column by q does fix the base variables,
        # but it cannot scale the earlier swap minors correctly; the q^-1
        # entries on outside rows and columns are forced
        fr = build_frame(Minor(shape33, (2,), (1,)))
        mb = fr.member("col_swap", 2, 1)
        naive = TorusElement(shape33, (ONE, ONE, ONE), (Q, ONE, ONE))
        base = minor_value(fr.minor)
        assert naive.act(base) == base.scale(Q)
        earlier = minor_value(fr.member("col_swap", 1, 1).minor)
        assert naive.act(earlier) != earlier.scale(Q_INV)
        real = member_torus(fr, mb)
        assert real.act(earlier) == earlier.scale(Q_INV)
        assert eigenvalue_of(real, earlier) == Q_INV


class TestFamilyRelations:
    def test_report_passes(self, frame1312):
        assert family_relations_check(frame1312).passed

    def test_same_row_pair_at_inverse_parameter(self, frame1312, shape33):
        c11 = minor_value(Minor(shape33, (1, 3), (2, 3)))
        c12 = minor_value(Minor(shape33, (1, 3), (1, 3)))
        assert c11 * c12 == (c12 * c11).scale(Q_INV)

    def test_kinds_commute(self, frame1312, shape33):
        r11 = minor_value(Minor(shape33, (2, 3), (1, 2)))
        for cols in ((2, 3), (1, 3)):
            c = minor_value(Minor(shape33, (1, 3), cols))
            assert c * r11 == r11 * c

    def test_all_3x3_frames(self, shape33):
        for gamma in enumerate_minors(shape33):
            fr = build_frame(gamma)
            assert family_relations_check(fr).passed, gamma


class TestSubalgebraCommutation:
    def test_report_passes(self, frame1312):
        rep = subalgebra_commutation_check(frame1312)
        assert rep.passed

    def test_first_removed_index_commutes_cleanly(self, frame1312, shape33):
        # removing the first kept column: x*mem = q*mem*x on the nose
        mem = minor_value(Minor(shape33, (1, 3), (2, 3)))
        for a in (1, 3):
            x = NCPoly.generator(shape33, a, 1)
            assert x * mem == (mem * x).scale(Q)

    def test_later_removed_index_straightens(self, shape33):
        # removing the second kept column leaves a correction term with
        # coefficient (q - q^-1)*(-q)
        mem = minor_value(Minor(shape33, (1, 3), (1, 3)))
        lower = minor_value(Minor(shape33, (1, 3), (2, 3)))
        for a in (1, 3):
            x2 = NCPoly.generator(shape33, a, 2)
            x1 = NCPoly.generator(shape33, a, 1)
            lhs = x2 * mem - (mem * x2).scale(Q)
            assert lhs == (lower * x1).scale(QHAT * minus_q_power(1))

    def test_qhat_minus_q_exponent_multiplies_out(self):
        dens = (ONE, Q + 2, LaurentScalar({2: 3, -1: -1}))
        for den in dens:
            for e in (1, 2, 3):
                num = den * QHAT * minus_q_power(e)
                assert tower_mod._qhat_minus_q_exponent(num, den) == e
                # the wrong sign of (-q)^e
                assert tower_mod._qhat_minus_q_exponent(-num, den) is None
            assert tower_mod._qhat_minus_q_exponent(den * QHAT, den) is None
            assert tower_mod._qhat_minus_q_exponent(LaurentScalar(),
                                                    den) is None
        # (q - q^-1) * (-q) over q + 1 is not a Laurent polynomial
        assert tower_mod._qhat_minus_q_exponent(QHAT * minus_q_power(1),
                                                Q + 1) is None
        # e = 0 is refused even when the quotient is exact
        assert tower_mod._qhat_minus_q_exponent(QHAT * (Q + 1),
                                                Q + 1) is None

    def test_untouched_variables_commute(self, frame1312, shape33):
        mem = minor_value(Minor(shape33, (1, 3), (1, 3)))
        for a in (1, 3):
            x = NCPoly.generator(shape33, a, 1)
            assert x * mem == mem * x


def brute_weighted_count(weights, d):
    bounds = [range(d // w + 1) for w in weights]
    return sum(1 for e in itertools.product(*bounds)
               if sum(x * w for x, w in zip(e, weights)) == d)


class TestStages:
    def test_stage_layout(self, frame1312):
        stages = tower_stages(frame1312)
        assert len(stages) == 4
        assert stages[0].index == -1 and stages[0].newest is None
        assert len(stages[0].generators) == 4
        assert len(stages[-1].generators) == 7
        assert stages[1].newest.label == "col_swap[1,1]"
        assert stages[3].newest.degree == 2

    def test_series_dims_against_brute_force(self):
        for weights in ((1, 1, 1, 1), (1, 1, 1, 1, 2), (1, 1, 1, 1, 2, 2),
                        (1, 1, 1, 1, 2, 2, 2), (2, 3), ()):
            dims = stage_series_dims(weights, 5)
            assert dims == [brute_weighted_count(weights, d)
                            for d in range(6)], weights

    def test_frozen_series(self):
        assert stage_series_dims((1, 1, 1, 1, 2), 4) == [1, 4, 11, 24, 46]
        assert stage_series_dims((1, 1, 1, 1, 2, 2), 4) == [1, 4, 12, 28, 58]
        assert stage_series_dims((1, 1, 1, 1, 2, 2, 2), 4) == [1, 4, 13, 32, 71]

    def test_stage_monomials(self, frame1312):
        stages = tower_stages(frame1312)
        monos = stage_monomials(stages[1], 2)
        assert len(monos) == 11
        for exps, p in monos:
            assert len(exps) == 5
            assert sum(e * g.degree for e, g in
                       zip(exps, stages[1].generators)) == 2
            assert not p.is_zero


def naive_stage_monomials(stage, d):
    """Each ordered product rebuilt left to right from 1, no sharing."""
    weights = [g.degree for g in stage.generators]
    out = []
    for exps in tower_mod._weighted_exponents(weights, d):
        prod = NCPoly.one(stage.frame.shape)
        for g, e in zip(stage.generators, exps):
            for _ in range(e):
                prod = prod * g.value
        out.append((exps, prod))
    return out


class TestProductMemo:
    def test_memo_matches_naive_products(self, shape33):
        frames = [build_frame(mn) for mn in enumerate_minors(shape33)]
        frames.append(build_frame(Minor(MatrixShape(4, 4), (2, 4), (1, 3))))
        for fr in frames:
            for stage in tower_stages(fr):
                for d in range(5):
                    got = stage_monomials(stage, d)
                    want = naive_stage_monomials(stage, d)
                    assert [e for e, _ in got] == [e for e, _ in want]
                    assert got == want, (fr, stage.index, d)

    def test_second_call_returns_the_same_objects(self, frame1312):
        stages = tower_stages(frame1312)
        first = stage_monomials(stages[-1], 3)
        again = stage_monomials(tower_stages(frame1312)[-1], 3)
        assert len(first) == len(again)
        assert all(p is r for (_, p), (_, r) in zip(first, again))

    def test_products_are_shared_across_stages(self, frame1312):
        stages = tower_stages(frame1312)
        short = dict(stage_monomials(stages[0], 2))
        for exps, p in stage_monomials(stages[-1], 2):
            head, tail = exps[:4], exps[4:]
            if not any(tail):
                assert short[head] is p

    def test_fresh_frame_starts_empty(self, shape33):
        gamma = Minor(shape33, (1, 3), (1, 2))
        used = build_frame(gamma)
        assert used._products == {}
        stage_monomials(tower_stages(used)[-1], 2)
        assert used._products
        assert build_frame(gamma)._products == {}


class TestOreSteps:
    def test_full_tower_dims(self, frame1312):
        want = {0: [1, 4, 11, 24], 1: [1, 4, 12, 28], 2: [1, 4, 13, 32]}
        for idx in range(3):
            out = ore_step_check(frame1312, idx, max_degree=3)
            assert out.passed, out.report.failed
            assert [actual for _, _, actual in out.dims] == want[idx]
            assert [pred for _, pred, _ in out.dims] == want[idx]
            assert all(lam is not None for _, lam in out.eigenvalues)

    def test_row_swap_fixes_col_swaps(self, frame1312):
        out = ore_step_check(frame1312, 2, max_degree=2)
        vanish = [c for c in out.report.checks if c.name.endswith("vanishes")]
        assert len(vanish) == 2
        assert all(c.status == "pass" for c in vanish)

    def test_2x2_corner(self, shape22):
        fr = build_frame(Minor(shape22, (1,), (1,)))
        for idx in range(2):
            out = ore_step_check(fr, idx, max_degree=3)
            assert out.passed

    def test_stage_bounds(self, frame1312):
        with pytest.raises(StageOutOfRange):
            ore_step_check(frame1312, 3)
        with pytest.raises(StageOutOfRange):
            ore_step_check(frame1312, -1)
        with pytest.raises(StageOutOfRange):
            ore_step_check(frame1312, 2, max_degree=1)


class TestWitnessRecombination:
    def test_rational_witness_fails_instead_of_raising(self, frame1312,
                                                       monkeypatch):
        real = linalg.Span.express

        def skewed(self, target):
            witness = real(self, target)
            if witness is None:
                return None
            nums, den = witness
            # the true coefficients times q / (q + 2): a wrong witness
            return [n * Q for n in nums], den * (Q + 2)

        monkeypatch.setattr(linalg.Span, "express", skewed)
        out = ore_step_check(frame1312, 1, max_degree=2)
        witnessed = [c for c in out.report.checks
                     if c.witness.startswith("witness over")]
        assert len(witnessed) == 2
        assert not any(c.status == "pass" for c in witnessed)

    def test_one_span_per_degree(self, shape33, monkeypatch):
        built = []

        class CountingSpan(linalg.Span):
            def __init__(self, spanning, width, base=None):
                built.append(width)
                super().__init__(spanning, width, base)

        monkeypatch.setattr(tower_mod, "Span", CountingSpan)
        frame = build_frame(Minor(shape33, (2, 3), (1, 2)))
        last = len(frame.family()) - 1
        out = ore_step_check(frame, last, max_degree=3)
        assert out.passed, out.report.failed
        witnessed = [c for c in out.report.checks
                     if c.witness.startswith("witness over")]
        assert len(witnessed) > len(built) >= 1
        # one width per degree: no degree's span is built twice
        assert len(set(built)) == len(built)


class TestGammaNormality:
    def test_reports_pass(self, frame1312, shape22):
        assert gamma_normality_check(frame1312).passed
        assert gamma_normality_check(
            build_frame(Minor(shape22, (1,), (1,)))).passed

    def test_explicit_q_commutation(self, frame1312, shape33):
        gval = minor_value(frame1312.minor)
        mem = minor_value(Minor(shape33, (1, 3), (2, 3)))
        assert gval * mem == (mem * gval).scale(Q)
        x = NCPoly.generator(shape33, 3, 2)
        assert gval * x == x * gval
