"""Tower frames, swap families, torus data, and Ore-type certificates."""

import collections
import itertools

import pytest

from conftest import express, member, rank
from qdet.algebra import MatrixShape, NCPoly, TorusElement, eigenvalue_of
from qdet.errors import (DegreeTooLarge, StageOutOfRange, UndefinedMember,
                         WorkbenchError, ZeroInput)
from qdet.minors import Minor, enumerate_minors, minor_value
from qdet import linalg, tower as tower_mod
from qdet.scalars import Q, Q_INV, QHAT, minus_q_power
from qdet.suites import WorkbenchConfig, run_suite
from qdet.tower import (Frame, build_frame, check_h_actions,
                        family_relations_check, gamma_normality_check,
                        generator_count, member_torus, ore_step_check,
                        predicted_delta, stage_monomials, stage_series_dims,
                        subalgebra_commutation_check)


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
            member(frame1312, "row_swap", 1, 2)
        with pytest.raises(UndefinedMember):
            member(frame1312, "col_swap", 2, 1)

    def test_base_generators(self, frame1312):
        base = frame1312.generators()[:4]
        assert [g.label for g in base] == ["x[1,1]", "x[1,2]", "x[3,1]",
                                           "x[3,2]"]
        assert all(g.degree == 1 for g in base)
        assert frame1312.generators() is frame1312.generators()

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
        h = member_torus(frame1312, member(frame1312, "col_swap", 1, 1))
        assert h.alphas == (0, -1, 0)
        assert h.betas == (1, 0, -2)

    def test_row_swap_entries(self, frame1312):
        h = member_torus(frame1312, member(frame1312, "row_swap", 1, 1))
        assert h.alphas == (1, -2, 0)
        assert h.betas == (0, 0, -1)

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
        mb = member(fr, "col_swap", 2, 1)
        naive = TorusElement(shape33, (0, 0, 0), (1, 0, 0))
        base = minor_value(fr.minor)
        assert naive.act(base) == base.scale(Q)
        earlier = minor_value(member(fr, "col_swap", 1, 1).minor)
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

    # m, n and the number of relations with a nonzero lhs over all frames
    @pytest.mark.parametrize("m, n, relations", [
        (2, 2, 0), (2, 3, 2), (3, 2, 2), (3, 3, 12), (3, 4, 45), (4, 4, 168)])
    def test_prediction_matches_the_solved_coefficients(self, m, n,
                                                        relations):
        solved = 0
        for gamma in enumerate_minors(MatrixShape(m, n)):
            frame = build_frame(gamma)
            for mb, lower, nums, den in solved_straightening(frame):
                for s, num in zip(lower, nums):
                    assert den * QHAT * minus_q_power(mb.j - s) == num, \
                        (gamma, mb.label, s)
                solved += 1
            assert subalgebra_commutation_check(frame).passed, gamma
        assert solved == relations

    def test_witness_prints_each_predicted_coefficient(self, frame1312):
        rep = subalgebra_commutation_check(frame1312)
        witnesses = {c.name: c.witness for c in rep.checks
                     if c.name.startswith("straighten")}
        assert witnesses == {
            "straighten x[1,1] col_swap[1,1]": "lhs vanishes",
            "straighten x[3,1] col_swap[1,1]": "lhs vanishes",
            "straighten x[1,2] col_swap[1,2]": "col_swap[1,1]: -q^2 + 1",
            "straighten x[3,2] col_swap[1,2]": "col_swap[1,1]: -q^2 + 1",
            "straighten x[1,1] row_swap[1,1]": "lhs vanishes",
            "straighten x[1,2] row_swap[1,1]": "lhs vanishes"}

    def test_untouched_variables_commute(self, frame1312, shape33):
        mem = minor_value(Minor(shape33, (1, 3), (1, 3)))
        for a in (1, 3):
            x = NCPoly.generator(shape33, a, 1)
            assert x * mem == mem * x


def solved_straightening(frame):
    """The straightening coefficients solved for by elimination.

    The reference for the prediction in subalgebra_commutation_check: for
    each base variable x on a member's removed index with a nonzero
    x*mem - q*mem*x, the reference solver writes it over the lower
    same-kind members times base variables.  Yields (member, s values, nums, den)
    with den * c_s == nums[k] for the k-th lower member s.
    """
    shape = frame.shape
    values = {(mb.kind, mb.i, mb.j): minor_value(mb.minor)
              for mb in frame.family()}
    for mb in frame.family():
        val = values[(mb.kind, mb.i, mb.j)]
        for a in frame.rows:
            for b in frame.cols:
                col = mb.kind == "col_swap"
                removed = (frame.cols if col else frame.rows)[mb.j - 1]
                if (b if col else a) != removed:
                    continue
                x = NCPoly.generator(shape, a, b)
                lhs = x * val - (val * x).scale(Q)
                if lhs.is_zero:
                    continue
                lower = [s for s in range(1, mb.j)
                         if (mb.kind, mb.i, s) in values]
                polys = [values[(mb.kind, mb.i, s)]
                         * (NCPoly.generator(shape, a, frame.cols[s - 1])
                            if col else
                            NCPoly.generator(shape, frame.rows[s - 1], b))
                         for s in lower]
                basis = linalg.component_basis(shape, lhs.degree())
                witness = express(linalg.poly_row(lhs, basis),
                                  [linalg.poly_row(p, basis) for p in polys],
                                  len(basis))
                assert witness is not None, (frame, mb.label, a, b)
                nums, den = witness
                yield mb, lower, nums, den


def brute_weighted_count(weights, d):
    bounds = [range(d // w + 1) for w in weights]
    return sum(1 for e in itertools.product(*bounds)
               if sum(x * w for x, w in zip(e, weights)) == d)


class TestStages:
    def test_stage_layout(self, frame1312):
        gens = frame1312.generators()
        assert len(gens) == generator_count(frame1312) == 7
        assert [g.label for g in gens[4:]] == [
            mb.label for mb in frame1312.family()]
        assert gens[4].label == "col_swap[1,1]"
        assert [g.degree for g in gens] == [1, 1, 1, 1, 2, 2, 2]
        assert all(g.value == minor_value(mb.minor)
                   for g, mb in zip(gens[4:], frame1312.family()))

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
        monos = stage_monomials(frame1312, 5, 2)
        assert len(monos) == 11
        assert len(set(monos)) == 11
        for p in monos:
            assert not p.is_zero
            assert p.degree() == 2


def naive_stage_monomials(frame, k, d):
    """Every ordered product of the first k generators in degree d, each
    multiplied left to right from 1, no sharing.

    An ordered product is a nondecreasing word in the generator indices;
    every such word of at most d letters is tried and kept when its
    degrees sum to d.
    """
    gens = frame.generators()[:k]
    out = []
    for length in range(d + 1):
        for word in itertools.combinations_with_replacement(range(k), length):
            if sum(gens[i].degree for i in word) != d:
                continue
            prod = NCPoly.one(frame.shape)
            for i in word:
                prod = prod * gens[i].value
            out.append(prod)
    return out


def product_frames(shape33):
    frames = [build_frame(mn) for mn in enumerate_minors(shape33)]
    frames.append(build_frame(Minor(MatrixShape(4, 4), (2, 4), (1, 3))))
    return frames


class TestProductMemo:
    def test_memo_matches_naive_products(self, shape33):
        for fr in product_frames(shape33):
            # descending degrees: the memo must not rely on call order
            for k in range(len(fr.generators()) + 1):
                for d in range(4, -1, -1):
                    got = collections.Counter(stage_monomials(fr, k, d))
                    want = collections.Counter(naive_stage_monomials(fr, k, d))
                    assert got == want, (fr, k, d)

    def test_list_lengths_match_the_series(self, shape33):
        for fr in product_frames(shape33):
            weights = [g.degree for g in fr.generators()]
            for k in range(len(weights) + 1):
                dims = stage_series_dims(weights[:k], 4)
                assert [len(stage_monomials(fr, k, d))
                        for d in range(5)] == dims, (fr, k)

    def test_second_call_returns_the_same_objects(self, frame1312):
        first = stage_monomials(frame1312, 7, 3)
        again = stage_monomials(frame1312, 7, 3)
        assert len(first) == 32
        assert all(p is r for p, r in zip(first, again))

    def test_products_are_shared_across_stages(self, shape33):
        # L(k-1, d) is a prefix of L(k, d), holding the same objects
        for fr in product_frames(shape33):
            for k in range(1, len(fr.generators()) + 1):
                for d in range(5):
                    short = stage_monomials(fr, k - 1, d)
                    head = stage_monomials(fr, k, d)[:len(short)]
                    assert len(head) == len(short)
                    assert all(p is r for p, r in zip(short, head)), (fr, k, d)

    def test_fresh_frame_starts_empty(self, shape33):
        gamma = Minor(shape33, (1, 3), (1, 2))
        used = build_frame(gamma)
        assert used._products == {}
        stage_monomials(used, 7, 2)
        assert used._products
        assert build_frame(gamma)._products == {}

    def test_recursion_depth_does_not_grow_with_the_degree(self):
        # a degree above the default recursion limit of 1000, asked first
        fr = build_frame(Minor(MatrixShape(1, 1), (1,), (1,)))
        x = NCPoly.generator(fr.shape, 1, 1)
        top = stage_monomials(fr, 1, 1200)
        assert top == [stage_monomials(fr, 1, 1199)[0] * x]


def stage_dims(frame, idx, max_degree):
    """The generating-series dimensions of the stage that adjoins the
    idx-th family member, degrees 0..max_degree."""
    gens = frame.generators()[:frame.size ** 2 + idx + 1]
    return stage_series_dims([g.degree for g in gens], max_degree)


def dim_checks(out):
    """The "dim degree d" checks of one Ore step, in degree order; one
    passes only when rank == predicted == number of products."""
    return [c for c in out.checks if c.name.startswith("dim degree")]


class TestOreSteps:
    def test_full_tower_dims(self, frame1312, shape33):
        want = {0: [1, 4, 11, 24], 1: [1, 4, 12, 28], 2: [1, 4, 13, 32]}
        steps = ore_step_check(frame1312, max_degree=3)
        assert len(steps) == 3
        for idx, out in enumerate(steps):
            assert out.passed, out.failed
            assert stage_dims(frame1312, idx, 3) == want[idx]
            assert [c.name for c in dim_checks(out)] == [
                "dim degree %d" % d for d in range(4)]
            assert [c.witness for c in dim_checks(out)] == [
                "predicted %d, rank %d, products %d" % (w, w, w)
                for w in want[idx]]
            eigen = [c for c in out.checks if c.name.startswith("eigenvector")]
            assert len(eigen) == 4 + idx
            assert all(c.status == "pass" for c in eigen)
        # degree-3 deltas of 1,2|1,2 in two stages, over 24 and then 32
        # ordered products of the previous stage
        frame = build_frame(Minor(shape33, (1, 2), (1, 2)))
        witnessed = {c.witness for out in ore_step_check(frame, max_degree=3)
                     for c in out.checks
                     if c.witness.startswith("witness over")}
        assert sorted(witnessed) == ["witness over 24 ordered products",
                                     "witness over 32 ordered products"]

    def test_row_swap_fixes_col_swaps(self, frame1312):
        out = ore_step_check(frame1312, max_degree=2)[2]
        vanish = [c for c in out.checks if c.name.endswith("vanishes")]
        assert len(vanish) == 2
        assert all(c.status == "pass" for c in vanish)

    def test_2x2_corner(self, shape22):
        fr = build_frame(Minor(shape22, (1,), (1,)))
        steps = ore_step_check(fr, max_degree=3)
        assert len(steps) == 2
        for out in steps:
            assert out.passed

    def test_stage_bounds(self, frame1312):
        with pytest.raises(StageOutOfRange):
            ore_step_check(frame1312, max_degree=1)

    def test_product_guard_trips_before_any_product(self, monkeypatch):
        """5x5 1,2,3|1,2,3 has 5061 ordered products in degree 6 and 13077
        in degree 7; a frame without members builds none at any degree."""
        class Built(Exception):
            pass

        def refuse(frame, k, d):
            raise Built
        monkeypatch.setattr(tower_mod, "stage_monomials", refuse)
        shape = MatrixShape(5, 5)
        frame = build_frame(Minor(shape, (1, 2, 3), (1, 2, 3)))
        assert max(stage_series_dims(
            [g.degree for g in frame.generators()], 7)) == 13077
        with pytest.raises(DegreeTooLarge, match="13077 ordered products"):
            ore_step_check(frame, max_degree=7)
        with pytest.raises(Built):
            ore_step_check(frame, max_degree=6)
        full = build_frame(Minor(shape, (1, 2, 3, 4, 5), (1, 2, 3, 4, 5)))
        assert ore_step_check(full, max_degree=7) == []
        config = WorkbenchConfig(m=5, n=5, gamma=((1, 2, 3), (1, 2, 3)),
                                 max_degree=7, suites=("ore-tower",))
        with pytest.raises(DegreeTooLarge, match="^suite ore-tower: "):
            run_suite("ore-tower", config)

    def test_product_guard_at_its_bound(self, monkeypatch):
        """1x2 1|1 has d + 1 ordered products in degree d: degree 9999
        has DIM_GUARD of them and passes, degree 10000 one more."""
        class Built(Exception):
            pass

        def refuse(frame, k, d):
            raise Built
        monkeypatch.setattr(tower_mod, "stage_monomials", refuse)
        frame = build_frame(Minor(MatrixShape(1, 2), (1,), (1,)))
        with pytest.raises(Built):
            ore_step_check(frame, max_degree=9999)
        with pytest.raises(DegreeTooLarge, match="10001 ordered products"):
            ore_step_check(frame, max_degree=10000)

    def test_dims_match_a_rank_from_scratch(self, shape33):
        """The walk's dimension checks pass, and each stage's series
        equals a rank from scratch over its products."""
        for fr in product_frames(shape33):
            steps = ore_step_check(fr, max_degree=4)
            assert len(steps) == len(fr.family())
            for idx, out in enumerate(steps):
                label = fr.family()[idx].label
                assert out.params["member"] == label
                assert all(c.status == "pass" for c in dim_checks(out))
                k = fr.size ** 2 + idx + 1
                for d, predicted in enumerate(stage_dims(fr, idx, 4)):
                    basis = linalg.component_basis(fr.shape, d)
                    want = rank(linalg.poly_row(p, basis)
                                for p in stage_monomials(fr, k, d))
                    assert predicted == want, (fr, label, d)


    def test_wrong_prediction_fails_instead_of_raising(self, frame1312,
                                                       monkeypatch):
        real = tower_mod.predicted_delta

        def skewed(frame, member, idx, values):
            # q times the true relation: wrong wherever delta is nonzero
            return real(frame, member, idx, values).scale(Q)

        monkeypatch.setattr(tower_mod, "predicted_delta", skewed)
        out = ore_step_check(frame1312, max_degree=2)[1]
        assert [c.name for c in out.failed] == [
            "delta(x[1,2])", "delta(x[3,2])"]
        assert {c.witness for c in out.failed} == {
            "differs from the predicted relation"}

    def test_no_basis_above_max_degree(self, shape34, monkeypatch):
        # 1,2|1,2 of 3x4 has a diagonal delta in degree 4: it is proved by
        # a product comparison, with no degree-4 basis; the dimension
        # check (c) numbers the monomials its products touch, so no
        # ambient basis is built in any degree
        asked = []
        real = linalg.GradedBasis
        monkeypatch.setattr(linalg, "GradedBasis",
                            lambda shape, d: asked.append(d) or real(shape, d))
        linalg.component_basis.cache_clear()
        frame = build_frame(Minor(shape34, (1, 2), (1, 2)))
        out = ore_step_check(frame, max_degree=3)[3]
        assert frame.family()[3].label == "col_swap[2,2]"
        assert out.passed
        diagonal = [c for c in out.checks
                    if c.name == "delta(col_swap[1,1])"]
        assert [c.witness for c in diagonal] == [
            "witness over %d ordered products"
            % len(stage_monomials(frame, 7, 4))]
        assert asked == []


def nonzero_deltas(frame):
    """(member, k, idx, delta) for each nonzero twisted derivation: the
    member adjoined at stage k + 1 against the idx-th tower generator."""
    gens = frame.generators()
    base = frame.size ** 2
    for member in frame.family():
        k = base + member.position
        x = gens[k].value
        h = member_torus(frame, member)
        for idx, g in enumerate(gens[:k]):
            sigma = eigenvalue_of(h, g.value).unit_inverse()
            delta = x * g.value - g.value.scale(sigma) * x
            if not delta.is_zero:
                yield member, k, idx, delta


class TestDeltaPrediction:
    """Each twisted derivation equals its closed form and lies in the
    span of the previous stage's ordered products, solved for."""

    # nonzero deltas over all frames, and the diagonal ones among them
    @pytest.mark.parametrize("m, n, count, diagonal", [
        (3, 3, 12, 0), (3, 4, 48, 3)])
    def test_prediction_matches_a_solved_witness(self, m, n, count,
                                                 diagonal):
        shape = MatrixShape(m, n)
        seen = diagonals = 0
        for gamma in enumerate_minors(shape):
            frame = build_frame(gamma)
            for member, k, idx, delta in nonzero_deltas(frame):
                values = frame.member_values(member.kind)
                assert delta == predicted_delta(frame, member, idx, values), \
                    (gamma, member.label, idx)
                d = delta.degree()
                basis = linalg.component_basis(shape, d)
                polys = stage_monomials(frame, k, d)
                witness = express(linalg.poly_row(delta, basis),
                                  [linalg.poly_row(p, basis) for p in polys],
                                  len(basis))
                assert witness is not None, (gamma, member.label, idx)
                nums, den = witness
                back = NCPoly.zero(shape)
                for p, num in zip(polys, nums):
                    back = back + p.scale(num)
                assert back == delta.scale(den)
                seen += 1
                diagonals += idx >= frame.size ** 2
        assert (seen, diagonals) == (count, diagonal)

    def test_witness_counts_the_previous_stage(self, shape33):
        witnessed = 0
        for gamma in enumerate_minors(shape33):
            frame = build_frame(gamma)
            gens = {g.label: g for g in frame.generators()}
            steps = ore_step_check(frame, max(3, frame.size))
            for position, out in enumerate(steps):
                k = frame.size ** 2 + position
                for c in out.checks:
                    if not c.witness.startswith("witness over"):
                        continue
                    d = gens[c.name[len("delta("):-1]].degree + frame.size
                    assert c.witness == "witness over %d ordered products" \
                        % len(stage_monomials(frame, k, d))
                    witnessed += 1
        assert witnessed == 12

    def test_other_kind_under_a_col_swap_raises(self, shape33):
        frame = build_frame(Minor(shape33, (1, 2), (1, 2)))
        col = member(frame, "col_swap", 1, 1)
        row = member(frame, "row_swap", 1, 1)
        idx = frame.size ** 2 + row.position
        with pytest.raises(WorkbenchError):
            predicted_delta(frame, col, idx, frame.member_values(col.kind))


class TestGammaNormality:
    def test_reports_pass(self, frame1312, shape22):
        assert gamma_normality_check(frame1312).passed
        assert gamma_normality_check(
            build_frame(Minor(shape22, (1,), (1,)))).passed

    def test_witnesses_name_the_scalar(self, frame1312, monkeypatch):
        rep = gamma_normality_check(frame1312)
        base = frame1312.size ** 2
        assert [c.witness for c in rep.checks] == (
            ["scalar 1"] * base + ["scalar q"] * len(frame1312.family()))
        # a wrong expectation for the family members fails, and says so
        monkeypatch.setattr(tower_mod, "Q", Q_INV)
        failed = gamma_normality_check(frame1312).failed
        assert len(failed) == len(frame1312.family())
        assert {c.witness for c in failed} == {"expected scalar q^-1"}

    def test_explicit_q_commutation(self, frame1312, shape33):
        gval = minor_value(frame1312.minor)
        mem = minor_value(Minor(shape33, (1, 3), (2, 3)))
        assert gval * mem == (mem * gval).scale(Q)
        x = NCPoly.generator(shape33, 3, 2)
        assert gval * x == x * gval
