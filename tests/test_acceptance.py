"""Acceptance gate: eleven exact checks covering the whole workbench.

Every test computes its claim with exact Laurent arithmetic (no floats,
no tolerances), prints a single PASS or FAIL line, and asserts.  Run with
``pytest -s tests/test_acceptance.py`` to see the lines as they print.
"""

import itertools
import random

from conftest import at_q, commutative_product
from qdet.algebra import MatrixShape, NCPoly
from qdet.factor import (basis_check, generator_image_check,
                         generator_image_suite, hilbert_check,
                         hilbert_function, normality_check, normality_scalar,
                         regularity_check, zero_divisor_check)
from qdet.minors import (Minor, enumerate_minors, laplace_relation,
                         laplace_row_relation, minor_value,
                         quantum_determinant)
from qdet.scalars import LaurentScalar, ONE, Q, Q_INV
from qdet.tower import (build_frame, check_h_actions, family_relations_check,
                        generator_count, ore_step_check, stage_series_dims,
                        subalgebra_commutation_check)

SHAPE22 = MatrixShape(2, 2)
SHAPE33 = MatrixShape(3, 3)
SHAPE34 = MatrixShape(3, 4)
SHAPE44 = MatrixShape(4, 4)


def verdict(ok, label):
    print("%s: %s" % ("PASS" if ok else "FAIL", label))
    assert ok, label


def random_poly(rng, shape, max_terms=2, max_len=3):
    p = NCPoly.zero(shape)
    for _ in range(rng.randint(1, max_terms)):
        word = NCPoly.one(shape)
        for _ in range(rng.randint(0, max_len)):
            i = rng.randint(1, shape.m)
            j = rng.randint(1, shape.n)
            word = word * NCPoly.generator(shape, i, j)
        coeff = LaurentScalar({rng.randint(-2, 2): rng.choice((1, -1, 2))})
        p = p + word.scale(coeff)
    return p


def test_criterion_01_products_associate_and_commute_at_q_one():
    rng = random.Random(20260816)
    ok = True
    for _ in range(200):
        a = random_poly(rng, SHAPE33)
        b = random_poly(rng, SHAPE33)
        c = random_poly(rng, SHAPE33)
        ok = ok and (a * b) * c == a * (b * c)
    for _ in range(30):
        a = random_poly(rng, SHAPE33)
        b = random_poly(rng, SHAPE33)
        ok = ok and at_q(a * b, 1) == commutative_product(at_q(a, 1),
                                                          at_q(b, 1))
    verdict(ok, "products of 200 random triples associate exactly and "
                "commute after setting q = 1")


def test_criterion_02_laplace_expansions_hold_on_all_small_shapes():
    total = 0
    ok = True
    for m in range(1, 5):
        for n in range(1, 5):
            shape = MatrixShape(m, n)
            for k in range(1, min(m, n - 1, 3) + 1):
                for rows in itertools.combinations(range(1, m + 1), k):
                    for cols in itertools.combinations(range(1, n + 1), k + 1):
                        for r in range(1, m + 1):
                            total += 1
                            ok = ok and laplace_relation(
                                shape, rows, cols, r).holds
            for k in range(1, min(n, m - 1, 3) + 1):
                for rows in itertools.combinations(range(1, m + 1), k + 1):
                    for cols in itertools.combinations(range(1, n + 1), k):
                        for s in range(1, n + 1):
                            total += 1
                            ok = ok and laplace_row_relation(
                                shape, rows, cols, s).holds
    ok = ok and total == 988
    verdict(ok, "all %d Laplace-style expansions vanish on every shape "
                "up to 4x4" % total)


def test_criterion_03_quantum_determinant_is_central():
    ok = True
    for shape in (SHAPE22, SHAPE33):
        dq = minor_value(quantum_determinant(shape))
        for (i, j) in shape.gens():
            x = NCPoly.generator(shape, i, j)
            ok = ok and dq * x == x * dq
    dq = minor_value(quantum_determinant(SHAPE33))
    for mn in enumerate_minors(SHAPE33):
        v = minor_value(mn)
        ok = ok and dq * v == v * dq
    verdict(ok, "the quantum determinant commutes exactly with every "
                "generator and every minor (2x2 and 3x3)")


def test_criterion_04_two_by_four_minor_commutator():
    shape = MatrixShape(2, 4)
    a = minor_value(Minor(shape, (1, 2), (2, 4)))
    b = minor_value(Minor(shape, (1, 2), (1, 3)))
    c = minor_value(Minor(shape, (1, 2), (1, 4)))
    d = minor_value(Minor(shape, (1, 2), (2, 3)))
    ok = a * b - b * a == (c * d).scale(Q_INV - Q)
    verdict(ok, "the 2x4 commutator [1,2|2,4][1,2|1,3] - [1,2|1,3][1,2|2,4] "
                "equals (q^-1 - q)[1,2|1,4][1,2|2,3]")


def test_criterion_05_torus_actions_and_family_commutations():
    frames = 0
    ok = True
    for shape in (SHAPE33, SHAPE34):
        for gamma in enumerate_minors(shape):
            frame = build_frame(gamma)
            frames += 1
            ok = ok and check_h_actions(frame).passed
            ok = ok and family_relations_check(frame).passed
            ok = ok and subalgebra_commutation_check(frame).passed
    ok = ok and frames == 53
    verdict(ok, "torus scaling, family commutation, and base-subalgebra "
                "commutation certified for all %d minors of 3x3 and 3x4"
                % frames)


def test_criterion_06_ore_tower_stages_match_predicted_dimensions():
    frame = build_frame(Minor(SHAPE33, (1, 3), (1, 2)))
    expected = {
        0: [1, 4, 11, 24, 46],
        1: [1, 4, 12, 28, 58],
        2: [1, 4, 13, 32, 71],
    }
    steps = ore_step_check(frame, max_degree=4)
    ok = len(steps) == 3
    gens = frame.generators()
    for idx, step in enumerate(steps):
        # a dimension check passes only when rank == predicted == count
        ok = ok and step.passed
        ok = ok and stage_series_dims([g.degree for g in gens[:5 + idx]],
                                      4) == expected[idx]
        ok = ok and [c.witness for c in step.checks
                     if c.name.startswith("dim degree")] == [
            "predicted %d, rank %d, products %d" % (w, w, w)
            for w in expected[idx]]
    ok = ok and expected[2][2] == 13
    ok = ok and generator_count(frame) == 7
    verdict(ok, "all three skew extension stages over minor[1,3|1,2] match "
                "their generating-series dimensions up to degree 4")


def test_criterion_07_generator_counts_match_both_formulas():
    checked = 0
    ok = True
    for shape in (SHAPE33, SHAPE34, SHAPE44):
        for mn in enumerate_minors(shape):
            frame = build_frame(mn)
            count = generator_count(frame)
            t = mn.size
            ok = ok and count == t * t + len(frame.family())
            ok = ok and count == ((shape.m + shape.n + 1) * t
                                  - sum(mn.rows) - sum(mn.cols))
            checked += 1
    ok = ok and checked == 19 + 34 + 69
    verdict(ok, "generator counts agree with both closed formulas for all "
                "%d minors of 3x3, 3x4, and 4x4" % checked)


def test_criterion_08_standard_monomials_are_graded_bases():
    ok = True
    for d in range(5):
        ok = ok and basis_check(Minor(SHAPE22, (1, 2), (1, 2)), d).passed
    g11 = Minor(SHAPE22, (1,), (1,))
    ok = ok and hilbert_function(g11, 4) == [1, 4, 9, 16, 25]
    for gamma in enumerate_minors(SHAPE33):
        ok = ok and hilbert_check(gamma, 3).passed
    verdict(ok, "standard monomials are exact graded bases of the 2x2 ring "
                "and of every 3x3 factor ring up to degree 3")


def test_criterion_09_normality_scalars_exist_and_solve():
    total = 0
    ok = True
    for gamma in enumerate_minors(SHAPE33):
        rep = normality_check(gamma)
        total += len(rep.checks)
        ok = ok and rep.passed
    ok = ok and total == 155
    g11 = Minor(SHAPE22, (1,), (1,))
    corner = {
        (1, 1): ONE,
        (1, 2): Q,
        (2, 1): Q,
        (2, 2): Q ** 2,
    }
    for (i, j), want in corner.items():
        tau = Minor(SHAPE22, (i,), (j,))
        ok = ok and normality_scalar(g11, tau) == want
    verdict(ok, "all %d predicted normality scalars over 3x3 are proved "
                "in the ideal, with the 2x2 corner table 1, q, q, q^2" % total)


def test_criterion_10_generator_images_decompose_in_the_quotient():
    pairs = 0
    ok = True
    for shape, gamma in ((SHAPE33, Minor(SHAPE33, (1, 3), (1, 2))),
                         (SHAPE22, Minor(SHAPE22, (1,), (1,)))):
        ok = ok and generator_image_suite(gamma).passed
        for (r, s) in shape.gens():
            ok = ok and generator_image_check(gamma, r, s).passed
            pairs += 1
    ok = ok and pairs == 13
    verdict(ok, "every generator image decomposes into surviving minors "
                "modulo the excluded ideal (%d generator positions)" % pairs)


def test_criterion_11_gamma_is_regular_and_not_a_zero_divisor():
    ok = True
    for gamma in enumerate_minors(SHAPE33):
        ok = ok and regularity_check(gamma, 3).passed
        ok = ok and zero_divisor_check(gamma, 3).passed
    verdict(ok, "every 3x3 minor acts regularly and without zero divisors "
                "on its factor ring up to degree 3")
