"""Defining relations, PBW normal forms, grading, and the torus action."""

import math
import operator
from fractions import Fraction

import pytest

from conftest import (at_q, commutative_product, naive_normal_form,
                      random_poly, random_word)
from qdet import algebra
from qdet.algebra import (MatrixShape, NCPoly, TorusElement, _nf_concat,
                          _nf_mono_gen, _nf_mono_gen_closed,
                          _nf_mono_gen_raw, _nf_word_raw, _word_exps,
                          eigenvalue_of, graded_basis, graded_dim,
                          normal_form, render_poly)
from qdet.errors import (DegreeTooLarge, IndexOutOfShape, ShapeMismatch,
                         ZeroInput)
from qdet.minors import Minor, enumerate_minors, minor_value
from qdet.scalars import LaurentScalar, ONE, Q, Q_INV, QHAT, UNIT_RANGE
from qdet.suites import WorkbenchConfig, run_suite


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

    def test_scale_takes_ints_and_laurent_scalars_only(self, shape22):
        a = NCPoly.generator(shape22, 1, 1)
        assert a.scale(2) == a.scale(LaurentScalar({0: 2})) == 2 * a
        for c in (Fraction(1, 2), 0.5):
            with pytest.raises(TypeError):
                a.scale(c)
            with pytest.raises(TypeError):
                a * c

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
        for _ in range(15):
            a = random_poly(rng, shape33, max_degree=2)
            b = random_poly(rng, shape33, max_degree=2)
            assert at_q(a * b, 1) == commutative_product(at_q(a, 1),
                                                         at_q(b, 1))


class TestAntiAutomorphism:
    """rho: x[i,j] -> x[m+1-i, n+1-j] reverses products and fixes minors.

    rho reverses the lex order of the generators, so it sends the ordered
    monomial x^e to x^reverse(e) with coefficient 1; linalg's left
    generator images rest on this.
    """

    @staticmethod
    def rho(p):
        return NCPoly(p.shape, {e[::-1]: c for e, c in p.terms.items()})

    def test_reverses_products(self, rng):
        for m, n in ((2, 3), (3, 2), (3, 3)):
            shape = MatrixShape(m, n)
            for _ in range(25):
                a = random_poly(rng, shape, max_degree=3)
                b = random_poly(rng, shape, max_degree=3)
                assert self.rho(a * b) == self.rho(b) * self.rho(a)

    def test_generators_map_to_mirrored_generators(self, shape33):
        for i, j in shape33.gens():
            assert self.rho(NCPoly.generator(shape33, i, j)) == \
                NCPoly.generator(shape33, 4 - i, 4 - j)

    def test_is_an_involution(self, rng):
        for m, n in ((2, 3), (3, 2), (3, 3)):
            shape = MatrixShape(m, n)
            for _ in range(10):
                a = random_poly(rng, shape, max_degree=3)
                assert self.rho(self.rho(a)) == a

    def test_minors_map_to_mirrored_minors(self):
        for m, n in ((3, 3), (2, 4)):
            shape = MatrixShape(m, n)
            for mn in enumerate_minors(shape):
                mirrored = Minor(shape, sorted(m + 1 - i for i in mn.rows),
                                 sorted(n + 1 - j for j in mn.cols))
                assert self.rho(minor_value(mn)) == minor_value(mirrored), mn


def pairs(terms):
    """The (exps, coeff) terms of a flat terms tuple (e0, c0, e1, c1, ...)."""
    return tuple(zip(terms[::2], terms[1::2]))


def flat(terms):
    """The flat terms tuple of a tuple of (exps, coeff) pairs."""
    return tuple(x for term in terms for x in term)


def letter_by_letter(shape, e1, e2):
    """x^e1 * x^e2 as a terms dict: every letter of the right factor, in
    order, multiplied into the product so far through _nf_mono_gen."""
    m, n = shape.m, shape.n
    poly = {e1: ONE}
    for g, e in enumerate(e2):
        for _ in range(e):
            nxt = {}
            for exps, c in poly.items():
                for exps2, c2 in pairs(_nf_mono_gen(m, n, exps, g)):
                    acc = nxt.get(exps2)
                    acc = c * c2 if acc is None else acc + c * c2
                    if acc.is_zero:
                        nxt.pop(exps2, None)
                    else:
                        nxt[exps2] = acc
            poly = nxt
    return poly


class TestProductKernel:
    """Products rewrite the right factor into the left one, and a
    one-letter left factor through rho; the letter-by-letter product is
    the reference."""

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (3, 3)])
    def test_every_pair_of_monomials(self, m, n):
        shape = MatrixShape(m, n)
        monos = [e for d in range(4) for e in graded_basis(shape, d)]
        polys = [NCPoly(shape, {e: ONE}) for e in monos]
        for e1, p1 in zip(monos, polys):
            for e2, p2 in zip(monos, polys):
                want = NCPoly(shape, letter_by_letter(shape, e1, e2))
                assert p1 * p2 == want, (e1, e2)

    def test_one_letter_factors_add_no_concat_entry(self):
        """A one-letter factor on either side reads _nf_mono_gen and adds
        no _nf_concat entry; two factors of two or more letters add one
        when a letter of the left factor lies southeast of a letter of
        the right one (x[2,2] and x[3,3] southeast of x[1,1], in either
        order)."""
        shape = MatrixShape(3, 3)
        monos = [e for d in range(4) for e in graded_basis(shape, d)]
        _nf_concat.cache_clear()
        for g in graded_basis(shape, 1):
            x = NCPoly(shape, {g: ONE})
            for e in monos:
                p = NCPoly(shape, {e: ONE})
                assert x * p == NCPoly(shape, letter_by_letter(shape, g, e))
                assert p * x == NCPoly(shape, letter_by_letter(shape, e, g))
        assert _nf_concat.cache_info().currsize == 0
        ea = _word_exps(9, 3, [(1, 1), (3, 3)])
        eb = _word_exps(9, 3, [(1, 1), (2, 2), (3, 3)])
        a, b = NCPoly(shape, {ea: ONE}), NCPoly(shape, {eb: ONE})
        assert a * b == NCPoly(shape, letter_by_letter(shape, ea, eb))
        assert b * a == NCPoly(shape, letter_by_letter(shape, eb, ea))
        assert _nf_concat.cache_info().currsize == 2


class TestLineTableGuard:
    """A product on a shape whose line table would pass LINES_GUARD
    entries is refused before any table of the shape is built."""

    @pytest.fixture(autouse=True)
    def fresh(self, monkeypatch):
        monkeypatch.setattr(algebra, "_LINES", {})
        monkeypatch.setattr(algebra._MONO_GEN, "tables", {})
        monkeypatch.setattr(algebra._CONCAT, "tables", {})

    @staticmethod
    def tables():
        return (algebra._LINES, algebra._MONO_GEN.tables,
                algebra._CONCAT.tables)

    def test_the_bound_is_the_table_size(self, monkeypatch):
        # 3x3: 3 * 3 southeast entries and 2 * 3 * 3 line entries
        shape = MatrixShape(3, 3)
        x = NCPoly.generator(shape, 1, 1)
        monkeypatch.setattr(algebra, "LINES_GUARD", 26)
        with pytest.raises(DegreeTooLarge, match="table of 27 entries"):
            x * x
        assert not any(self.tables())
        monkeypatch.setattr(algebra, "LINES_GUARD", 27)
        assert x * x == normal_form(shape, [(1, 1), (1, 1)])
        assert sum(len(a(range(9))) + len(b(range(9)))
                   for a, b in algebra._LINES[3, 3]) == 27

    def test_a_row_of_1500_is_refused(self):
        shape = MatrixShape(1, 1500)
        x = NCPoly.generator(shape, 1, 1)
        with pytest.raises(DegreeTooLarge, match="table of 1124250 entries"):
            x * NCPoly.generator(shape, 1, 2)
        assert not any(self.tables())


def word_of(shape, exps):
    """The ordered word of (i, j) letters of an exponent tuple."""
    return [shape.gen_at(g) for g, e in enumerate(exps) for _ in range(e)]


def memo_entries(memo, m, n):
    """(key, terms) of every entry a rewriting memo holds for m x n."""
    return [item for d in memo.tables.get((m, n), ()) for item in d.items()]


class TestCompactMemos:
    """The rewriting memos are plain dicts per shape, their stored values
    shared objects, their size capped, and their counts lru-shaped."""

    @pytest.fixture(autouse=True)
    def cold(self):
        _nf_mono_gen.cache_clear()
        _nf_concat.cache_clear()
        yield
        _nf_mono_gen.cache_clear()
        _nf_concat.cache_clear()

    @staticmethod
    def products(shape, top):
        monos = [e for d in range(1, top + 1) for e in graded_basis(shape, d)]
        polys = [NCPoly(shape, {e: ONE}) for e in monos]
        for e1, p1 in zip(monos, polys):
            for e2, p2 in zip(monos, polys):
                yield e1, e2, p1 * p2

    def test_equal_values_are_one_object(self):
        """Equal exponent tuples, keys included, and equal scalars in any
        two stored results are the same object."""
        shape = MatrixShape(2, 3)
        for _ in self.products(shape, 3):
            pass
        seen = {}
        scalars = 0
        for memo in (algebra._MONO_GEN, algebra._CONCAT):
            for key, terms in memo_entries(memo, 2, 3):
                keys = key if isinstance(key[0], tuple) else (key,)
                for x in keys + terms:
                    assert seen.setdefault(x, x) is x, x
                    scalars += isinstance(x, LaurentScalar) and len(x.terms) > 1
        # the diagonal swaps put many equal non-unit scalars in the results
        assert scalars > 100

    def test_shapes_never_mix(self):
        """4x4 and 2x8 share every exponent tuple, never a product."""
        for m, n in ((4, 4), (2, 8)):
            shape = MatrixShape(m, n)
            monos = graded_basis(shape, 1) + graded_basis(shape, 2)[::9]
            polys = [NCPoly(shape, {e: ONE}) for e in monos]
            for e1, p1 in zip(monos, polys):
                for e2, p2 in zip(monos, polys):
                    want = normal_form(shape, word_of(shape, e1)
                                       + word_of(shape, e2))
                    assert p1 * p2 == want, (shape, e1, e2)

    def test_a_small_cap_clears_and_keeps_results(self, monkeypatch):
        monkeypatch.setattr(algebra._MONO_GEN, "maxsize", 7)
        monkeypatch.setattr(algebra._CONCAT, "maxsize", 3)
        shape = MatrixShape(2, 3)
        for e1, e2, p in self.products(shape, 3):
            assert p == NCPoly(shape, letter_by_letter(shape, e1, e2))
            assert _nf_mono_gen.cache_info().currsize <= 7
            assert _nf_concat.cache_info().currsize <= 3
        assert _nf_mono_gen.cache_info().misses > 7
        assert _nf_concat.cache_info().misses > 3

    def test_cache_info_counts_like_an_lru_cache(self):
        # x[3,3]^2 * x[2,2]: x[3,3] is southeast of x[2,2], so the word
        # machine computes the product and the memo stores it
        shape = MatrixShape(3, 3)
        e = graded_basis(shape, 2)[-1]
        assert _nf_mono_gen(3, 3, e, 4) == _nf_mono_gen(3, 3, e, 4)
        info = _nf_mono_gen.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        x = NCPoly.generator(shape, 2, 2)
        p = NCPoly(shape, {e: ONE})
        assert p * x == p * x
        info = _nf_mono_gen.cache_info()
        assert (info.hits, info.misses, info.currsize) == (3, 1, 1)
        # x[3,3] is southeast of x[2,2], so x[2,2]x[3,3] squared is stored
        r = NCPoly(shape, {_word_exps(9, 3, [(2, 2), (3, 3)]): ONE})
        assert r * r == r * r
        info = _nf_concat.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert info.maxsize == 1 << 15
        assert _nf_mono_gen.cache_info().maxsize == 1 << 17


class TestClosedFormProducts:
    """x^e * x_g with no letter of x^e strictly southeast of x_g is
    q^-k * x^(e+g), k the letters of x^e after x_g in its row or column;
    only the other products reach the word machine and its memo."""

    @pytest.fixture(autouse=True)
    def cold(self):
        _nf_mono_gen.cache_clear()
        yield
        _nf_mono_gen.cache_clear()

    def test_equals_the_word_machine(self):
        cases = closed = 0
        for m, n in ((3, 3), (2, 4), (4, 2), (1, 3), (3, 1)):
            shape = MatrixShape(m, n)
            for d in range(4):
                for e in graded_basis(shape, d):
                    for g in range(m * n):
                        i, j = shape.gen_at(g)
                        word = word_of(shape, e) + [(i, j)]
                        want = _nf_word_raw(m, n, tuple(word))
                        southeast = any(r > i and s > j for r, s in word)
                        got = _nf_mono_gen_closed(m, n, e, g)
                        assert (got is None) == southeast, (m, n, e, g)
                        assert _nf_mono_gen_raw(m, n, e, g) == flat(want)
                        cases += 1
                        closed += got is not None
        assert (cases, closed) == (4740, 3851)

    def test_unit_past_the_shared_range(self):
        shape = MatrixShape(1, 2)
        assert 70 > UNIT_RANGE
        want = LaurentScalar({-70: 1})
        assert _nf_mono_gen_raw(1, 2, (0, 70), 0) == ((1, 70), want)
        p = NCPoly(shape, {(0, 70): ONE}) * NCPoly.generator(shape, 1, 1)
        assert p == NCPoly(shape, {(1, 70): want})

    def test_only_the_word_machine_is_stored(self):
        shape = MatrixShape(3, 3)
        p = NCPoly.generator(shape, 1, 2) * NCPoly.generator(shape, 3, 3)
        (e, _), = p.terms.items()
        # x[2,3] has no letter of e southeast of it; x[3,3] is below it
        assert _nf_mono_gen(3, 3, e, 5) == (
            _word_exps(9, 3, [(1, 2), (2, 3), (3, 3)]), Q_INV)
        assert p * NCPoly.generator(shape, 2, 3) == normal_form(
            shape, [(1, 2), (3, 3), (2, 3)])
        info = _nf_mono_gen.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
        # x[3,3] is southeast of x[2,1]
        assert _nf_mono_gen(3, 3, e, 3) == flat(_nf_word_raw(
            3, 3, ((1, 2), (3, 3), (2, 1))))
        assert _nf_mono_gen.cache_info().currsize == 1
        assert p * NCPoly.generator(shape, 2, 1) == normal_form(
            shape, [(1, 2), (3, 3), (2, 1)])
        info = _nf_mono_gen.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def closed_form_k(shape, e1, e2):
    """K with x^e1 * x^e2 = q^-K * x^(e1+e2) when no letter of the left
    factor lies strictly southeast of a letter of the right one, read on
    letters; None otherwise."""
    left, right = word_of(shape, e1), word_of(shape, e2)
    if any(r > i and s > j for i, j in right for r, s in left):
        return None
    return sum((r == i and s > j) or (s == j and r > i)
               for i, j in right for r, s in left)


class TestClosedFormConcat:
    """A product of two monomials with no letter of the left factor
    strictly southeast of a letter of the right one is one term,
    q^-K * x^(e1+e2), and no memo stores it."""

    @pytest.fixture(autouse=True)
    def cold(self):
        _nf_mono_gen.cache_clear()
        _nf_concat.cache_clear()
        yield
        _nf_mono_gen.cache_clear()
        _nf_concat.cache_clear()

    @pytest.mark.parametrize("m,n,closed", [(2, 3, 5096), (3, 2, 5096),
                                            (3, 3, 29416)])
    def test_equals_the_letter_by_letter_product(self, m, n, closed):
        """NCPoly products are compared with the same reference in
        TestProductKernel; here `_nf_concat` itself, and what it stores."""
        shape = MatrixShape(m, n)
        monos = [e for d in range(4) for e in graded_basis(shape, d)]
        count = 0
        for e1 in monos:
            for e2 in monos:
                want = letter_by_letter(shape, e1, e2)
                k = closed_form_k(shape, e1, e2)
                if sum(e1) and sum(e2):
                    misses = _nf_concat.cache_info().misses
                    got = _nf_concat(m, n, e1, e2)
                    stored = _nf_concat.cache_info().misses - misses
                    assert stored == (k is None), (e1, e2)
                    assert dict(pairs(got)) == want, (e1, e2)
                if k is not None:
                    count += 1
                    e = tuple(a + b for a, b in zip(e1, e2))
                    assert want == {e: Q_INV ** k}, (e1, e2)
        assert count == closed

    def test_the_3x3_tower_sweep_stores_no_closed_form(self):
        shape = MatrixShape(3, 3)
        for gamma in enumerate_minors(shape):
            config = WorkbenchConfig(m=3, n=3, gamma=(gamma.rows, gamma.cols))
            for name in ("mfamily", "torus", "ore-tower"):
                assert run_suite(name, config).passed, (gamma, name)
        units = graded_basis(shape, 1)
        mono_gen = [(exps, units[g])
                    for g, table in enumerate(algebra._MONO_GEN.tables[3, 3])
                    for exps in table]
        concat = list(algebra._CONCAT.tables[3, 3][0])
        # what the sweep stores is what the word machine computes
        assert (len(mono_gen), len(concat)) == (36, 46)
        for e1, e2 in mono_gen + concat:
            assert closed_form_k(shape, e1, e2) is None, (e1, e2)


def recursive_basis(shape, d):
    """Exponent tuples of degree d in descending lex, slot by slot."""
    out = []

    def fill(slot, remaining, prefix):
        if slot == shape.ngens - 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            fill(slot + 1, remaining - e, prefix + (e,))

    fill(0, d, ())
    return out


def bidegree(shape, exps):
    """(row weights, column weights) of an exponent tuple."""
    rows, cols = [0] * shape.m, [0] * shape.n
    for idx, e in enumerate(exps):
        i, j = shape.gen_at(idx)
        rows[i - 1] += e
        cols[j - 1] += e
    return tuple(rows), tuple(cols)


class TestGrading:
    def test_dims_match_stars_and_bars(self, shape22, shape33):
        for shape in (shape22, shape33):
            for d in range(6):
                want = math.comb(shape.ngens + d - 1, d) if d else 1
                assert graded_dim(shape, d) == want
                basis = graded_basis(shape, d)
                assert len(basis) == want
                assert len(set(basis)) == want
                assert all(sum(e) == d for e in basis)

    def test_basis_order_descending_lex(self, shape22):
        exps = graded_basis(shape22, 2)
        assert exps == sorted(exps, reverse=True)
        assert exps[0] == (2, 0, 0, 0)
        assert exps[-1] == (0, 0, 0, 2)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_basis_matches_the_recursive_reference(self, m):
        for n in range(1, 5):
            shape = MatrixShape(m, n)
            for d in range(5):
                assert graded_basis(shape, d) == recursive_basis(shape, d)

    def test_bidegree_additive(self, rng, shape33):
        add = lambda u, v: tuple(map(operator.add, u, v))
        for _ in range(20):
            w1 = random_word(rng, shape33, 3)
            w2 = random_word(rng, shape33, 3)
            e1 = _word_exps(shape33.ngens, shape33.n, w1)
            e2 = _word_exps(shape33.ngens, shape33.n, w2)
            (r1, c1), (r2, c2) = bidegree(shape33, e1), bidegree(shape33, e2)
            want = (add(r1, r2), add(c1, c2))
            assert bidegree(shape33, add(e1, e2)) == want
            # products of bihomogeneous polynomials stay bihomogeneous
            p = normal_form(shape33, w1) * normal_form(shape33, w2)
            assert all(bidegree(shape33, e) == want for e in p.terms)


class TestTorus:
    def test_action_on_generators(self, shape22):
        a, b, c, d = gens22(shape22)
        h = TorusElement(shape22, (1, 0), (-1, 0))
        assert h.act(a) == a
        assert h.act(b) == b.scale(Q)
        assert h.act(c) == c.scale(Q_INV)
        assert h.act(d) == d

    def test_weight_multiplies_over_letters(self, shape22):
        h = TorusElement(shape22, (1, 2), (0, -1))
        # x[1,1]*x[2,2]: (a_1 + b_1) + (a_2 + b_2) = 1 + 2 - 1 = 2
        assert h.weight((1, 0, 0, 1)) == Q ** 2
        # x[1,2]^3: 3 * (a_1 + b_2) = 0; x[2,1]: a_2 + b_1 = 2
        assert h.weight((0, 3, 0, 0)) == ONE
        assert h.weight((0, 0, 1, 0)) == Q ** 2

    def test_action_is_multiplicative(self, rng, shape33):
        h = TorusElement(shape33, (1, 0, -1), (2, 0, -1))
        h_inv = TorusElement(shape33, (-1, 0, 1), (-2, 0, 1))
        for _ in range(10):
            a = random_poly(rng, shape33, max_degree=2)
            b = random_poly(rng, shape33, max_degree=2)
            assert h.act(a * b) == h.act(a) * h.act(b)
            assert h_inv.act(h.act(a)) == a

    def test_eigenvalue_of(self, shape22):
        a, b, c, d = gens22(shape22)
        h = TorusElement(shape22, (1, 0), (-1, 0))
        assert eigenvalue_of(h, b + NCPoly.zero(shape22) + b) == Q
        assert eigenvalue_of(h, a + d) == ONE
        assert eigenvalue_of(h, a + b) is None
        with pytest.raises(ZeroInput):
            eigenvalue_of(h, NCPoly.zero(shape22))

    def test_one_exponent_per_row_and_column(self, shape22):
        with pytest.raises(ShapeMismatch):
            TorusElement(shape22, (1,), (0, 0))
        with pytest.raises(ShapeMismatch):
            TorusElement(MatrixShape(2, 3), (0, 0), (0, 0))


class TestRendering:
    def test_examples(self, shape22):
        a, b, c, d = gens22(shape22)
        dq = a * d - (b * c).scale(Q)
        assert render_poly(dq) == "x[1,1]*x[2,2] - q*x[1,2]*x[2,1]"
        assert render_poly((a * a).scale(
            LaurentScalar({-2: 2})), 3) == "2/3*q^-2*x[1,1]^2"
        assert render_poly(a.scale(-3) + d.scale(QHAT * 3), 3) == \
            "-x[1,1] + (q - q^-1)*x[2,2]"
        assert render_poly(NCPoly.one(shape22).scale(-4), 6) == "-2/3"
        assert render_poly(NCPoly.zero(shape22)) == "0"
        assert render_poly(NCPoly.one(shape22)) == "1"
        assert render_poly(a + d.scale(QHAT)) == \
            "x[1,1] + (q - q^-1)*x[2,2]"
