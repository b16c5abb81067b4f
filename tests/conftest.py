"""Shared fixtures, a reference rewriter, a reference solver and the
evaluation at a point of q.

The reference rewriter resolves the *leftmost* out-of-order pair by plain
recursion with no caching, unlike the library's rightmost-first stack
with layered caches.  Confluence of the rewriting rules means both must
produce identical normal forms on every input.

The reference solver (express) writes an integer row over spanning rows
through provenance columns; the library solves for nothing, so tests use
it to check predicted relations against solved ones.

at_q sets q to a rational q0 in a polynomial, and commutative_product
multiplies two such evaluations as commuting monomials; at q0 = 1 the
quantum product must agree with it.  spans_clear drops the ideal spans
that factor.ideal_component keeps until the next run starts, so that a
direct call builds its span again.

rank, coeff and member read what the library computes but never asks
for itself: the rank of integer rows, one coefficient of a polynomial,
and one member of a minor's swap family.
"""

import random
import weakref
from fractions import Fraction

import pytest

from qdet import MatrixShape, NCPoly, factor, linalg, normal_form
from qdet.errors import UndefinedMember
from qdet.linalg import Echelon
from qdet.scalars import LaurentScalar, ONE, Q_INV, QHAT, ZERO


def naive_normal_form(shape, word):
    """Normal form as dict exps -> LaurentScalar, by leftmost rewriting."""
    result = {}

    def settle(word, coeff):
        for k in range(len(word) - 1):
            a, b = word[k], word[k + 1]
            if a <= b:
                continue
            head, tail = word[:k], word[k + 2:]
            if a[0] == b[0] or a[1] == b[1]:
                settle(head + (b, a) + tail, coeff * Q_INV)
            elif a[1] < b[1]:
                settle(head + (b, a) + tail, coeff)
            else:
                settle(head + (b, a) + tail, coeff)
                settle(head + ((b[0], a[1]), (a[0], b[1])) + tail,
                       coeff * (-QHAT))
            return
        exps = [0] * shape.ngens
        for (i, j) in word:
            exps[shape.gen_index(i, j)] += 1
        key = tuple(exps)
        acc = result.get(key)
        acc = coeff if acc is None else acc + coeff
        if acc.is_zero:
            result.pop(key, None)
        else:
            result[key] = acc

    settle(tuple(word), ONE)
    return result


def at_q(p, q0):
    """An NCPoly with q set to the rational q0: dict exps -> Fraction,
    zero values dropped."""
    q0 = Fraction(q0)
    out = {}
    for e, c in p.terms.items():
        v = sum(k * q0 ** x for x, k in c.terms.items())
        if v:
            out[e] = v
    return out


def commutative_product(a, b):
    """Product of two at_q results, the monomials commuting."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def spans_clear():
    """Drop the ideal spans that factor.ideal_component has cached."""
    factor._ECHELONS.clear()


def rank(rows):
    """Rank of integer rows, by the library's fraction-free Echelon."""
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    return ech.rank


def coeff(p, exps):
    """The coefficient of the ordered monomial x^exps in p."""
    return p.terms.get(tuple(exps), ZERO)


def member(frame, kind, i, j):
    """The family member kind[i, j] of a tower frame; UndefinedMember
    when the swap is not defined for the frame's minor."""
    for mb in frame.family():
        if (mb.kind, mb.i, mb.j) == (kind, i, j):
            return mb
    raise UndefinedMember("%s[%d,%d] is not defined for %s"
                          % (kind, i, j, frame.minor))


def laurent_row(row):
    """An integer row (see linalg) as {column: LaurentScalar}, zeros dropped."""
    cols = {}
    for (i, e), c in row.items():
        cols.setdefault(i, {})[e] = c
    out = {i: LaurentScalar(terms) for i, terms in cols.items()}
    return {i: v for i, v in out.items() if not v.is_zero}


def int_row(laurent):
    """{column: LaurentScalar} with int coefficients as an integer row."""
    return {(i, e): c for i, v in laurent.items() for e, c in v.terms.items()}


class _Images(list):
    """Generator images as a list, which (unlike a tuple) is weakly
    referenceable."""


def watch_images(monkeypatch):
    """Record each build of linalg.generator_images.

    Returns a list that gets one ((degree, col), weakref) pair per build;
    the images are handed out as an equal list, so the weak reference
    tells whether anything still holds them.
    """
    built = []
    real = linalg.generator_images

    def recording(shape, degree, col):
        images = _Images(real(shape, degree, col))
        built.append(((degree, col), weakref.ref(images)))
        return images

    monkeypatch.setattr(linalg, "generator_images", recording)
    return built


def express(target, spanning, width):
    """The integer row `target` written over the rows `spanning`.

    Every row lives in the columns below `width`.  Spanning row i goes
    into a fraction-free Echelon with a 1 at provenance column width + i;
    the target is reduced with a 1 at width + len(spanning), a column no
    stored row has.  Once its basis columns reduce away, the residue
    records the combination.  Returns (nums, den), LaurentScalars with den
    nonzero and den * target == sum(nums[i] * spanning[i]), or None when
    the target lies outside the span.
    """
    n = len(spanning)
    ech = Echelon()
    for i, row in enumerate(spanning):
        ech.insert({**row, (width + i, 0): 1})
    res = laurent_row(ech.residue({**target, (width + n, 0): 1}))
    if min(res) < width:
        return None
    return [-res.get(width + i, ZERO) for i in range(n)], res[width + n]


def random_word(rng, shape, max_len):
    length = rng.randint(0, max_len)
    return tuple((rng.randint(1, shape.m), rng.randint(1, shape.n))
                 for _ in range(length))


def random_scalar(rng, max_terms=2, exp_range=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.randint(-exp_range, exp_range)] = rng.randint(-4, 4)
    return LaurentScalar(terms)


def random_poly(rng, shape, max_terms=3, max_degree=3):
    p = NCPoly.zero(shape)
    for _ in range(rng.randint(1, max_terms)):
        word = random_word(rng, shape, max_degree)
        p = p + normal_form(shape, word).scale(random_scalar(rng))
    return p


@pytest.fixture
def rng():
    return random.Random(987123554)


@pytest.fixture
def shape22():
    return MatrixShape(2, 2)


@pytest.fixture
def shape33():
    return MatrixShape(3, 3)


@pytest.fixture
def shape34():
    return MatrixShape(3, 4)
