"""The quantum matrix algebra on an m x n grid of generators x[i,j].

Generators are ordered lexicographically by (row, column).  The defining
relations, for i < k and j < l:

    x[i,j]*x[i,l] = q * x[i,l]*x[i,j]          (same row)
    x[i,j]*x[k,j] = q * x[k,j]*x[i,j]          (same column)
    x[i,l]*x[k,j] = x[k,j]*x[i,l]              (antidiagonal pair)
    x[i,j]*x[k,l] - x[k,l]*x[i,j] = (q - q^-1) * x[i,l]*x[k,j]

Ordered monomials x[1,1]^e11 * x[1,2]^e12 * ... form a PBW basis; every
product is rewritten onto it by adjacent transpositions.  Each transposition
removes one lexicographic inversion, which is why the rewriting terminates;
the diagonal case queues a correction word with two fresh letters.

A product of two ordered monomials rewrites its right factor, one
letter at a time, into the left one.  Only a one-letter left factor is
flipped: the anti-automorphism rho: x[i,j] -> x[m+1-i, n+1-j] maps each
defining relation onto itself and reverses the lex order of the
generators, so it sends x^e to x^reverse(e) with coefficient 1, and
x_g * x^e = rho(x^rev(e) * rho(x_g)) is one right product.

A monomial times a generator, x^e * x_g, is written down in closed form
when no letter of x^e lies strictly southeast of x_g (row and column
both larger): no diagonal correction arises, and the product is
q^-k * x^(e+g), k the letters of x^e after x_g in its row or column.
A product of two monomials is written down the same way when no letter
of the left factor lies strictly southeast of a letter of the right
one: q^-K * x^(e1+e2), K the sum of those k over the right factor's
letters (`_nf_concat_closed`).  Only the other products run the word
machine `_nf_word_raw` (also the reference behind `normal_form`).  The
letters each closed-form test reads come from one table per shape
(`_lines`) of about (mn)^2 / 4 indices, so a shape whose table would
pass LINES_GUARD entries is refused before any table of it is built.

A product's terms travel as one flat tuple (e0, c0, e1, c1, ...),
read pairwise with `it = iter(t); zip(it, it)`; `_nf_word_raw` alone
returns (exps, scalar) pairs.  No memo stores a product that has a
closed form, and each stored result is held once, and compactly.  The
monomial-times-generator memo `_nf_mono_gen` stores only what the word
machine computes and recomputes a closed-form product on each lookup.
A product with a one-letter factor is a single `_nf_mono_gen` call
(its exponent tuples read backwards when the letter is on the left),
and a product with a scalar factor needs no rewriting at all; neither
gets a memo entry of its own.  Only products whose factors both have
two or more letters and no closed form, which chain several lookups,
are memoised (`_nf_concat`).  Both memos are plain dicts per
shape: `_nf_mono_gen` is keyed by generator and then by exponent tuple,
`_nf_concat` by the pair of exponent tuples, so an entry costs one dict
slot and one flat tuple.  Every exponent tuple and every scalar a memo
stores, keys included, is the one object the shared table `_SHARED`
holds for its value, so equal monomials in many results are one tuple
(the +-q^k units are shared by `scalars` already).  A memo that reaches
its cap clears itself and the shared table.
"""

import itertools
import math
from collections import namedtuple
from operator import add, itemgetter

from .errors import DegreeTooLarge, IndexOutOfShape, ShapeMismatch, ZeroInput
from .scalars import (LaurentScalar, ONE, Q_INV, QHAT, UNIT_RANGE,
                      render_laurent)


class MatrixShape:
    """Ambient grid size; rows and columns are 1-based."""

    __slots__ = ("m", "n")

    def __init__(self, m, n):
        if not (isinstance(m, int) and isinstance(n, int) and m >= 1 and n >= 1):
            raise IndexOutOfShape("shape sides must be positive integers")
        self.m = m
        self.n = n

    @property
    def ngens(self):
        return self.m * self.n

    def gen_index(self, i, j):
        self.check(i, j)
        return (i - 1) * self.n + (j - 1)

    def gen_at(self, idx):
        return idx // self.n + 1, idx % self.n + 1

    def check(self, i, j):
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise IndexOutOfShape("x[%s,%s] outside %s" % (i, j, self))

    def gens(self):
        """All (i, j) pairs in lex order."""
        return [(i, j) for i in range(1, self.m + 1) for j in range(1, self.n + 1)]

    def __eq__(self, other):
        return (isinstance(other, MatrixShape)
                and self.m == other.m and self.n == other.n)

    def __hash__(self):
        return hash((self.m, self.n))

    def __str__(self):
        return "%dx%d" % (self.m, self.n)

    def __repr__(self):
        return "MatrixShape(%d, %d)" % (self.m, self.n)


# ----------------------------------------------------------------------
# rewriting onto the PBW basis
#
# Internally a polynomial is dict[exponent tuple -> LaurentScalar]; words
# are tuples of (i, j) letters.  Everything here is pure.


def _word_exps(ngens_n, shape_n, word):
    exps = [0] * ngens_n
    for (i, j) in word:
        exps[(i - 1) * shape_n + (j - 1)] += 1
    return tuple(exps)


def _nf_word_raw(m, n, word):
    """Normal form of an arbitrary word; returns tuple of (exps, scalar).

    Strategy: repeatedly fix the rightmost adjacent inversion.  Same-row and
    same-column swaps cost q^-1; antidiagonal pairs commute; diagonal pairs
    swap and queue a correction word carrying -(q - q^-1).
    """
    ngens = m * n
    out = {}
    stack = [(ONE, tuple(word))]
    while stack:
        coeff, w = stack.pop()
        k = -1
        for idx in range(len(w) - 1, 0, -1):
            if w[idx - 1] > w[idx]:
                k = idx - 1
                break
        if k < 0:
            exps = _word_exps(ngens, n, w)
            acc = out.get(exps)
            acc = coeff if acc is None else acc + coeff
            if acc.is_zero:
                out.pop(exps, None)
            else:
                out[exps] = acc
            continue
        a = w[k]
        b = w[k + 1]
        swapped = w[:k] + (b, a) + w[k + 2:]
        if a[0] == b[0] or a[1] == b[1]:
            stack.append((coeff * Q_INV, swapped))
        elif a[1] < b[1]:
            stack.append((coeff, swapped))
        else:
            stack.append((coeff, swapped))
            correction = w[:k] + ((b[0], a[1]), (a[0], b[1])) + w[k + 2:]
            stack.append((coeff * _MINUS_QHAT, correction))
    return tuple(sorted(out.items()))


_MINUS_QHAT = -QHAT


#: (m, n) -> per lex generator index g: getters of the exponents of the
#: letters strictly southeast of g, and of those after g in its row or
#: column, each returning a tuple
_LINES = {}

#: most index entries `_lines` builds for one shape (about 40 bytes and
#: 1 us each), above which a product on the shape is refused
LINES_GUARD = 10 ** 6

#: the shared q^-k, 0 <= k <= UNIT_RANGE
_Q_INV_POWERS = tuple(Q_INV ** k for k in range(UNIT_RANGE + 1))


def _getter(indices):
    """itemgetter of the indices that returns a tuple for any count."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices
                      else slice(0))


def _refuse_wide(m, n):
    """Raise DegreeTooLarge when the `_lines` table of m x n would hold
    more than LINES_GUARD indices; nothing is built."""
    entries = (math.comb(m, 2) * math.comb(n, 2)
               + m * math.comb(n, 2) + n * math.comb(m, 2))
    if entries > LINES_GUARD:
        raise DegreeTooLarge("a product on %dx%d needs a table of %d entries "
                             "(guard %d)" % (m, n, entries, LINES_GUARD))


def _lines(m, n):
    _refuse_wide(m, n)
    plans = []
    for g in range(m * n):
        i, j = divmod(g, n)
        southeast = [r * n + s for r in range(i + 1, m)
                     for s in range(j + 1, n)]
        line = [*range(g + 1, (i + 1) * n), *range(g + n, m * n, n)]
        plans.append((_getter(southeast), _getter(line)))
    plans = _LINES[m, n] = tuple(plans)
    return plans


def _nf_mono_gen_closed(m, n, exps, g):
    """x^e * x_g in closed form as the pair (exps, coeff), or None when a
    letter of x^e lies strictly southeast of x_g (row and column both
    larger).

    With no southeast letter no diagonal correction arises: x_g moves
    left past each later letter, paying q^-1 for one in its row or
    column and nothing for one southwest of it (they commute).  So
    x^e * x_g = q^-k * x^(e+g), k the letters of x^e after x_g in its
    row or column.  The pair is also the flat terms tuple of the product.
    """
    southeast, line = (_LINES.get((m, n)) or _lines(m, n))[g]
    if any(southeast(exps)):
        return None
    k = sum(line(exps))
    e = list(exps)
    e[g] += 1
    return tuple(e), _Q_INV_POWERS[k] if k <= UNIT_RANGE else Q_INV ** k


def _nf_concat_closed(m, n, e1, e2):
    """x^e1 * x^e2 in closed form as the pair (exps, coeff), or None.

    When no letter of x^e1 lies strictly southeast of any letter of x^e2,
    the letters g1 <= g2 <= ... of x^e2 go into x^e1 by the closed form of
    `_nf_mono_gen_closed`: an earlier letter is never southeast of a
    later one, nor after it in its row or column, so each step counts
    only the letters of x^e1.  So x^e1 * x^e2 = q^-K * x^(e1+e2), K the
    sum over the letters g of x^e2, with multiplicity, of the letters of
    x^e1 after g in its row or column.
    """
    plans = _LINES.get((m, n)) or _lines(m, n)
    k = 0
    for g, count in enumerate(e2):
        if count:
            southeast, line = plans[g]
            if any(southeast(e1)):
                return None
            k += count * sum(line(e1))
    return (tuple(map(add, e1, e2)),
            _Q_INV_POWERS[k] if k <= UNIT_RANGE else Q_INV ** k)


def _nf_mono_gen_raw(m, n, exps, g):
    """Normal form of (ordered monomial) * x_g, g a lex generator index,
    as the flat terms tuple (e0, c0, e1, c1, ...).

    The closed form when it applies, otherwise the word machine.  Not
    memoised; `_nf_mono_gen` stores what the word machine computes.
    """
    return (_nf_mono_gen_closed(m, n, exps, g)
            or _nf_mono_gen_word(m, n, exps, g))


def _nf_mono_gen_word(m, n, exps, g):
    """x^e * x_g by the word machine on the ordered word of x^e followed
    by x_g, as a flat terms tuple."""
    word = []
    for idx, e in enumerate(exps):
        if e:
            word.extend([(idx // n + 1, idx % n + 1)] * e)
    word.append((g // n + 1, g % n + 1))
    return tuple(itertools.chain.from_iterable(_nf_word_raw(m, n, word)))


# ----------------------------------------------------------------------
# the rewriting memos


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")

#: value -> the one object every memo stores for it: exponent tuples
#: (keys included) and scalars
_SHARED = {}


def _share(x):
    """The shared object equal to x; x itself the first time it is seen."""
    return _SHARED.setdefault(x, x)


class _Memo:
    """One rewriting memo: plain dicts per shape, one entry count, one cap.

    Reaching the cap clears every dict in place (a product keeps its
    shape's dicts while it runs) and the shared table; objects already
    handed out stay valid.  Hits and misses are counted as an lru_cache
    counts them, and cache_info() and cache_clear() read like its own.
    """

    __slots__ = ("maxsize", "tables", "currsize", "hits", "misses")

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.tables = {}
        self.currsize = self.hits = self.misses = 0

    def dicts(self, m, n, width):
        """The `width` dicts of shape m x n, made empty on first use."""
        key = (m, n)
        t = self.tables.get(key)
        if t is None:
            _refuse_wide(m, n)
            t = self.tables[key] = [{} for _ in range(width)]
        return t

    def miss(self):
        """Count a miss whose entry is stored next; clear first at the cap.

        Called before the entry's values are shared, so that they enter
        the shared table after a clear, not before it.
        """
        if self.currsize >= self.maxsize:
            for t in self.tables.values():
                for d in t:
                    d.clear()
            _SHARED.clear()
            self.currsize = 0
        self.currsize += 1
        self.misses += 1

    def cache_info(self):
        return CacheInfo(self.hits, self.misses, self.maxsize, self.currsize)

    def cache_clear(self):
        """Drop every entry, the counts and the shared table."""
        self.tables.clear()
        _SHARED.clear()
        self.currsize = self.hits = self.misses = 0


_MONO_GEN = _Memo(1 << 17)
_CONCAT = _Memo(1 << 15)


def _nf_mono_gen(m, n, exps, g):
    """Normal form of (ordered monomial) * x_g, g a lex generator index,
    as the flat terms tuple (e0, c0, e1, c1, ...).

    A closed-form product is recomputed on every call and never stored;
    only what the word machine computes is memoised, per shape and
    generator, and only those lookups count as hits or misses.
    NCPoly.__mul__ reads the memo directly and calls this when the
    product is not there.
    """
    terms = _nf_mono_gen_closed(m, n, exps, g)
    if terms is not None:
        return terms
    table = _MONO_GEN.dicts(m, n, m * n)[g]
    terms = table.get(exps)
    if terms is not None:
        _MONO_GEN.hits += 1
        return terms
    _MONO_GEN.miss()
    terms = tuple([_share(x) for x in _nf_mono_gen_word(m, n, exps, g)])
    table[_share(exps)] = terms
    return terms


_nf_mono_gen.cache_info = _MONO_GEN.cache_info
_nf_mono_gen.cache_clear = _MONO_GEN.cache_clear


def _nf_concat(m, n, e1, e2):
    """Normal form of x^e1 * x^e2 for ordered monomials, as the flat terms
    tuple (e0, c0, e1, c1, ...); stored unless it has a closed form.

    NCPoly.__mul__ reads the memo and calls this only on a miss, and
    only when both factors have two or more letters; a one-letter factor
    is one _nf_mono_gen lookup, which a memo here would only copy.  A
    product with no letter of x^e1 strictly southeast of a letter of
    x^e2 is one term, written down by `_nf_concat_closed` and never
    stored, and counts as no miss.  Any other product multiplies the
    letters of x^e2 into x^e1 one at a time, each through _nf_mono_gen,
    so it costs one rewriting pass per letter of x^e2, and is stored.
    """
    closed = _nf_concat_closed(m, n, e1, e2)
    if closed is not None:
        return closed
    letters = [g for g, e in enumerate(e2) for _ in range(e)]
    terms = _nf_mono_gen(m, n, e1, letters[0])
    for g in letters[1:]:
        nxt = {}
        it = iter(terms)
        for exps, c in zip(it, it):
            it2 = iter(_nf_mono_gen(m, n, exps, g))
            for exps2, c2 in zip(it2, it2):
                t = c if c2 is ONE else c2 if c is ONE else c * c2
                acc = nxt.get(exps2)
                acc = t if acc is None else acc + t
                if acc.is_zero:
                    nxt.pop(exps2, None)
                else:
                    nxt[exps2] = acc
        terms = tuple(itertools.chain.from_iterable(nxt.items()))
    _CONCAT.miss()
    terms = tuple([_share(x) for x in terms])
    _CONCAT.dicts(m, n, 1)[0][_share(e1), _share(e2)] = terms
    return terms


_nf_concat.cache_info = _CONCAT.cache_info
_nf_concat.cache_clear = _CONCAT.cache_clear


def _add_terms(out, terms):
    """Add a terms dict into `out` in place, dropping what cancels."""
    for e, c in terms.items():
        acc = out.get(e)
        acc = c if acc is None else acc + c
        if acc.is_zero:
            out.pop(e, None)
        else:
            out[e] = acc


class NCPoly:
    """Noncommutative polynomial in PBW normal form.

    terms maps exponent tuples to nonzero LaurentScalar coefficients.
    All arithmetic keeps the result in normal form.
    """

    __slots__ = ("shape", "terms")

    def __init__(self, shape, terms=None):
        self.shape = shape
        clean = {}
        if terms:
            for e, c in terms.items():
                if not c.is_zero:
                    clean[tuple(e)] = c
        self.terms = clean

    @classmethod
    def zero(cls, shape):
        return cls(shape)

    @classmethod
    def one(cls, shape):
        return cls(shape, {(0,) * shape.ngens: ONE})

    @classmethod
    def generator(cls, shape, i, j):
        exps = [0] * shape.ngens
        exps[shape.gen_index(i, j)] = 1
        return cls(shape, {tuple(exps): ONE})

    @classmethod
    def scalar(cls, shape, c):
        if c.is_zero:
            return cls(shape)
        return cls(shape, {(0,) * shape.ngens: c})

    # ------------------------------------------------------------------

    def _check(self, other):
        if self.shape != other.shape:
            raise ShapeMismatch("operands over %s and %s" % (self.shape, other.shape))

    def __add__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        _add_terms(out, other.terms)
        r = NCPoly.__new__(NCPoly)
        r.shape = self.shape
        r.terms = out
        return r

    def __neg__(self):
        r = NCPoly.__new__(NCPoly)
        r.shape = self.shape
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        """Multiply by a LaurentScalar or an int."""
        if not isinstance(c, LaurentScalar):
            c = LaurentScalar({0: c})
        if c.is_zero:
            return NCPoly.zero(self.shape)
        r = NCPoly.__new__(NCPoly)
        r.shape = self.shape
        r.terms = {e: v * c for e, v in self.terms.items()}
        return r

    def __mul__(self, other):
        if isinstance(other, (int, LaurentScalar)):
            return self.scale(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._check(other)
        m, n = self.shape.m, self.shape.n
        # the memos are read here directly, hits counted locally; a miss
        # goes through _nf_mono_gen or _nf_concat (a closed form, or an
        # entry it stores); every terms tuple is flat, (e0, c0, e1, ...)
        mono_gen = _MONO_GEN.dicts(m, n, m * n)
        concat = _CONCAT.dicts(m, n, 1)[0]
        mono_gen_hits = concat_hits = 0
        last = m * n - 1
        lefts = [(e1, c1, sum(e1)) for e1, c1 in self.terms.items()]
        out = {}
        # a coefficient that is the shared ONE is never multiplied by
        for e2, c2 in other.terms.items():
            d2 = sum(e2)
            for e1, c1, d1 in lefts:
                c12 = c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2
                # rewrite the right factor into the left one; a one-letter
                # or scalar factor reads _nf_mono_gen directly and is not
                # memoised again
                flip = False
                if d1 > 1 and d2 > 1:
                    terms = concat.get((e1, e2))
                    if terms is None:
                        terms = _nf_concat(m, n, e1, e2)
                    else:
                        concat_hits += 1
                elif d2 <= d1:
                    if d2:
                        g = e2.index(1)
                        terms = mono_gen[g].get(e1)
                        if terms is None:
                            terms = _nf_mono_gen(m, n, e1, g)
                        else:
                            mono_gen_hits += 1
                    else:
                        terms = (e1, ONE)
                elif d1:
                    # x_g * x^e2 = rho(x^rev(e2) * rho(x_g)), rho(x_g) being
                    # the generator of lex index last - g
                    g = last - e1.index(1)
                    r2 = e2[::-1]
                    terms = mono_gen[g].get(r2)
                    if terms is None:
                        terms = _nf_mono_gen(m, n, r2, g)
                    else:
                        mono_gen_hits += 1
                    flip = True
                else:
                    terms = (e2, ONE)
                # most products are one term; read a longer one pairwise
                it = iter(terms)
                for e, c in (terms,) if len(terms) == 2 else zip(it, it):
                    if flip:
                        e = e[::-1]
                    t = c if c12 is ONE else c12 if c is ONE else c12 * c
                    acc = out.get(e)
                    acc = t if acc is None else acc + t
                    if acc.is_zero:
                        out.pop(e, None)
                    else:
                        out[e] = acc
        _MONO_GEN.hits += mono_gen_hits
        _CONCAT.hits += concat_hits
        r = NCPoly.__new__(NCPoly)
        r.shape = self.shape
        r.terms = out
        return r

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentScalar)):
            return self.scale(other)
        return NotImplemented

    # ------------------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, NCPoly) and self.shape == other.shape
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.shape, tuple(sorted(self.terms.items()))))

    def degree(self):
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __str__(self):
        return render_poly(self)

    def __repr__(self):
        return "NCPoly(%s, %s)" % (self.shape, render_poly(self))


def normal_form(shape, word):
    """Straighten an arbitrary word of (i, j) letters into an NCPoly."""
    for (i, j) in word:
        shape.check(i, j)
    pairs = _nf_word_raw(shape.m, shape.n, tuple(word))
    return NCPoly(shape, dict(pairs))


# ----------------------------------------------------------------------
# graded pieces


def graded_basis(shape, d):
    """Exponent tuples of the ordered monomials of degree d, descending lex.

    The multisets of d generator indices, taken in ascending lex order,
    give the exponent tuples in descending lex order.
    """
    if d < 0:
        return []
    out = []
    for letters in itertools.combinations_with_replacement(range(shape.ngens), d):
        exps = [0] * shape.ngens
        for g in letters:
            exps[g] += 1
        out.append(tuple(exps))
    return out


#: largest dimension of an ideal component (checked in
#: factor.ideal_component) or of the component an expression power
#: reaches (parser) before DegreeTooLarge
DIM_GUARD = 10000


def graded_dim(shape, d):
    """Dimension of the degree-d component, computed combinatorially."""
    if d < 0:
        return 0
    return math.comb(d + shape.ngens - 1, shape.ngens - 1)


# ----------------------------------------------------------------------
# torus action


class TorusElement:
    """Diagonal torus element acting by x[i,j] -> q^(a_i + b_j) * x[i,j].

    alphas and betas are the integer q-exponents a_i, one per row, and
    b_j, one per column.
    """

    __slots__ = ("shape", "alphas", "betas")

    def __init__(self, shape, alphas, betas):
        alphas = tuple(alphas)
        betas = tuple(betas)
        if len(alphas) != shape.m or len(betas) != shape.n:
            raise ShapeMismatch("torus element does not match %s" % shape)
        self.shape = shape
        self.alphas = alphas
        self.betas = betas

    def weight(self, exps):
        """The unit q^k this element multiplies a monomial by."""
        n = self.shape.n
        k = 0
        for idx, e in enumerate(exps):
            if e:
                k += (self.alphas[idx // n] + self.betas[idx % n]) * e
        return LaurentScalar({k: 1})

    def act(self, p):
        """Apply to an NCPoly; the action is by algebra automorphisms."""
        if p.shape != self.shape:
            raise ShapeMismatch("torus element over %s applied to %s"
                                % (self.shape, p.shape))
        return NCPoly(self.shape,
                      {e: c * self.weight(e) for e, c in p.terms.items()})

    def __repr__(self):
        return "TorusElement(alphas=%s, betas=%s)" % (
            list(self.alphas), list(self.betas))


def eigenvalue_of(h, p):
    """The scalar lam with h(p) = lam * p, or None if p is not an eigenvector."""
    if p.is_zero:
        raise ZeroInput("eigenvalue of the zero polynomial is ambiguous")
    lam = None
    for e in p.terms:
        w = h.weight(e)
        if lam is None:
            lam = w
        elif lam != w:
            return None
    return lam


# ----------------------------------------------------------------------
# rendering


def render_monomial(shape, exps):
    parts = []
    for idx, e in enumerate(exps):
        if e:
            i, j = shape.gen_at(idx)
            atom = "x[%d,%d]" % (i, j)
            parts.append(atom if e == 1 else atom + "^%d" % e)
    return "*".join(parts) if parts else "1"

def render_poly(p, den=1):
    """Deterministic text form matching the expression grammar.

    Terms are sorted by descending lex order on exponent vectors; multi-term
    coefficients are parenthesized, and a leading minus is pulled out of a
    coefficient whose highest q-power has a negative coefficient.  The text
    is that of p / den, den a positive int (see `render_laurent`).
    """
    if not p.terms:
        return "0"
    chunks = []
    for e in sorted(p.terms, reverse=True):
        c = p.terms[e]
        mono = render_monomial(p.shape, e)
        if len(c.terms) == 1:
            (exp, rat), = c.terms.items()
            negative = rat < 0
            if negative:
                rat = -rat
            if exp == 0 and rat == den and mono != "1":
                body = mono
            else:
                ctext = render_laurent(LaurentScalar({exp: rat}), den)
                body = ctext if mono == "1" else "%s*%s" % (ctext, mono)
        else:
            negative = c.leading_coeff < 0
            if negative:
                c = -c
            ctext = "(%s)" % render_laurent(c, den)
            body = ctext if mono == "1" else "%s*%s" % (ctext, mono)
        chunks.append(("-" if negative else "+", body))
    sign, body = chunks[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in chunks[1:]:
        text += " %s %s" % (sign, body)
    return text
