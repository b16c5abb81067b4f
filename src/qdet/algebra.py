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
"""

import itertools
from fractions import Fraction
from functools import lru_cache

from .errors import IndexOutOfShape, ShapeMismatch, ZeroInput
from .scalars import (LaurentScalar, RationalScalar, ZERO, ONE, Q_INV, QHAT,
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


class Monomial:
    """Ordered (PBW) monomial: an exponent vector over the grid generators."""

    __slots__ = ("shape", "exps", "_hash")

    def __init__(self, shape, exps):
        self.shape = shape
        self.exps = tuple(exps)
        if len(self.exps) != shape.ngens:
            raise ShapeMismatch("exponent vector does not match %s" % shape)
        self._hash = None

    @classmethod
    def from_word(cls, shape, word):
        exps = [0] * shape.ngens
        for (i, j) in word:
            exps[shape.gen_index(i, j)] += 1
        return cls(shape, exps)

    @property
    def degree(self):
        return sum(self.exps)

    def bidegree(self):
        """(row weight vector, column weight vector)."""
        rows = [0] * self.shape.m
        cols = [0] * self.shape.n
        for idx, e in enumerate(self.exps):
            if e:
                i, j = self.shape.gen_at(idx)
                rows[i - 1] += e
                cols[j - 1] += e
        return tuple(rows), tuple(cols)

    def __mul__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeMismatch("monomials over different shapes")
        return Monomial(self.shape, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __eq__(self, other):
        return (isinstance(other, Monomial) and self.shape == other.shape
                and self.exps == other.exps)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.shape.m, self.shape.n, self.exps))
        return self._hash

    def __str__(self):
        return render_monomial(self.shape, self.exps)

    def __repr__(self):
        return "Monomial(%s, %s)" % (self.shape, self.exps)


# ----------------------------------------------------------------------
# rewriting onto the PBW basis
#
# Internally a polynomial is dict[exponent tuple -> LaurentScalar]; words
# are tuples of (i, j) letters.  Everything here is pure and cached.


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


@lru_cache(maxsize=1 << 17)
def _nf_mono_gen(m, n, exps, gen):
    """Normal form of (ordered monomial) * x[gen]; cached."""
    word = []
    for idx, e in enumerate(exps):
        if e:
            word.extend([(idx // n + 1, idx % n + 1)] * e)
    word.append(gen)
    return _nf_word_raw(m, n, word)


@lru_cache(maxsize=1 << 15)
def _nf_concat(m, n, e1, e2):
    """Normal form of the product of two ordered monomials; cached."""
    poly = {e1: ONE}
    for idx, e in enumerate(e2):
        if not e:
            continue
        gen = (idx // n + 1, idx % n + 1)
        for _ in range(e):
            nxt = {}
            for exps, c in poly.items():
                for exps2, c2 in _nf_mono_gen(m, n, exps, gen):
                    acc = nxt.get(exps2)
                    acc = c * c2 if acc is None else acc + c * c2
                    if acc.is_zero:
                        nxt.pop(exps2, None)
                    else:
                        nxt[exps2] = acc
            poly = nxt
    return tuple(poly.items())


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
                if isinstance(c, (int, Fraction)):
                    c = LaurentScalar.from_rational(c)
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
        if isinstance(c, (int, Fraction)):
            c = LaurentScalar.from_rational(c)
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
        for e, c in other.terms.items():
            acc = out.get(e)
            acc = c if acc is None else acc + c
            if acc.is_zero:
                out.pop(e, None)
            else:
                out[e] = acc
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
        if isinstance(c, (int, Fraction)):
            c = LaurentScalar.from_rational(c)
        if c.is_zero:
            return NCPoly.zero(self.shape)
        r = NCPoly.__new__(NCPoly)
        r.shape = self.shape
        r.terms = {e: v * c for e, v in self.terms.items()}
        return r

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentScalar)):
            return self.scale(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._check(other)
        m, n = self.shape.m, self.shape.n
        out = {}
        for e2, c2 in other.terms.items():
            for e1, c1 in self.terms.items():
                c12 = c1 * c2
                for e, c in _nf_concat(m, n, e1, e2):
                    acc = out.get(e)
                    acc = c12 * c if acc is None else acc + c12 * c
                    if acc.is_zero:
                        out.pop(e, None)
                    else:
                        out[e] = acc
        r = NCPoly.__new__(NCPoly)
        r.shape = self.shape
        r.terms = out
        return r

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, LaurentScalar)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("NCPoly powers must be nonnegative ints")
        out = NCPoly.one(self.shape)
        for _ in range(k):
            out = out * self
        return out

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

    def homogeneous_components(self):
        """dict degree -> homogeneous NCPoly, over the nonzero components."""
        comps = {}
        for e, c in self.terms.items():
            comps.setdefault(sum(e), {})[e] = c
        return {d: NCPoly(self.shape, t) for d, t in sorted(comps.items())}

    def bidegree(self):
        """Common bidegree of all terms, or None if mixed or zero."""
        seen = None
        for e in self.terms:
            b = Monomial(self.shape, e).bidegree()
            if seen is None:
                seen = b
            elif seen != b:
                return None
        return seen

    def coeff(self, mono):
        key = mono.exps if isinstance(mono, Monomial) else tuple(mono)
        return self.terms.get(key, ZERO)

    def specialize(self, q0):
        """Coefficientwise evaluation; returns dict exps -> Fraction."""
        out = {}
        for e, c in self.terms.items():
            v = c.specialize(q0)
            if v:
                out[e] = v
        return out

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


def commutative_product(a, b):
    """Product of two specialized term dicts (exps -> Fraction)."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


# ----------------------------------------------------------------------
# graded pieces


def graded_basis(shape, d):
    """All ordered monomials of total degree d, descending lex order."""
    if d < 0:
        return []
    out = []

    def fill(slot, remaining, prefix):
        if slot == shape.ngens - 1:
            out.append(Monomial(shape, prefix + (remaining,)))
            return
        for e in range(remaining, -1, -1):
            fill(slot + 1, remaining - e, prefix + (e,))

    fill(0, d, ())
    return out


#: largest dimension of an ideal component (checked in
#: factor.ideal_component) or of the component an expression power
#: reaches (parser) before DegreeTooLarge
DIM_GUARD = 10000


def graded_dim(shape, d):
    """Dimension of the degree-d component, computed combinatorially."""
    import math
    if d < 0:
        return 0
    return math.comb(d + shape.ngens - 1, shape.ngens - 1)


# ----------------------------------------------------------------------
# torus action


class TorusElement:
    """Diagonal torus element acting by x[i,j] -> alpha_i * beta_j * x[i,j].

    Entries are invertible single-term Laurent scalars.
    """

    __slots__ = ("shape", "alphas", "betas")

    def __init__(self, shape, alphas, betas):
        alphas = tuple(alphas)
        betas = tuple(betas)
        if len(alphas) != shape.m or len(betas) != shape.n:
            raise ShapeMismatch("torus element does not match %s" % shape)
        for v in alphas + betas:
            if not isinstance(v, LaurentScalar) or not v.is_single_term:
                raise ZeroInput("torus entries must be single-term units")
        self.shape = shape
        self.alphas = alphas
        self.betas = betas

    def inverse(self):
        return TorusElement(self.shape,
                            tuple(v.unit_inverse() for v in self.alphas),
                            tuple(v.unit_inverse() for v in self.betas))

    def weight(self, exps):
        """The scalar this element multiplies a monomial by."""
        n = self.shape.n
        exp_total = 0
        coeff = 1
        for idx, e in enumerate(exps):
            if not e:
                continue
            ea, ca = self.alphas[idx // n].single_term()
            eb, cb = self.betas[idx % n].single_term()
            exp_total += (ea + eb) * e
            coeff *= (ca * cb) ** e
        return LaurentScalar({exp_total: coeff})

    def act(self, p):
        """Apply to an NCPoly; the action is by algebra automorphisms."""
        if p.shape != self.shape:
            raise ShapeMismatch("torus element over %s applied to %s"
                                % (self.shape, p.shape))
        return NCPoly(self.shape,
                      {e: c * self.weight(e) for e, c in p.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, TorusElement) and self.shape == other.shape
                and self.alphas == other.alphas and self.betas == other.betas)

    def __repr__(self):
        return "TorusElement(alphas=[%s], betas=[%s])" % (
            ", ".join(str(a) for a in self.alphas),
            ", ".join(str(b) for b in self.betas))


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
# commutation up to scalar


def q_commute_scalar(a, b):
    """The scalar c with a*b = c * b*a, as a RationalScalar, or None.

    Both inputs must be nonzero.  When it exists, c is unique because the
    algebra is a domain.
    """
    if a.is_zero or b.is_zero:
        raise ZeroInput("q_commute_scalar needs nonzero operands")
    ab = a * b
    ba = b * a
    e0 = min(ba.terms)
    num = ab.terms.get(e0)
    if num is None:
        return None
    den = ba.terms[e0]
    # check ab * den == ba * num exactly
    if ab.scale(den) == ba.scale(num):
        return RationalScalar(num, den)
    return None


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

def render_poly(p):
    """Deterministic text form matching the expression grammar.

    Terms are sorted by descending lex order on exponent vectors; multi-term
    coefficients are parenthesized, and a leading minus is pulled out of a
    coefficient whose highest q-power has a negative coefficient.
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
            unit = LaurentScalar({exp: rat})
            if unit == ONE and mono != "1":
                body = mono
            else:
                ctext = render_laurent(unit)
                body = ctext if mono == "1" else "%s*%s" % (ctext, mono)
        else:
            negative = c.leading_coeff < 0
            if negative:
                c = -c
            ctext = "(%s)" % render_laurent(c)
            body = ctext if mono == "1" else "%s*%s" % (ctext, mono)
        chunks.append(("-" if negative else "+", body))
    sign, body = chunks[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in chunks[1:]:
        text += " %s %s" % (sign, body)
    return text
