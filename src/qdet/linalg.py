"""Exact linear algebra over Q(q) for graded components.

Vectors are integer rows: one dict mapping (column, exponent) to a
nonzero int, so the coordinate of a row at column i is the Laurent
polynomial sum(c * q^e) over its keys (i, e).  A row holds the
coordinates of a homogeneous polynomial over the ordered monomial basis
of one graded component, as `poly_row` writes them; a graded basis is
the exponent tuples of its monomials, in descending lex order.
`poly_row` is the one way in from NCPoly: LaurentScalar coefficients are
ints, so it copies them as they are and no LaurentScalar enters the
engine.

There is one eliminator, the fraction-free `Echelon` in the sense of
Bareiss: rows stay in Z[q, q^-1], a combined row is rescaled by its
q-shift and its integer content only, and nothing is ever divided.
Rank and span membership are decided this way, over Q(q) itself; q is
never evaluated at a point.

Pivot discipline: the leading position is the smallest column, and the
pivot entry of a row is its coordinate there (every key with that
column).  A stored echelon row is displaced when an incoming row offers
a shorter pivot entry (fewer Laurent terms); ties keep the stored row.
An incoming row equal to the stored one at its pivot, both normalized,
is dependent and is dropped without a combination.

Multiplication by a generator is a linear map from one graded component
to the next; `generator_images` builds its right half for one column,
each image one flat tuple of (column, exponent, int) triples, and
`generator_products` takes products with a generator on rows without an
NCPoly, holding a column's images from the first row that reads them to
the last.  The anti-automorphism rho: x[i,j] -> x[m+1-i, n+1-j]
reverses the lex order of the generators, so it sends the ordered monomial
x^e to x^reverse(e) with coefficient 1, and x_g * b = rho(rho(b) * rho(x_g)).
On rows, rho is the permutation `GradedBasis.reversal` of each component,
so a left product is a right product over the reversed columns, by the
mirrored generator, read back through the reversal: no left image is
rewritten or stored.
"""

from functools import lru_cache
from math import gcd

from .errors import BasisMismatch, ShapeMismatch
from .algebra import _nf_mono_gen_raw, graded_basis


class GradedBasis:
    """Exponent tuples of one graded component, with an index map."""

    __slots__ = ("shape", "degree", "monomials", "index", "_reversal")

    def __init__(self, shape, degree):
        self.shape = shape
        self.degree = degree
        self.monomials = tuple(graded_basis(shape, degree))
        self.index = {e: i for i, e in enumerate(self.monomials)}
        self._reversal = None

    def __len__(self):
        return len(self.monomials)

    def new_column(self, e):
        """A monomial outside the index is outside the component."""
        raise BasisMismatch("degree-%d term in a degree-%d component"
                            % (sum(e), self.degree))

    def reversal(self):
        """rho on columns: entry k is the column of monomial k read backwards.

        An involution; built on first use.
        """
        if self._reversal is None:
            index = self.index
            self._reversal = tuple([index[e[::-1]] for e in self.monomials])
        return self._reversal


class LocalColumns:
    """Columns of one graded component, numbered in first-seen order.

    Any injective numbering of the monomials gives rows of the same rank,
    so a caller that only ranks rows numbers the monomials its rows touch
    instead of building the component's basis.
    """

    __slots__ = ("shape", "degree", "index")

    def __init__(self, shape, degree):
        self.shape = shape
        self.degree = degree
        self.index = {}

    def new_column(self, e):
        """The next free column, now monomial e's."""
        if sum(e) != self.degree:
            raise BasisMismatch("degree-%d term in a degree-%d component"
                                % (sum(e), self.degree))
        i = self.index[e] = len(self.index)
        return i


@lru_cache(maxsize=256)
def component_basis(shape, degree):
    """The GradedBasis of one component, built once per shape and degree."""
    return GradedBasis(shape, degree)


def generator_images(shape, degree, col):
    """b * x_g for every generator x_g, each as one flat tuple
    (column, exponent, int, column, exponent, int, ...).

    b is monomial `col` of component_basis(shape, degree - 1).  Returns a
    tuple over the generators g in lex order; entry g is the row of
    b * x_g over component_basis(shape, degree), one (column, exponent,
    int) triple after another.  Left images x_g * b are not built:
    generator_products reads them from the right images of the reversed
    column (see the module docstring).  Nothing is stored: the rewriting
    it reads is the uncached _nf_mono_gen_raw, and generator_products
    holds each image only while its rows read it.
    """
    m, n = shape.m, shape.n
    exps = component_basis(shape, degree - 1).monomials[col]
    index = component_basis(shape, degree).index
    images = []
    for g in range(m * n):
        it = iter(_nf_mono_gen_raw(m, n, exps, g))
        images.append(tuple([x for e, s in zip(it, it)
                             for f, c in s.terms.items()
                             for x in (index[e], f, c)]))
    return tuple(images)


def generator_products(shape, degree, rows):
    """x_g * row, then row * x_g, per row and per generator x_g in lex order.

    rows are integer rows over component_basis(shape, degree - 1), read
    twice; the products are rows over component_basis(shape, degree).  An
    entry that cancels stays as a zero int; Echelon.insert drops it.
    x_g * row = rho(rho(row) * rho(x_g)): the right images of the reversed
    columns, by the generator of lex index ngens - 1 - g, with their
    columns read back through the reversal.  A column's images are built
    at the first row that reads them and dropped after the last.
    """
    flip = component_basis(shape, degree - 1).reversal()
    back = component_basis(shape, degree).reversal()
    held, uses = {}, [0] * len(flip)
    for row in rows:
        for i in {i for i, _ in row}:
            uses[i] += 1
            uses[flip[i]] += 1

    def images(col):
        got = held.get(col)
        if got is None:
            got = held[col] = generator_images(shape, degree, col)
        uses[col] -= 1
        if not uses[col]:
            del held[col]
        return got

    last = shape.ngens - 1
    for row in rows:
        by_col = {}
        for (i, e), c in row.items():
            by_col.setdefault(i, []).append((e, c))
        rights = [(terms, images(i)) for i, terms in by_col.items()]
        lefts = [(terms, images(flip[i])) for i, terms in by_col.items()]
        for g in range(shape.ngens):
            left = _image_sum(lefts, last - g)
            yield {(back[j], e): c for (j, e), c in left.items()}
            yield _image_sum(rights, g)


def _image_sum(images, g):
    """The row sum of q^e * c * image[g] over the (terms, image) pairs.

    terms is the list of (e, c) of one column of the row.
    """
    out = {}
    get = out.get
    for terms, image in images:
        it = iter(image[g])
        for j, f, d in zip(it, it, it):
            for e, c in terms:
                key = (j, e + f)
                acc = get(key)
                out[key] = c * d if acc is None else acc + c * d
    return out


def poly_row(p, basis):
    """A homogeneous NCPoly as an integer row ((column, exponent) -> int).

    basis is a GradedBasis or LocalColumns of p's degree.
    """
    if p.shape != basis.shape:
        raise ShapeMismatch("polynomial over %s, basis over %s"
                            % (p.shape, basis.shape))
    index = basis.index
    row = {}
    for e, s in p.terms.items():
        i = index.get(e)
        if i is None:
            i = basis.new_column(e)
        for f, c in s.terms.items():
            row[i, f] = c
    return row


# ----------------------------------------------------------------------
# fraction-free echelon over integer rows


def row_normalized(row):
    """Strip the q-shift and the integer content; fix the sign.

    Afterwards the lowest exponent over the row is 0, the coefficients are
    coprime ints, and the pivot (lowest column) entry has a positive
    coefficient on its highest power of q.  Polynomial content is left in
    place: the rows stay small without it, and normalization is
    deterministic, so the stored echelon is too.
    """
    if not row:
        return row
    col = min(row)[0]
    shift = min([e for _, e in row])
    g = gcd(*row.values())
    if row[max([k for k in row if k[0] == col])] < 0:
        g = -g
    if g == 1 and not shift:
        return row
    return {(i, e - shift): c // g for (i, e), c in row.items()}


def _entry(row, col):
    """The (exponent, int) terms of the row at column col."""
    return [(e, c) for (i, e), c in row.items() if i == col]


def _combine(row, piv_row, col, fac, piv):
    """piv * row - fac * piv_row, content-stripped; kills `col`.

    fac and piv are the entries of row and piv_row at col, as _entry
    gives them.
    """
    if len(piv) == 1:
        ((f, d),) = piv
        out = {(i, e + f): c * d for (i, e), c in row.items() if i != col}
    else:
        out = {}
        for (i, e), c in row.items():
            if i != col:
                for f, d in piv:
                    key = (i, e + f)
                    acc = out.get(key, 0) + c * d
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
    get = out.get
    for (i, e), c in piv_row.items():
        if i != col:
            for f, d in fac:
                key = (i, e + f)
                acc = get(key, 0) - c * d
                if acc:
                    out[key] = acc
                else:
                    del out[key]
    return row_normalized(out) if out else out


class Echelon:
    """Incremental fraction-free row echelon form."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def insert(self, row):
        """Reduce an integer row and store it if independent.

        Returns True when the rank grew.
        """
        if 0 in row.values():
            row = {k: c for k, c in row.items() if c}
        row = row_normalized(row)
        pivots = self.pivots
        while row:
            col = min(row)[0]
            stored = pivots.get(col)
            if stored is None:
                pivots[col] = row
                return True
            # an equal row has an equal pivot entry, so it displaces nothing
            if row == stored:
                return False
            fac = _entry(row, col)
            piv = _entry(stored, col)
            if len(fac) < len(piv):
                pivots[col] = row
                row = stored
                continue
            row = _combine(row, stored, col, fac, piv)
        return False

    def residue(self, row):
        """Reduce without inserting.  Zero residue means membership.

        The reduction is fraction-free, so the residue is the true one up
        to a nonzero scalar; only its (non)vanishing is meaningful.
        """
        row = {k: c for k, c in row.items() if c}
        while row:
            col = min(row)[0]
            stored = self.pivots.get(col)
            if stored is None:
                return row
            row = _combine(row, stored, col, _entry(row, col),
                           _entry(stored, col))
        return row

    def rows(self):
        """Stored rows, by pivot column."""
        return [self.pivots[c] for c in sorted(self.pivots)]

    def copy(self):
        """The same pivots in a new echelon; rows are shared, never mutated."""
        ech = Echelon()
        ech.pivots = dict(self.pivots)
        return ech
