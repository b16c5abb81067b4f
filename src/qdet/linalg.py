"""Exact linear algebra over Q(q) for graded components.

Vectors are Laurent rows (column -> LaurentScalar): the coordinates of a
homogeneous polynomial over the ordered monomial basis of one graded
component, as `poly_row` writes them; a graded basis is the exponent
tuples of its monomials, in descending lex order.  There is one
eliminator, the fraction-free `Echelon` in the sense of Bareiss: rows
stay in Z[q, q^-1] with int coefficients (a Fraction only when a caller
hands in a non-integral one), a combined row is rescaled by its q-shift
and its integer (or rational) content only, and nothing is ever
divided.  Rank and span membership are decided this way, over Q(q)
itself; q is never evaluated at a point.

Pivot discipline: a stored echelon row is displaced when an incoming row
offers a shorter pivot entry (fewer Laurent terms); ties keep the stored
row.  An incoming row equal to the stored one at its pivot, both
normalized, is dependent and is dropped without a combination.  Leading
position is the smallest column index.

Multiplication by a generator is a linear map from one graded component
to the next; `generator_images` holds its right half column by column,
so `generator_products` takes a product with a generator on Laurent rows
without an NCPoly.  The anti-automorphism rho: x[i,j] -> x[m+1-i, n+1-j]
reverses the lex order of the generators, so it sends the ordered monomial
x^e to x^reverse(e) with coefficient 1, and x_g * b = rho(rho(b) * rho(x_g)).
On rows, rho is the permutation `GradedBasis.reversal` of each component,
so a left product is a right product over the reversed columns, by the
mirrored generator, read back through the reversal: no left image is
rewritten or stored.
"""

from functools import lru_cache
from math import gcd, lcm

from .errors import BasisMismatch, ShapeMismatch
from .algebra import (MatrixShape, _Memo, _nf_mono_gen_raw, _share,
                      graded_basis)
from .scalars import _laurent


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

    def reversal(self):
        """rho on columns: entry k is the column of monomial k read backwards.

        An involution; built on first use.
        """
        if self._reversal is None:
            index = self.index
            self._reversal = tuple([index[e[::-1]] for e in self.monomials])
        return self._reversal


@lru_cache(maxsize=256)
def _basis_cached(m, n, degree):
    return GradedBasis(MatrixShape(m, n), degree)


def component_basis(shape, degree):
    return _basis_cached(shape.m, shape.n, degree)


_IMAGES = _Memo(1 << 16)


def generator_images(shape, degree, col):
    """b * x_g for every generator x_g, as rows.

    b is monomial `col` of component_basis(shape, degree - 1).  Returns a
    tuple over the generators g in lex order; entry g is b * x_g as a
    tuple of (column, LaurentScalar) over component_basis(shape, degree).
    Left images x_g * b are not held: generator_products reads them from
    the right images of the reversed column (see the module docstring).
    Memoised per shape, degree and column, so only the columns a product
    touches are ever built; the rewriting it reads is the uncached
    _nf_mono_gen_raw, so each image is stored here and nowhere else.
    """
    m, n = shape.m, shape.n
    table = _IMAGES.dicts(m, n, 1)[0]
    key = (degree, col)
    images = table.get(key)
    if images is not None:
        _IMAGES.hits += 1
        return images
    exps = component_basis(shape, degree - 1).monomials[col]
    index = component_basis(shape, degree).index
    _IMAGES.miss()
    images = tuple([tuple([(index[e], _share(c))
                           for e, c in _nf_mono_gen_raw(m, n, exps, g)])
                    for g in range(m * n)])
    table[key] = images
    return images


generator_images.cache_info = _IMAGES.cache_info
generator_images.cache_clear = _IMAGES.cache_clear


def generator_products(shape, degree, row):
    """x_g * row, then row * x_g, for each generator x_g in lex order.

    row is a Laurent row over component_basis(shape, degree - 1); the
    2 * ngens products are rows over component_basis(shape, degree).  An
    entry that cancels stays as a zero scalar; Echelon.insert drops it.
    x_g * row = rho(rho(row) * rho(x_g)): the right images of the reversed
    columns, by the generator of lex index ngens - 1 - g, with their
    columns read back through the reversal.
    """
    flip = component_basis(shape, degree - 1).reversal()
    back = component_basis(shape, degree).reversal()
    rights = [(c, generator_images(shape, degree, i)) for i, c in row.items()]
    lefts = [(c, generator_images(shape, degree, flip[i]))
             for i, c in row.items()]
    last = shape.ngens - 1
    for g in range(shape.ngens):
        left = _image_sum(lefts, last - g)
        yield {back[j]: v for j, v in left.items()}
        yield _image_sum(rights, g)


def _image_sum(images, g):
    """The row sum of c * image[g] over the (c, image) pairs."""
    out = {}
    for c, image in images:
        for j, t in image[g]:
            acc = out.get(j)
            out[j] = c * t if acc is None else acc + c * t
    return out


def poly_row(p, basis):
    """A homogeneous NCPoly as a Laurent row (column -> coefficient)."""
    if p.shape != basis.shape:
        raise ShapeMismatch("polynomial over %s, basis over %s"
                            % (p.shape, basis.shape))
    index = basis.index
    row = {}
    for e, c in p.terms.items():
        i = index.get(e)
        if i is None:
            raise BasisMismatch("degree-%d term in a degree-%d component"
                                % (sum(e), basis.degree))
        row[i] = c
    return row


# ----------------------------------------------------------------------
# fraction-free echelon over Laurent rows (dict col -> LaurentScalar)


def row_normalized(row):
    """Strip the q-shift and the integer (or rational) content; fix the sign.

    Afterwards the lowest exponent over the row is 0, the coefficients are
    coprime ints, and the pivot (lowest column) entry has a positive
    coefficient on its highest power of q.  Polynomial content is left in
    place: the rows stay small without it, and normalization is
    deterministic, so the stored echelon is too.
    """
    if not row:
        return row
    shift = min([min(v.terms) for v in row.values()])
    pivot = row[min(row)].terms
    den = 1
    try:
        g = gcd(*[c for v in row.values() for c in v.terms.values()])
    except TypeError:
        # some coefficient is a Fraction: scale by the lcm of denominators
        den = lcm(*[c.denominator for v in row.values()
                    for c in v.terms.values()])
        g = gcd(*[c.numerator * (den // c.denominator)
                  for v in row.values() for c in v.terms.values()])
    if pivot[max(pivot)] < 0:
        g = -g
    if den == 1:
        if g == 1 and not shift:
            return row
        return {k: _laurent({e - shift: c // g for e, c in v.terms.items()})
                for k, v in row.items()}
    return {k: _laurent({e - shift: c.numerator * (den // c.denominator) // g
                         for e, c in v.terms.items()})
            for k, v in row.items()}


def _combine(row, piv_row, col):
    """piv * row - row[col] * piv_row, content-stripped; kills `col`."""
    piv = piv_row[col]
    fac = row[col]
    out = {}
    for k, v in row.items():
        if k == col:
            continue
        out[k] = v * piv
    for k, v in piv_row.items():
        if k == col:
            continue
        acc = out.get(k)
        acc = -(v * fac) if acc is None else acc - v * fac
        if acc.is_zero:
            out.pop(k, None)
        else:
            out[k] = acc
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
        """Reduce a Laurent row and store it if independent.

        Returns True when the rank grew.
        """
        row = row_normalized({k: v for k, v in row.items() if not v.is_zero})
        while row:
            col = min(row)
            stored = self.pivots.get(col)
            if stored is None:
                self.pivots[col] = row
                return True
            if len(row[col].terms) < len(stored[col].terms):
                self.pivots[col] = row
                row = stored
                continue
            if row == stored:
                return False
            row = _combine(row, stored, col)
        return False

    def residue(self, row):
        """Reduce without inserting.  Zero residue means membership.

        The reduction is fraction-free, so the residue is the true one up
        to a nonzero scalar; only its (non)vanishing is meaningful.
        """
        row = {k: v for k, v in row.items() if not v.is_zero}
        while row:
            col = min(row)
            stored = self.pivots.get(col)
            if stored is None:
                return row
            row = _combine(row, stored, col)
        return row

    def rows(self):
        """Stored rows, by pivot column."""
        return [self.pivots[c] for c in sorted(self.pivots)]

    def copy(self):
        """The same pivots in a new echelon; rows are shared, never mutated."""
        ech = Echelon()
        ech.pivots = dict(self.pivots)
        return ech


def rank(rows):
    """Rank of Laurent rows, by fraction-free elimination over Q[q, q^-1]."""
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    return ech.rank

