"""Exact linear algebra over Q(q) for graded components.

Vectors are Laurent rows (column -> LaurentScalar): the coordinates of a
homogeneous polynomial over the ordered monomial basis of one graded
component, as `poly_row` writes them.  There is one eliminator, the
fraction-free `Echelon` in the sense of Bareiss: rows stay in
Z[q, q^-1] with int coefficients (a Fraction only when a caller hands in
a non-integral one), a combined row is rescaled by its q-shift and its
integer (or rational) content only, and nothing is ever divided.  Rank
and span membership are decided this way, over Q(q) itself; q is never
evaluated at a point.  Explicit coefficients are read off provenance
columns carried through the same elimination (see Span): a witness is a
list of Laurent numerators over one Laurent denominator, never a
fraction.

Pivot discipline: a stored echelon row is displaced when an incoming row
offers a shorter pivot entry (fewer Laurent terms); ties keep the stored
row.  Leading position is the smallest column index.
"""

from functools import lru_cache
from math import gcd, lcm

from .errors import BasisMismatch, ShapeMismatch
from .algebra import MatrixShape, graded_basis
from .scalars import ONE, ZERO, _laurent


class GradedBasis:
    """Ordered monomial basis of one graded component, with an index map."""

    __slots__ = ("shape", "degree", "monomials", "index")

    def __init__(self, shape, degree):
        self.shape = shape
        self.degree = degree
        self.monomials = tuple(graded_basis(shape, degree))
        self.index = {m.exps: i for i, m in enumerate(self.monomials)}

    def __len__(self):
        return len(self.monomials)

    def __eq__(self, other):
        return (isinstance(other, GradedBasis) and self.shape == other.shape
                and self.degree == other.degree)

    def __hash__(self):
        return hash((self.shape, self.degree))


@lru_cache(maxsize=256)
def _basis_cached(m, n, degree):
    return GradedBasis(MatrixShape(m, n), degree)


def component_basis(shape, degree):
    return _basis_cached(shape.m, shape.n, degree)


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


class Span:
    """The span of fixed Laurent rows, eliminated once, expressing targets.

    All rows live in the columns below `width`.  Provenance columns follow
    the basis columns: spanning row i is inserted with a 1 at column
    width + i, on top of a copy of the Echelon `base` when one is given
    (base rows carry no provenance, so any member of the base span joins
    a combination for free).  `express` reduces a target carrying a 1 at
    width + len(spanning) without inserting it, so one Span serves any
    number of targets and its pivots never change.
    """

    __slots__ = ("width", "size", "echelon")

    def __init__(self, spanning, width, base=None):
        self.width = width
        self.size = len(spanning)
        self.echelon = Echelon() if base is None else base.copy()
        for i, row in enumerate(spanning):
            self.echelon.insert({**row, width + i: ONE})

    def express(self, target):
        """Write the Laurent row `target` over the spanning rows.

        Returns (nums, den), LaurentScalars with den nonzero and
        den * target - sum(nums[i] * spanning[i]) in the base span (zero
        without a base), or None when the target lies outside the span.
        Every row the elimination makes combines augmented rows and base
        rows, so once the target's basis columns reduce away its residue
        is that difference (up to a base member) in provenance form:
        nums[i] is minus its entry at width + i and den its entry at
        width + len(spanning), a column no stored row has.
        """
        width, n = self.width, self.size
        res = self.echelon.residue({**target, width + n: ONE})
        if min(res) < width:
            return None
        return [-res.get(width + i, ZERO) for i in range(n)], res[width + n]
