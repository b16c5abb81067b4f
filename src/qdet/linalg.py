"""Exact linear algebra over Q(q) for graded components.

Vectors are coordinates of homogeneous polynomials over the ordered
monomial basis of one graded component.  Elimination is fraction-free
in the sense of Bareiss: rows stay in Z[q, q^-1] with int coefficients
(a Fraction only when a caller hands in a non-integral one), a combined
row is rescaled by its q-shift and its integer (or rational) content
only, and division only happens when explicit solution coefficients are
requested.  Rank and span membership are always decided this way, over
Q(q) itself; q is never evaluated at a point.

Pivot discipline: a stored echelon row is displaced when an incoming row
offers a shorter pivot entry (fewer Laurent terms); ties keep the stored
row.  Leading position is the smallest column index.
"""

from functools import lru_cache
from math import gcd, lcm

from .errors import BasisMismatch, DegreeTooLarge, ShapeMismatch
from .algebra import NCPoly, graded_basis, graded_dim
from .scalars import (RationalScalar, RAT_ONE, RAT_ZERO, _laurent,
                      clear_denominators)


class GradedBasis:
    """Ordered monomial basis of one graded component, with an index map."""

    __slots__ = ("shape", "degree", "monomials", "index")

    def __init__(self, shape, degree, guard=None):
        if guard is not None and graded_dim(shape, degree) > guard:
            raise DegreeTooLarge(
                "degree-%d component of %s has dimension %d (guard %d)"
                % (degree, shape, graded_dim(shape, degree), guard))
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
def _basis_cached(m, n, degree, guard):
    from .algebra import MatrixShape
    return GradedBasis(MatrixShape(m, n), degree, guard)


def component_basis(shape, degree, guard=None):
    return _basis_cached(shape.m, shape.n, degree, guard)


class CoefficientVector:
    """A homogeneous polynomial written out over a GradedBasis."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis, coeffs):
        self.basis = basis
        self.coeffs = {i: c for i, c in coeffs.items() if not c.is_zero}

    @classmethod
    def from_poly(cls, p, basis):
        return cls(basis, {i: RationalScalar.from_laurent(c)
                           for i, c in poly_row(p, basis).items()})

    def to_poly(self):
        terms = {}
        for i, c in self.coeffs.items():
            terms[self.basis.monomials[i].exps] = c.to_laurent()
        return NCPoly(self.basis.shape, terms)

    @property
    def entries(self):
        return [self.coeffs.get(i, RAT_ZERO) for i in range(len(self.basis))]

    @property
    def is_zero(self):
        return not self.coeffs

    def _laurent_row(self):
        """Clear denominators: the row times a nonzero common denominator,
        which keeps rank and membership."""
        nums, _ = clear_denominators(self.coeffs.values())
        return dict(zip(self.coeffs, nums))


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


def _check_same_basis(vectors):
    basis = None
    for v in vectors:
        if basis is None:
            basis = v.basis
        elif v.basis != basis:
            raise BasisMismatch("vectors over different graded bases")
    return basis


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


def rank(vectors):
    """Rank of a list of CoefficientVectors, by fraction-free elimination
    over Q[q, q^-1]."""
    vectors = list(vectors)
    if not vectors:
        return 0
    _check_same_basis(vectors)
    ech = Echelon()
    for v in vectors:
        ech.insert(v._laurent_row())
    return ech.rank


# ----------------------------------------------------------------------
# solving for explicit coefficients (division allowed)


class LinearSolver:
    """Row echelon with exact division and provenance tracking.

    Stores rows over RationalScalar together with the combination of the
    original inserted vectors that produced them, so membership queries can
    return witness coefficients that recombine exactly.
    """

    __slots__ = ("pivots", "count")

    def __init__(self):
        self.pivots = {}
        self.count = 0

    def insert(self, row):
        combo = {self.count: RAT_ONE}
        self.count += 1
        row = dict(row)
        while row:
            col = min(row)
            stored = self.pivots.get(col)
            if stored is None:
                self.pivots[col] = (row, combo)
                return True
            row, combo = self._reduce_once(row, combo, stored, col)
        return False

    @staticmethod
    def _reduce_once(row, combo, stored, col):
        srow, scombo = stored
        fac = row[col] / srow[col]
        out = {k: v for k, v in row.items() if k != col}
        for k, v in srow.items():
            if k == col:
                continue
            acc = out.get(k)
            acc = -(fac * v) if acc is None else acc - fac * v
            if acc.is_zero:
                out.pop(k, None)
            else:
                out[k] = acc
        ncombo = dict(combo)
        for k, v in scombo.items():
            acc = ncombo.get(k)
            acc = -(fac * v) if acc is None else acc - fac * v
            if acc.is_zero:
                ncombo.pop(k, None)
            else:
                ncombo[k] = acc
        return out, ncombo

    def express(self, row):
        """Coefficients over the inserted vectors, or None if outside the span."""
        row = dict(row)
        combo = {}
        while row:
            col = min(row)
            stored = self.pivots.get(col)
            if stored is None:
                return None
            row, combo = self._reduce_once(row, combo, stored, col)
        return {k: -v for k, v in combo.items()}


def span_membership(v, spanning):
    """Write v as an exact combination of the spanning vectors.

    Returns a list of RationalScalars aligned with `spanning`, or None when
    v lies outside the span.
    """
    spanning = list(spanning)
    _check_same_basis(spanning + [v])
    if v.is_zero:
        return [RAT_ZERO] * len(spanning)
    solver = LinearSolver()
    for s in spanning:
        solver.insert(dict(s.coeffs))
    combo = solver.express(dict(v.coeffs))
    if combo is None:
        return None
    return [combo.get(i, RAT_ZERO) for i in range(len(spanning))]
