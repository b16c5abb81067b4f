"""Quantum minors, the standard partial order, and Laplace-type identities.

A minor [I|J] is indexed by equal-size ascending row and column sets.  Its
value is the quantum determinant of the selected subgrid,

    [I|J] = sum over permutations s of (-q)^(inversions of s)
            * x[i_1, j_s(1)] * ... * x[i_t, j_s(t)],

with rows taken in increasing order.  The empty minor is 1 and size-one
minors are the generators themselves.

The standard order puts *larger* minors lower: [I|J] <= [K|L] iff
|I| >= |K| and the first |K| entries of I and J are entrywise <= K and L.
"""

import itertools
import operator
from functools import lru_cache, reduce

from .errors import (DegreeTooLarge, EmptyMinor, IndexOutOfShape,
                     ShapeMismatch, SizeMismatch)
from .algebra import MatrixShape, NCPoly, _add_terms
from .scalars import minus_q_power

#: largest minor size minor_value expands (size 8 has 40320 terms)
MINOR_SIZE_GUARD = 8


def _check_index_set(values, bound, what):
    values = tuple(values)
    for v in values:
        if not isinstance(v, int) or not (1 <= v <= bound):
            raise IndexOutOfShape("%s index %r outside 1..%d" % (what, v, bound))
    if any(a >= b for a, b in zip(values, values[1:])):
        raise IndexOutOfShape("%s indices must be strictly increasing: %s"
                              % (what, list(values)))
    return values


class Minor:
    """Index pair of a quantum minor inside a fixed shape."""

    __slots__ = ("shape", "rows", "cols", "_hash")

    def __init__(self, shape, rows, cols):
        rows = _check_index_set(rows, shape.m, "row")
        cols = _check_index_set(cols, shape.n, "column")
        if len(rows) != len(cols):
            raise SizeMismatch("minor needs equal numbers of rows and columns")
        self.shape = shape
        self.rows = rows
        self.cols = cols
        self._hash = None

    @property
    def size(self):
        return len(self.rows)

    @property
    def is_empty(self):
        return not self.rows

    def __eq__(self, other):
        return (isinstance(other, Minor) and self.shape == other.shape
                and self.rows == other.rows and self.cols == other.cols)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.shape.m, self.shape.n, self.rows, self.cols))
        return self._hash

    def __str__(self):
        return "minor[%s|%s]" % (",".join(map(str, self.rows)),
                                 ",".join(map(str, self.cols)))

    def __repr__(self):
        return self.__str__()


def _inversions(perm):
    return sum(1 for a, b in itertools.combinations(perm, 2) if a > b)


@lru_cache(maxsize=1 << 13)
def _minor_value_cached(m, n, rows, cols, method):
    shape = MatrixShape(m, n)
    if not rows:
        return NCPoly.one(shape)
    if method == "perm_sum":
        # rows strictly increase, so every word is already PBW-ordered:
        # its normal form is the monomial itself with coefficient 1
        t = len(rows)
        signs = [minus_q_power(k) for k in range(t * (t - 1) // 2 + 1)]
        starts = [(r - 1) * n - 1 for r in rows]
        zeros = [0] * (m * n)
        terms = {}
        for perm in itertools.permutations(cols):
            exps = list(zeros)
            for start, c in zip(starts, perm):
                exps[start + c] = 1
            terms[tuple(exps)] = signs[_inversions(perm)]
        return NCPoly(shape, terms)
    if method == "laplace_first_row":
        out = NCPoly.zero(shape)
        for k in range(len(cols)):
            sub = _minor_value_cached(m, n, rows[1:], cols[:k] + cols[k + 1:],
                                      "laplace_first_row")
            term = NCPoly.generator(shape, rows[0], cols[k]) * sub
            out = out + term.scale(minus_q_power(k))
        return out
    raise ValueError("unknown expansion method %r" % method)


def minor_value(minor, method="perm_sum"):
    """Expand a minor to its PBW normal form.

    Both methods agree; "laplace_first_row" recurses along the top row and
    exists so the permutation sum can be cross-checked against it.  A minor
    above MINOR_SIZE_GUARD raises DegreeTooLarge before any expansion.
    """
    if minor.size > MINOR_SIZE_GUARD:
        raise DegreeTooLarge("minor of size %d exceeds the size-%d guard "
                             "(%s has %d! terms)"
                             % (minor.size, MINOR_SIZE_GUARD, minor, minor.size))
    return _minor_value_cached(minor.shape.m, minor.shape.n,
                               minor.rows, minor.cols, method)


def minors_product(shape, factors):
    """The product of the minors' values, left to right; 1 for none."""
    if not factors:
        return NCPoly.one(shape)
    return reduce(operator.mul, map(minor_value, factors))


def std_le(a, b):
    """The standard order: a <= b with larger minors lower."""
    if not a.rows or not b.rows:
        raise EmptyMinor("the standard order is defined on nonempty minors")
    # called pool^2 times per order table: identity before Shape.__eq__
    if a.shape is not b.shape and a.shape != b.shape:
        raise ShapeMismatch("minors over different shapes")
    if len(a.rows) < len(b.rows):
        return False
    # map stops at b's length: only the first |b| entries of a compare
    return (all(map(operator.le, a.rows, b.rows))
            and all(map(operator.le, a.cols, b.cols)))


@lru_cache(maxsize=64)
def _enumerate_minors_cached(m, n):
    shape = MatrixShape(m, n)
    out = []
    for t in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(1, m + 1), t):
            for cols in itertools.combinations(range(1, n + 1), t):
                out.append(Minor(shape, rows, cols))
    return tuple(out)


def enumerate_minors(shape):
    """All nonempty minors: size ascending, then rows, then columns."""
    return list(_enumerate_minors_cached(shape.m, shape.n))


def minor_count(shape, bound):
    """len(enumerate_minors(shape)), C(m + n, m) - 1, counted by formula.

    Above bound it raises DegreeTooLarge without forming the binomial in
    full: C(m + n - k + i, i), k = min(m, n), grows with i = 1..k, so
    the product stops once it passes bound + 1."""
    k = min(shape.m, shape.n)
    c = 1
    for i in range(1, k + 1):
        c = c * (shape.m + shape.n - k + i) // i
        if c > bound + 1:
            raise DegreeTooLarge("%s has more than %d minors" % (shape, bound))
    return c - 1


@lru_cache(maxsize=64)
def std_le_masks(shape):
    """The standard order on enumerate_minors(shape) as up-set bitmasks.

    Bit b of up[a] is set iff std_le(pool[a], pool[b]).  Built once per
    shape with pool^2 std_le calls, then shared by the minors suite's
    order checks and standard_monomial_counts.
    """
    pool = _enumerate_minors_cached(shape.m, shape.n)
    up = []
    for a in pool:
        mask = 0
        for k, b in enumerate(pool):
            if std_le(a, b):
                mask |= 1 << k
        up.append(mask)
    return tuple(up)


def bits(mask):
    """Positions of the set bits of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def excluded_minors(gamma):
    """Minors that do not dominate gamma; they generate the factor ideal."""
    return [a for a in enumerate_minors(gamma.shape) if not std_le(gamma, a)]


class MinorIdentity:
    """A formal sum of products of minors asserted to vanish.

    terms is a sequence of (LaurentScalar, tuple-of-Minor); evaluation
    expands every factor and multiplies left to right.
    """

    __slots__ = ("shape", "terms")

    def __init__(self, shape, terms):
        self.shape = shape
        self.terms = tuple((c, tuple(fs)) for c, fs in terms)
        for _, fs in self.terms:
            for f in fs:
                if f.shape != shape:
                    raise ShapeMismatch("identity factor over the wrong shape")

    def evaluate(self):
        out = {}
        for c, fs in self.terms:
            _add_terms(out, minors_product(self.shape, fs).scale(c).terms)
        return NCPoly(self.shape, out)

    @property
    def holds(self):
        return self.evaluate().is_zero

    def __str__(self):
        bits = []
        for c, fs in self.terms:
            prod = "*".join(str(f) for f in fs) if fs else "1"
            bits.append("(%s)*%s" % (c, prod))
        return " + ".join(bits) + " = 0"

    def __repr__(self):
        return "MinorIdentity(%s)" % self


def _pos_in(value, index_set):
    """|[1, value) intersected with the set|: how many entries precede it."""
    return sum(1 for v in index_set if v < value)


def laplace_relation(shape, rows, cols, r):
    """Column-expansion Laplace identity as a vanishing MinorIdentity.

    For |cols| = |rows| + 1 and a row index r:

        sum over j in cols of (-q)^(position of j in cols)
            * x[r,j] * [rows | cols minus j]
        equals (-q)^(position of r in rows) * [rows + r | cols]  if r not in rows,
        and equals 0 if r is in rows.

    The returned identity carries the left side together with the negated
    right side, so `holds` certifies the relation.
    """
    rows = _check_index_set(rows, shape.m, "row")
    cols = _check_index_set(cols, shape.n, "column")
    if len(cols) != len(rows) + 1:
        raise SizeMismatch("Laplace needs |cols| = |rows| + 1 "
                           "(transposed for a row sum)")
    shape.check(r, 1)
    terms = []
    for j in cols:
        rest = tuple(c for c in cols if c != j)
        terms.append((minus_q_power(_pos_in(j, cols)),
                      (Minor(shape, (r,), (j,)), Minor(shape, rows, rest))))
    if r not in rows:
        merged = tuple(sorted(rows + (r,)))
        terms.append((-minus_q_power(_pos_in(r, rows)),
                      (Minor(shape, merged, cols),)))
    return MinorIdentity(shape, terms)


def laplace_row_relation(shape, rows, cols, s):
    """Row-expansion Laplace identity, |rows| = |cols| + 1, column index s.

    The transpose map x[i,j] -> x[j,i] is an algebra isomorphism that
    carries [I|J] to [J|I], so this is laplace_relation on the transposed
    shape with every factor transposed back.
    """
    rows = _check_index_set(rows, shape.m, "row")
    cols = _check_index_set(cols, shape.n, "column")
    shape.check(1, s)
    dual = laplace_relation(MatrixShape(shape.n, shape.m), cols, rows, s)
    return MinorIdentity(shape, [
        (c, tuple(Minor(shape, f.cols, f.rows) for f in fs))
        for c, fs in dual.terms])


def quantum_determinant(shape):
    """The full minor of a square shape."""
    if shape.m != shape.n:
        raise SizeMismatch("the quantum determinant needs a square shape")
    idx = tuple(range(1, shape.m + 1))
    return Minor(shape, idx, idx)
