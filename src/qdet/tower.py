"""The generator tower attached to a quantum minor.

Fix a nonempty minor gamma = [A|B] of size t inside an m x n shape.  The
base subalgebra is generated by the t*t variables x[a,b] with a in A and
b in B.  On top of it sit two families of size-t minors, each differing
from gamma in a single index:

* column swaps ("col_swap", i, j): rows A, columns B with b_j replaced by
  the i-th largest column outside B; defined when that column exceeds b_j.
* row swaps ("row_swap", i, j): columns B, rows A with a_j replaced by the
  i-th largest row outside A; defined when that row exceeds a_j.

Members are ordered with all column swaps before all row swaps and
lexicographically by (i, j) inside each kind.  The tower generators are
the base variables followed by the members, and stage k is generated by
the first k of them, so adjoining the members one at a time yields a
chain of subalgebras.  The ordered products of stage k in degree d form
one list, and stage k-1's list is its prefix.  ore_step_check walks the
chain once and certifies every step as a skew polynomial extension: the
new generator normalizes the previous stage through the inverse of an
explicit torus element, and each twisted derivation equals its closed
form, a combination of products of earlier generators, so it lands
inside the previous stage.  The closed forms are written once here
(straightening_sum, diagonal_commutator, predicted_delta) and read by
the family, the commutation and the Ore-step checks alike.
"""

from dataclasses import dataclass

from .errors import (StageOutOfRange, UndefinedMember, WorkbenchError,
                     ZeroInput, DegreeTooLarge)
from .algebra import DIM_GUARD, NCPoly, TorusElement, eigenvalue_of
from .minors import Minor, minor_value
from .linalg import Echelon, LocalColumns, poly_row
from .report import SuiteReport
from .scalars import ONE, Q, Q_INV, QHAT, minus_q_power

#: build_frame refuses shapes with more ambient generators than this
SHAPE_GUARD = 25


@dataclass(frozen=True)
class FamilyMember:
    kind: str          # "col_swap" or "row_swap"
    i: int
    j: int
    minor: Minor
    position: int      # rank in the combined family order

    @property
    def label(self):
        return "%s[%d,%d]" % (self.kind, self.i, self.j)

    def __str__(self):
        return "%s=%s" % (self.label, self.minor)


def _swaps(indices, complement):
    """(i, j, swapped) for each swap of indices[j-1] for the i-th largest
    complement index, defined when that index is the larger one."""
    for i in range(1, len(complement) + 1):
        added = complement[len(complement) - i]
        for j, removed in enumerate(indices, 1):
            if removed < added:
                yield i, j, tuple(sorted(set(indices) - {removed} | {added}))


class Frame:
    """A minor together with the index bookkeeping its tower needs.

    Three lazy caches live on the frame and die with it: the family
    (`_members`), the tower generators (`_generators`) and the ordered
    products of each stage and degree (`_products`, filled by
    stage_monomials).  A suite builds one frame per call, so none
    outlives the suite.
    """

    __slots__ = ("shape", "minor", "rows", "cols", "row_complement",
                 "col_complement", "_members", "_generators", "_products")

    def __init__(self, minor):
        self.shape = minor.shape
        self.minor = minor
        self.rows = minor.rows
        self.cols = minor.cols
        self.row_complement = tuple(r for r in range(1, self.shape.m + 1)
                                    if r not in minor.rows)
        self.col_complement = tuple(c for c in range(1, self.shape.n + 1)
                                    if c not in minor.cols)
        self._members = None
        self._generators = None
        self._products = {}

    @property
    def size(self):
        return self.minor.size

    def added_col(self, i):
        """The column a col_swap with first index i brings in."""
        count = len(self.col_complement)
        return self.col_complement[count - i]

    def added_row(self, i):
        count = len(self.row_complement)
        return self.row_complement[count - i]

    def family(self):
        """All defined members, column swaps first, lex inside each kind."""
        if self._members is not None:
            return self._members
        members = [("col_swap", i, j, Minor(self.shape, self.rows, cols))
                   for i, j, cols in _swaps(self.cols, self.col_complement)]
        members += [("row_swap", i, j, Minor(self.shape, rows, self.cols))
                    for i, j, rows in _swaps(self.rows, self.row_complement)]
        self._members = tuple(FamilyMember(kind, i, j, mn, pos)
                              for pos, (kind, i, j, mn) in enumerate(members))
        return self._members

    def generators(self):
        """The tower generators, built once: the t*t base variables x[a,b]
        (row-major over rows x cols), then one per family member."""
        if self._generators is None:
            gens = [GenRef("x[%d,%d]" % (a, b), 1,
                           NCPoly.generator(self.shape, a, b))
                    for a in self.rows for b in self.cols]
            gens += [GenRef(mb.label, self.size, minor_value(mb.minor))
                     for mb in self.family()]
            self._generators = tuple(gens)
        return self._generators

    def member_values(self, kind):
        """(i, j) -> expanded value of each member of one kind."""
        values = self.generators()[self.size ** 2:]
        return {(mb.i, mb.j): values[mb.position].value
                for mb in self.family() if mb.kind == kind}

    def __str__(self):
        return "frame(%s in %s)" % (self.minor, self.shape)


@dataclass
class GenRef:
    """A tower generator: display label, degree, expanded value."""
    label: str
    degree: int
    value: NCPoly


def build_frame(gamma):
    """Frame for a nonempty minor of a shape within SHAPE_GUARD."""
    if gamma.is_empty:
        raise ZeroInput("a frame needs a nonempty minor")
    if gamma.shape.ngens > SHAPE_GUARD:
        raise DegreeTooLarge("shape %s exceeds the %d-generator guard"
                             % (gamma.shape, SHAPE_GUARD))
    return Frame(gamma)


def generator_count(frame):
    """Number of tower generators, by the closed formula.

    Equals (m + n + 1) * t - sum(rows) - sum(cols), and is cross-checked
    against t^2 + (number of family members) before being returned.
    """
    m, n = frame.shape.m, frame.shape.n
    t = frame.size
    value = (m + n + 1) * t - sum(frame.rows) - sum(frame.cols)
    direct = t * t + len(frame.family())
    if value != direct:  # pragma: no cover - formula identity
        raise WorkbenchError("generator count formula mismatch for %s"
                             % frame.minor)
    return value


# ----------------------------------------------------------------------
# torus elements


def _torus_entries(count, kept, added=None, removed=None):
    """q-exponents for indices 1..count: -2 at `added`, 1 at `removed`, 0
    at the other indices in `kept` and -1 outside it."""
    return tuple(-2 if s == added else 1 if s == removed
                 else 0 if s in kept else -1
                 for s in range(1, count + 1))


def member_torus(frame, member):
    """The torus element whose inverse twists the member's Ore step."""
    shape = frame.shape
    if member.kind == "col_swap":
        return TorusElement(shape, _torus_entries(shape.m, frame.rows),
                            _torus_entries(shape.n, frame.cols,
                                           frame.added_col(member.i),
                                           frame.cols[member.j - 1]))
    if member.kind == "row_swap":
        return TorusElement(shape,
                            _torus_entries(shape.m, frame.rows,
                                           frame.added_row(member.i),
                                           frame.rows[member.j - 1]),
                            _torus_entries(shape.n, frame.cols))
    raise UndefinedMember("unknown member kind %r" % member.kind)


def check_h_actions(frame):
    """Verify the torus elements act as advertised.

    Five clauses: (1) a col_swap's element scales base variables in its
    removed column by q and fixes the rest; (2) dually for row_swaps and
    rows; (3) a col_swap's element scales an earlier col_swap by q^-1 when
    they share a row or column index, and fixes it otherwise; (4) dually
    for row_swaps; (5) row_swap elements fix every col_swap minor.
    """
    rep = SuiteReport("h_actions", {"gamma": str(frame.minor)})
    members = frame.family()
    cswaps = [mb for mb in members if mb.kind == "col_swap"]
    rswaps = [mb for mb in members if mb.kind == "row_swap"]
    values = {mb: minor_value(mb.minor) for mb in members}

    def expect(h, p, scalar, label):
        got = h.act(p)
        want = p.scale(scalar)
        rep.add(label, got == want,
                "" if got == want else "expected scalar %s" % scalar)

    for mb in members:
        h = member_torus(frame, mb)
        col = mb.kind == "col_swap"
        same_kind, clause = (cswaps, 1) if col else (rswaps, 2)
        removed = (frame.cols if col else frame.rows)[mb.j - 1]
        for a in frame.rows:
            for b in frame.cols:
                scalar = Q if (b if col else a) == removed else ONE
                expect(h, NCPoly.generator(frame.shape, a, b), scalar,
                       "clause%d:%s on x[%d,%d]" % (clause, mb.label, a, b))
        for other in same_kind:
            if other.position >= mb.position:
                continue
            same = other.i == mb.i or other.j == mb.j
            scalar = Q_INV if same else ONE
            expect(h, values[other], scalar,
                   "clause%d:%s on %s" % (clause + 2, mb.label, other.label))
        if not col:
            for other in cswaps:
                expect(h, values[other], ONE,
                       "clause5:%s on %s" % (mb.label, other.label))
    return rep


# ----------------------------------------------------------------------
# relations inside and between the two families


def diagonal_commutator(entries, upper, lower):
    """a*b - b*a for a diagonal pair of a quantum matrix at parameter q^-1.

    a = entries[upper] and b = entries[lower] with upper = (i, j),
    lower = (k, l), i < k and j < l; the commutator is
    -(q - q^-1) * entries[(i, l)] * entries[(k, j)].
    """
    (i, j), (k, l) = upper, lower
    return (entries[(i, l)] * entries[(k, j)]).scale(-QHAT)


def _qmatrix_relation_check(rep, entries, label):
    """entries: dict (i, j) -> NCPoly forming quantum matrix variables at q^-1."""
    keys = sorted(entries)
    for (i, j) in keys:
        for (k, l) in keys:
            if (i, j) >= (k, l):
                continue
            a, b = entries[(i, j)], entries[(k, l)]
            if i == k or j == l:
                ok = a * b == (b * a).scale(Q_INV)
                rep.add("%s:same-line %s,%s" % (label, (i, j), (k, l)), ok)
            elif j > l:
                rep.add("%s:antidiagonal %s,%s" % (label, (i, j), (k, l)),
                        a * b == b * a)
            elif (i, l) in entries and (k, j) in entries:
                rep.add("%s:diagonal %s,%s" % (label, (i, j), (k, l)),
                        a * b - b * a
                        == diagonal_commutator(entries, (i, j), (k, l)))
            else:
                rep.add("%s:closure %s,%s" % (label, (i, j), (k, l)), False,
                        "diagonal pair defined but inner pair missing")


def family_relations_check(frame):
    """Each family is a quantum matrix at parameter q^-1; kinds commute."""
    rep = SuiteReport("family_relations", {"gamma": str(frame.minor)})
    cmap = frame.member_values("col_swap")
    rmap = frame.member_values("row_swap")
    _qmatrix_relation_check(rep, cmap, "col_swap")
    _qmatrix_relation_check(rep, rmap, "row_swap")
    for (ci, cj) in sorted(cmap):
        for (ri, rj) in sorted(rmap):
            rep.add("cross col_swap[%d,%d] row_swap[%d,%d]" % (ci, cj, ri, rj),
                    cmap[(ci, cj)] * rmap[(ri, rj)]
                    == rmap[(ri, rj)] * cmap[(ci, cj)])
    return rep


def straightening_sum(frame, mb, a, b, values):
    """x * mem - q * mem * x for x = x[a,b] at the member's removed index j.

    The sum over s < j of c_s * mem_s * x_s, c_s = (q - q^-1)(-q)^(j - s):
    mem_s is the same-kind member (i, s) in values (frame.member_values),
    skipped when undefined, and x_s the base variable in x's row (column
    swaps) or column (row swaps) at index s.  Returns the sum and the
    (s, c_s) pairs used.
    """
    shape = frame.shape
    rhs = NCPoly.zero(shape)
    used = []
    for s in range(1, mb.j):
        lower = values.get((mb.i, s))
        if lower is None:
            continue
        if mb.kind == "col_swap":
            gen = NCPoly.generator(shape, a, frame.cols[s - 1])
        else:
            gen = NCPoly.generator(shape, frame.rows[s - 1], b)
        c = QHAT * minus_q_power(mb.j - s)
        rhs = rhs + (lower * gen).scale(c)
        used.append((s, c))
    return rhs, used


def subalgebra_commutation_check(frame):
    """Base variables against family members.

    A base variable x[a,b] commutes with a member unless b (for column
    swaps) or a (for row swaps) is the member's removed index; there,
    x * mem - q * mem * x is straightening_sum's closed form.  The
    coefficients are predicted, not solved for: each relation is proved
    by one exact product comparison.
    """
    rep = SuiteReport("subalgebra_commutation", {"gamma": str(frame.minor)})
    for mb in frame.family():
        values = frame.member_values(mb.kind)
        val = values[(mb.i, mb.j)]
        for k, a in enumerate(frame.rows, 1):
            for l, b in enumerate(frame.cols, 1):
                x = NCPoly.generator(frame.shape, a, b)
                if (l if mb.kind == "col_swap" else k) != mb.j:
                    rep.add("commute x[%d,%d] %s" % (a, b, mb.label),
                            x * val == val * x)
                    continue
                lhs = x * val - (val * x).scale(Q)
                rhs, used = straightening_sum(frame, mb, a, b, values)
                rep.add("straighten x[%d,%d] %s" % (a, b, mb.label),
                        lhs == rhs,
                        "lhs vanishes" if lhs.is_zero else "; ".join(
                            "%s[%d,%d]: %s" % (mb.kind, mb.i, s, c)
                            for s, c in used))
    return rep


# ----------------------------------------------------------------------
# tower stages and Ore-type certificates


def stage_series_dims(weights, dmax):
    """Coefficients of prod 1/(1 - z^w) up to degree dmax."""
    dims = [0] * (dmax + 1)
    dims[0] = 1
    for w in weights:
        for d in range(w, dmax + 1):
            dims[d] += dims[d - w]
    return dims


def stage_monomials(frame, k, d):
    """Ordered products of the first k tower generators in degree d.

    The list L(k, d) obeys L(0, 0) = [1], L(0, d) = [] for d > 0 and

        L(k, d) = L(k-1, d) + [p * g_k for p in L(k, d - deg g_k)],

    so a product costs one multiplication by a generator, and L(k-1, d)
    is a prefix of L(k, d) holding the same objects.  Lists are memoised
    on the frame under (k, d); the degrees of one residue class are
    filled bottom-up, so the recursion depth is at most k whatever d is.
    The returned list and its polynomials are shared and must not be
    mutated.
    """
    products = frame._products
    if (k, d) not in products:
        if k == 0:
            products[(k, d)] = [NCPoly.one(frame.shape)] if d == 0 else []
        else:
            g = frame.generators()[k - 1]
            for e in range(d % g.degree, d + 1, g.degree):
                if (k, e) in products:
                    continue
                lower = products[(k, e - g.degree)] if e >= g.degree else []
                products[(k, e)] = (stage_monomials(frame, k - 1, e)
                                    + [p * g.value for p in lower])
    return products[(k, d)]


def predicted_delta(frame, member, idx, values):
    """delta(a) = x*a - sigma(a)*x in closed form, sigma = h^-1.

    x is the member, h its torus element and a the idx-th tower generator,
    which precedes x.  values is frame.member_values(member.kind).  With j
    the member's removed index:

    * a base variable off the removed index commutes with x: 0;
    * a base variable at the removed index is scaled by q under h, so
      delta = -q^-1 * straightening_sum;
    * an earlier same-kind member (i', j') under x = (i, j) gives 0 when
      i' = i, j' = j or j' > j, and otherwise (q - q^-1) times
      mem(i', j) * mem(i, j'), from diagonal_commutator;
    * a col_swap under a row_swap: the kinds commute and h fixes it, 0.

    A row_swap never precedes a col_swap; asking for one raises.
    """
    t = frame.size
    zero = NCPoly.zero(frame.shape)
    if idx < t * t:
        k, l = divmod(idx, t)
        if (l if member.kind == "col_swap" else k) + 1 != member.j:
            return zero
        rhs, _ = straightening_sum(frame, member, frame.rows[k],
                                   frame.cols[l], values)
        return rhs.scale(-Q_INV)
    other = frame.family()[idx - t * t]
    if other.kind != member.kind:
        if member.kind == "row_swap":
            return zero
        raise WorkbenchError("%s does not precede %s in the tower"
                             % (other.label, member.label))
    if other.i == member.i or other.j >= member.j:
        return zero
    return -diagonal_commutator(values, (other.i, other.j),
                                (member.i, member.j))


def ore_step_check(frame, max_degree):
    """Certify every tower extension as a skew polynomial step.

    Walks the tower once and returns one SuiteReport per family member,
    in family order.  For the member x of each stage: (a) every earlier
    generator is an exact eigenvector of the member's torus element h, so
    conjugation data is the diagonal automorphism sigma = h^-1; (b) for
    each earlier generator a, the twisted derivation
    delta(a) = x*a - sigma(a)*x lies in the previous stage; (c) graded
    dimensions of the new stage match the generating series
    prod 1/(1 - z^deg) up to max_degree, certifying the ordered products
    stay independent.

    (b) needs no elimination: predicted_delta writes each delta as a
    combination of products of earlier generators, so one exact comparison
    delta == predicted proves membership.  A nonzero delta's witness names
    N, the number of the previous stage's ordered products in its degree,
    read off the generating series without building them.

    Stage k is generated by the first k tower generators.  For (c) each
    degree d <= max_degree keeps one Echelon, grown by the tail of
    stage_monomials(frame, k, d), so each product is eliminated once.
    Its columns number only the monomials the products touch
    (linalg.LocalColumns); no ambient basis is built.  The top stage holds
    the most products in every degree, so before any product is built
    the check raises DegreeTooLarge when its count in some degree up to
    max_degree, read off the generating series, is above DIM_GUARD.
    The base variables have degree 1 and a frame with members has two
    generators or more, so the coefficients never decrease and the one
    in degree DIM_GUARD is above it: the series is
    summed only up to min(max_degree, DIM_GUARD).  A frame without
    members builds no product, sums no series and is never refused.
    """
    if max_degree < frame.size:
        raise StageOutOfRange("max_degree below the new generator's degree")
    family = frame.family()
    if not family:
        return []
    gens = frame.generators()
    base = frame.size ** 2
    count = stage_series_dims([g.degree for g in gens],
                              min(max_degree, DIM_GUARD))[-1]
    if count > DIM_GUARD:
        raise DegreeTooLarge(
            "the tower of %s has %d ordered products in one degree up to "
            "%d (guard %d)" % (frame.minor, count, max_degree, DIM_GUARD))
    # degree -> (columns, Echelon over a prefix of its products, prefix length)
    grown = {}

    def rank_at(k, d):
        """(rank, count) of stage k's ordered products in degree d."""
        if d not in grown:
            grown[d] = LocalColumns(frame.shape, d), Echelon(), 0
        columns, ech, size = grown[d]
        products = stage_monomials(frame, k, d)
        for p in products[size:]:
            ech.insert(poly_row(p, columns))
        grown[d] = columns, ech, len(products)
        return ech.rank, len(products)

    steps = []
    for member in family:
        k = base + member.position
        prior, x_ref = gens[:k], gens[k]
        rep = SuiteReport("ore_step",
                          {"gamma": str(frame.minor), "member": member.label,
                           "max_degree": max_degree})
        h = member_torus(frame, member)
        eigen = []
        for g in prior:
            lam = eigenvalue_of(h, g.value)
            rep.add("eigenvector %s" % g.label, lam is not None,
                    "" if lam is not None else "not an h-eigenvector")
            eigen.append(lam)

        values = frame.member_values(member.kind)
        # ordered products of the previous stage, by degree
        counts = stage_series_dims([g.degree for g in prior],
                                   2 * x_ref.degree)
        for idx, (g, lam) in enumerate(zip(prior, eigen)):
            if lam is None:
                continue
            sigma_a = g.value.scale(lam.unit_inverse())
            delta = x_ref.value * g.value - sigma_a * x_ref.value
            ok = delta == predicted_delta(frame, member, idx, values)
            name = "delta(%s)" % g.label
            if idx >= base and family[idx - base].kind != member.kind:
                rep.add(name + " vanishes", ok,
                        "" if ok else "row_swap does not fix col_swap")
            elif not ok:
                rep.add(name, False, "differs from the predicted relation")
            elif delta.is_zero:
                rep.add(name, True, "zero")
            else:
                rep.add(name, True, "witness over %d ordered products"
                        % counts[g.degree + x_ref.degree])

        predicted = stage_series_dims([g.degree for g in gens[:k + 1]],
                                      max_degree)
        for d in range(max_degree + 1):
            actual, count = rank_at(k + 1, d)
            rep.add("dim degree %d" % d,
                    actual == predicted[d] == count,
                    "predicted %d, rank %d, products %d"
                    % (predicted[d], actual, count))
        steps.append(rep)
    return steps


def gamma_normality_check(frame):
    """gamma q-commutes with every tower generator.

    Base variables commute on the nose; each family member mem satisfies
    gamma * mem = q * mem * gamma.
    """
    rep = SuiteReport("gamma_normality", {"gamma": str(frame.minor)})
    gval = minor_value(frame.minor)
    base = frame.size ** 2
    for k, g in enumerate(frame.generators()):
        want = ONE if k < base else Q
        ok = gval * g.value == (g.value * gval).scale(want)
        rep.add("gamma vs %s" % g.label, ok,
                "scalar %s" % want if ok else "expected scalar %s" % want)
    return rep
