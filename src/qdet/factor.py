"""Factor rings cut out by the minors not above a fixed minor.

For a nonempty minor gamma, the two-sided ideal I_gamma is generated by
every minor alpha with std_le(gamma, alpha) false.  The quotient J_gamma
inherits the grading, and its graded components are computed here as
exact quotient spaces: the degree-d piece of the ideal is built once,
degree by degree, as

    I_d = x * I_{d-1} + I_{d-1} * x + (new generators of degree d)

and kept in a fraction-free echelon.  The products with a generator are
taken in column space: the echelon rows of I_{d-1} go through
linalg.generator_products, which builds right generator images once per
build, only for the columns those rows touch and their reversals (the
left products are read from them through rho), and drops each after the
last row that reads it; no row is turned back into a polynomial.

That build runs on gamma's southeast rectangle, not on the whole m x n
algebra A.  Let gamma = (I|J), r1 = min I, c1 = min J, and R the
rectangle of rows r1..m and columns c1..n; gamma' is gamma with every
row index lowered by r1 - 1 and every column index by c1 - 1, a minor
of the (m - r1 + 1) x (n - c1 + 1) quantum matrices O_q(R).  The projection pi
drops every PBW monomial with a letter outside R and renumbers the rest
into R's coordinates.  Then p lies in I_gamma(d) exactly when pi(p) lies
in I_gamma'(d), so the ideal of gamma' on R is built, cached and queried
in place of gamma's:

- A generator x[i,j] with i < r1 or j < c1 is a 1x1 minor not above
  gamma (its row or column is before gamma's first), so it lies in
  I_gamma.
- Let M be the span of the PBW monomials that hold such a letter.
  Rewriting a word keeps such a letter: a same-line swap and an
  antidiagonal swap only permute letters, and a diagonal pair a > b
  becomes, besides the swap, the word with (b0, a1) and (a0, b1) in
  their place; a row before r1 or a column before c1 in a or b is a row
  or a column of one of those two.  So a monomial with such a letter
  times any monomial, on either side, is a sum of monomials with one,
  M is the two-sided ideal those generators generate.  The other PBW
  monomials span the subalgebra R's letters generate, a copy of O_q(R)
  (a rewriting uses only the rows and columns of its two letters), so
  pi is the quotient map A -> A/M = O_q(R), a ring map.
- An excluded minor with a row before r1 or a column before c1 has a
  letter of that row or column in every term, so it lies in M.  The
  others are the excluded minors of gamma' shifted back, since the
  standard order compares rows and columns position by position.
- Hence I_gamma = pi^-1(I_gamma'), degree by degree, and J_gamma(d) =
  J_gamma'(d).  The ambient rank dim I_gamma(d) is
  graded_dim(m x n, d) - dim J_gamma'(d).

When r1 = c1 = 1, R is the whole algebra and pi the identity.

The Hilbert dimensions, the standard monomial basis, regularity of
gamma and the tower image read a span only through IdealComponent.
The rewriting of an ambient variable through gamma into base variables
and family minors needs none: each term it drops ends in a generator of
the ideal.

The normalizing scalar of a minor tau above gamma is predicted in closed
form, q^(|K - I| + |L - J|) for gamma = (I|J) and tau = (K|L) (set
differences), and proved by one membership test in the ideal component.

ideal_component is the one way to a span, and it refuses a component
whose ambient dimension (on m x n, not on R) is above algebra.DIM_GUARD,
before any lookup or build.  That test
is the size guard of every check here that reads a span; the
zero-divisor check, whose pair count grows past any component it
touches, also refuses more than DIM_GUARD pairs.  The generator image
check reads none and is bounded by the tower's shape guard alone.
"""

from dataclasses import dataclass
from itertools import accumulate, chain

from . import cache as _disk
from .errors import (BasisMismatch, DegreeTooLarge, NoScalarFound,
                     NotAboveGamma, ShapeMismatch)
from .algebra import (DIM_GUARD, MatrixShape, NCPoly, graded_basis,
                      graded_dim)
from .minors import (Minor, bits, enumerate_minors, excluded_minors,
                     laplace_relation, laplace_row_relation, minor_value,
                     minors_product, std_le, std_le_masks)
from .linalg import Echelon, component_basis, generator_products, poly_row
from .report import SuiteReport
from .scalars import ONE, LaurentScalar
from .tower import build_frame, stage_monomials, stage_series_dims


# ----------------------------------------------------------------------
# graded components of the ideal


class IdealComponent:
    """I_gamma(d), answering three questions on J_gamma(d) = A(d)/I_gamma(d):
    contains(p), whether p vanishes there; quotient_dim, its dimension;
    and rank_mod(polys), the rank of the images of polys there.

    Held as a fraction-free echelon of I_gamma'(d) over the
    component_basis rows of R (see the module docstring), which only this
    class, ideal_component and _build_echelon know; a polynomial over A
    enters through pi.  `rank`, the dimension of I_gamma(d) in A(d), is
    read by the bench tracer.
    """

    __slots__ = ("shape", "cuts", "basis", "echelon")

    def __init__(self, shape, cuts, basis, echelon):
        self.shape = shape
        self.cuts = cuts
        self.basis = basis
        self.echelon = echelon

    @property
    def rank(self):
        return graded_dim(self.shape, self.basis.degree) - self.quotient_dim

    @property
    def quotient_dim(self):
        return len(self.basis) - self.echelon.rank

    def contains(self, p):
        """Exact membership of a homogeneous polynomial of this degree."""
        if p.is_zero:
            return True
        return not self.echelon.residue(self._row(p))

    def rank_mod(self, polys):
        """Rank in J_gamma(d) of the images of polynomials of degree d."""
        ext = self.echelon.copy()
        for p in polys:
            ext.insert(self._row(p))
        return ext.rank - self.echelon.rank

    def _row(self, p):
        """pi(p) as an integer row over R's basis.

        R's letters are the slices `cuts` of an exponent tuple, one per
        row of R, so the renumbered monomial has this degree exactly when
        no letter of A lies outside R; any other term lies in I_gamma
        and is dropped.
        """
        if p.shape != self.shape:
            raise ShapeMismatch("polynomial over %s, ideal over %s"
                                % (p.shape, self.shape))
        degree = self.basis.degree
        index = self.basis.index
        cuts = self.cuts
        row = {}
        for e, s in p.terms.items():
            if sum(e) != degree:
                raise BasisMismatch("degree-%d term in a degree-%d component"
                                    % (sum(e), degree))
            i = index.get(tuple(chain.from_iterable([e[a:b] for a, b in cuts])))
            if i is None:
                continue
            for f, c in s.terms.items():
                row[i, f] = c
        return row


_ECHELONS = {}


def begin_run(cache_dir):
    """Start a run: empty the span memo and set the span cache directory."""
    _ECHELONS.clear()
    _disk.set_cache_dir(cache_dir)


def _corner(gamma):
    """(gamma', cuts) for gamma on its shape: gamma' on R, and the
    (start, stop) slice of R's letters in each row of R, over the
    exponent tuples of the shape."""
    shape, rows, cols = gamma.shape, gamma.rows, gamma.cols
    r1, c1 = rows[0], cols[0]
    sub = Minor(MatrixShape(shape.m - r1 + 1, shape.n - c1 + 1),
                [i - r1 + 1 for i in rows], [j - c1 + 1 for j in cols])
    n = shape.n
    cuts = tuple((i * n + c1 - 1, (i + 1) * n) for i in range(r1 - 1, shape.m))
    return sub, cuts


def ideal_component(gamma, degree):
    """The degree-d component of I_gamma, kept for the run and on disk.

    Built, kept and queried as the component of gamma' on R; see the
    module docstring.  Raises DegreeTooLarge before any lookup or build
    when the ambient component, on gamma's own shape, has dimension
    above DIM_GUARD.
    """
    shape = gamma.shape
    _dim_guard(shape, degree)
    sub, cuts = _corner(gamma)
    key = (sub.shape.m, sub.shape.n, sub.rows, sub.cols, degree)
    ech = _ECHELONS.get(key)
    basis = component_basis(sub.shape, degree)
    if ech is None:
        ech = _ECHELONS[key] = _build_echelon(sub, degree, basis, key)
    return IdealComponent(shape, cuts, basis, ech)


def _dim_guard(shape, degree):
    dim = graded_dim(shape, degree)
    if dim > DIM_GUARD:
        raise DegreeTooLarge(
            "degree-%d component of %s has dimension %d (guard %d)"
            % (degree, shape, dim, DIM_GUARD))


def _build_echelon(gamma, degree, basis, key):
    """I_gamma(d) for a gamma whose R is its whole shape (r1 = c1 = 1)."""
    cached = _disk.load_rows(("ideal",) + key)
    if cached is not None:
        ech = Echelon()
        for row in cached:
            ech.insert(row)
        if ech.rank == len(cached):
            return ech
        # a stored row depends on the others: not the stored span, rebuild
    shape = gamma.shape
    ech = Echelon()
    if degree > 0:
        rows = ideal_component(gamma, degree - 1).echelon.rows()
        for product in generator_products(shape, degree, rows):
            ech.insert(product)
    for mn in excluded_minors(gamma):
        if mn.size == degree:
            ech.insert(poly_row(minor_value(mn), basis))
    _disk.store_rows(("ideal",) + key, ech.rows())
    return ech


# ----------------------------------------------------------------------
# the quotient J_gamma


def hilbert_function(gamma, max_degree):
    """Graded dimensions of J_gamma for degrees 0..max_degree."""
    return [ideal_component(gamma, d).quotient_dim
            for d in range(max_degree + 1)]


# ----------------------------------------------------------------------
# standard monomials


@dataclass(frozen=True)
class StandardMonomial:
    """A product of minors forming a nondecreasing chain under std_le."""
    shape: object
    factors: tuple

    @property
    def degree(self):
        return sum(f.size for f in self.factors)

    def value(self):
        return minors_product(self.shape, self.factors)

    def __str__(self):
        if not self.factors:
            return "1"
        return "".join(str(f)[len("minor"):] for f in self.factors)


def standard_monomials(floor, degree):
    """All chains alpha_1 <=st ... <=st alpha_k of total size `degree`
    whose members sit above the floor minor.

    Their images form the candidate basis of J_floor.  The full-size
    leading minor [1..t|1..t], t = min(m, n), sits below every minor, so
    its chains are those of the whole ring.  Order is deterministic:
    factors are tried in enumerate_minors order at every position.  A
    tuple.
    """
    shape = floor.shape
    pool = [mn for mn in enumerate_minors(shape) if std_le(floor, mn)]
    if degree == 0:
        return (StandardMonomial(shape, ()),)
    out = []
    chain = []
    remaining = degree
    # one pool iterator per open chain position, so depth costs no frames
    stack = [iter(pool)]
    while stack:
        for mn in stack[-1]:
            if mn.size > remaining or (chain and not std_le(chain[-1], mn)):
                continue
            if mn.size == remaining:
                out.append(StandardMonomial(shape, tuple(chain) + (mn,)))
                continue
            chain.append(mn)
            remaining -= mn.size
            stack.append(iter(pool))
            break
        else:
            stack.pop()
            if chain:
                remaining += chain.pop().size
    return tuple(out)


def standard_monomial_counts(floor, max_degree):
    """len(standard_monomials(floor, d)) for d = 0..max_degree.

    Counted without building a chain, on the order masks std_le_masks
    shares per shape: tails[k][r] counts the chains of total size r whose
    members all sit above pool[k] (the empty chain when r == 0), as the
    sum of tails[b][r - size of b] over the minors b above pool[k].  Only
    the minors above the floor are counted; the order is transitive, so
    every minor above one of them is above the floor too.  Costs
    pool^2 * max_degree steps, whatever the number of chains.
    """
    pool = enumerate_minors(floor.shape)
    up = std_le_masks(floor.shape)
    sizes = [mn.size for mn in pool]
    above = {a: list(bits(up[a])) for a in bits(up[pool.index(floor)])}
    tails = {a: [1] + [0] * max_degree for a in above}
    for r in range(1, max_degree + 1):
        for k, ups in above.items():
            tails[k][r] = sum(tails[b][r - sizes[b]] for b in ups
                              if sizes[b] <= r)
    return [1] + [sum(tails[k][d - sizes[k]] for k in above if sizes[k] <= d)
                  for d in range(1, max_degree + 1)]


def basis_check(gamma, degree):
    """Standard monomials of one degree form a basis of J_gamma there.

    Their residues are independent modulo the ideal component and fill
    the quotient dimension exactly.  For the full-size leading minor the
    ideal is zero, and this checks the standard basis of the ambient
    component.
    """
    rep = SuiteReport("standard_basis", {"shape": str(gamma.shape),
                                         "degree": degree,
                                         "gamma": str(gamma)})
    # the ideal component comes first: its guard trips before any expansion
    ic = ideal_component(gamma, degree)
    stds = standard_monomials(gamma, degree)
    grew = ic.rank_mod(s.value() for s in stds)
    dim = ic.quotient_dim
    rep.add("independent mod ideal", grew == len(stds),
            "rank grew %d of %d" % (grew, len(stds)))
    rep.add("spanning mod ideal", grew == dim and len(stds) == dim,
            "count %d, quotient dimension %d" % (len(stds), dim))
    return rep


def hilbert_check(gamma, max_degree):
    """Quotient dimensions equal standard monomial counts, degree by degree.

    Two independent counts: the ideal ranks (hilbert_function) and the
    chain recursion of standard_monomial_counts, which builds no chain.
    """
    rep = SuiteReport("hilbert", {"gamma": str(gamma), "max_degree": max_degree})
    dims = hilbert_function(gamma, max_degree)
    counts = standard_monomial_counts(gamma, max_degree)
    for d in range(max_degree + 1):
        rep.add("degree %d" % d, dims[d] == counts[d],
                "dimension %d, standard monomials %d" % (dims[d], counts[d]))
    return rep


# ----------------------------------------------------------------------
# the normalizing scalar of a minor above gamma


def normality_scalar(gamma, tau):
    """The unique c with gamma*tau - c*tau*gamma in I_gamma, a power of q.

    Requires std_le(gamma, tau).  For gamma = (I|J) and tau = (K|L) the
    scalar is c = q^(|K - I| + |L - J|), with set differences: in J_gamma,
    gamma*x[i,j] = q^([i not in I] + [j not in J]) x[i,j]*gamma for every
    generator above gamma, and every PBW term of tau uses the rows K and
    the columns L once each.  The prediction is proved, not trusted: c is
    returned only when gamma*tau - c*tau*gamma lies in the ideal
    component, and tau*gamma does not, which makes c unique.
    """
    if gamma.shape != tau.shape:
        raise ShapeMismatch("minors over %s and %s" % (gamma.shape, tau.shape))
    if not std_le(gamma, tau):
        raise NotAboveGamma("%s is not above %s" % (tau, gamma))
    u = minor_value(gamma) * minor_value(tau)
    v = minor_value(tau) * minor_value(gamma)
    ic = ideal_component(gamma, gamma.size + tau.size)
    if ic.contains(v):
        raise NoScalarFound("tau*gamma vanishes in the quotient for %s" % tau)
    exponent = (len(set(tau.rows) - set(gamma.rows))
                + len(set(tau.cols) - set(gamma.cols)))
    c = LaurentScalar({exponent: 1})
    if not ic.contains(u - v.scale(c)):
        raise NoScalarFound("gamma*tau is not congruent to %s times "
                            "tau*gamma for %s" % (c, tau))
    return c


def normality_check(gamma):
    """normality_scalar exists for every minor above gamma."""
    rep = SuiteReport("normality_scalars", {"gamma": str(gamma)})
    for tau in enumerate_minors(gamma.shape):
        if not std_le(gamma, tau):
            continue
        try:
            c = normality_scalar(gamma, tau)
        except NoScalarFound as exc:
            rep.add("c for %s" % tau, False, str(exc))
            continue
        rep.add("c for %s" % tau, True, "c = %s" % c)
    return rep


# ----------------------------------------------------------------------
# rewriting an ambient variable through gamma


def generator_image_check(gamma, r, s):
    """x[r,s] * gamma is, modulo the ideal, a combination of terms whose
    minor factors are gamma itself or members of its swap family.

    The exact expansion along the row r (when s is outside gamma's
    columns) or the column s (when r is outside gamma's rows) is split
    into the head term x[r,s]*gamma, surviving terms, and dead terms.
    Surviving minors are verified to be gamma or family members.

    No ideal span is needed.  A dead term's last factor is not above
    gamma, so it is one of excluded_minors(gamma), a generator of the
    two-sided ideal I_gamma, and the term lies in I_gamma whatever its
    coefficient and left factors; "dead" checks that membership.  When
    the expansion holds, head + surviving terms = -(dead terms), so the
    head plus surviving terms vanish in the quotient exactly when the
    expansion holds and every dead tail is a generator.
    """
    shape = gamma.shape
    shape.check(r, s)
    rep = SuiteReport("generator_image",
                      {"gamma": str(gamma), "r": r, "s": s})
    in_rows = r in gamma.rows
    in_cols = s in gamma.cols
    if in_rows and in_cols:
        rep.add("base variable", True, "x[%d,%d] generates the base" % (r, s))
        return rep

    frame = build_frame(gamma)
    allowed = {mb.minor for mb in frame.family()}
    allowed.add(gamma)
    if not in_cols:
        cols = tuple(sorted(gamma.cols + (s,)))
        identity = laplace_relation(shape, gamma.rows, cols, r)
    else:
        rows = tuple(sorted(gamma.rows + (r,)))
        identity = laplace_row_relation(shape, rows, gamma.cols, s)
    holds = identity.holds
    rep.add("expansion holds", holds, str(identity))

    generators = set(excluded_minors(gamma))
    dead_in_ideal = True
    head_seen = False
    for _, factors in identity.terms:
        tail = factors[-1]
        if tail == gamma:
            head_seen = True
            rep.add("head term", len(factors) == 2
                    and factors[0] == Minor(shape, (r,), (s,)),
                    "x[%d,%d]*gamma" % (r, s))
        elif std_le(gamma, tail):
            rep.add("surviving %s" % tail, tail in allowed,
                    "family member" if tail in allowed else "outside the family")
        else:
            generator = tail in generators
            dead_in_ideal = dead_in_ideal and generator
            rep.add("dead %s" % tail, generator, "term lies in the ideal")
    rep.add("head present", head_seen, "")
    rep.add("congruence", holds and dead_in_ideal,
            "head + surviving terms vanish in the quotient")
    return rep


def generator_image_suite(gamma):
    """generator_image_check over every ambient variable."""
    rep = SuiteReport("generator_images", {"gamma": str(gamma)})
    shape = gamma.shape
    for r in range(1, shape.m + 1):
        for s in range(1, shape.n + 1):
            sub = generator_image_check(gamma, r, s)
            rep.add("x[%d,%d]" % (r, s), not sub.failed,
                    "; ".join(c.name for c in sub.failed))
    return rep


# ----------------------------------------------------------------------
# regularity and zero divisors


def regularity_check(gamma, max_degree):
    """Left multiplication by gamma is injective on J_gamma.

    For each degree dp with gamma.size + dp <= max_degree, the images of
    gamma times the ambient monomials of degree dp have rank
    dim J_gamma(dp) in J_gamma(gamma.size + dp).
    """
    rep = SuiteReport("regularity", {"gamma": str(gamma),
                                     "max_degree": max_degree})
    t = gamma.size
    gval = minor_value(gamma)
    for dp in range(0, max_degree - t + 1):
        ic = ideal_component(gamma, t + dp)
        j_dim = ideal_component(gamma, dp).quotient_dim
        grew = ic.rank_mod(gval * NCPoly(gamma.shape, {e: ONE})
                           for e in graded_basis(gamma.shape, dp))
        rep.add("degree %d" % dp, grew == j_dim,
                "image rank %d, quotient dimension %d" % (grew, j_dim))
    return rep


def zero_divisor_check(gamma, max_degree):
    """Products of standard monomials stay nonzero in the quotient.

    Runs over all pairs of positive-degree standard monomials above gamma
    whose degrees sum to at most max_degree.  Raises DegreeTooLarge before
    any monomial is enumerated when a component through max_degree is
    above DIM_GUARD, or when there are more than DIM_GUARD pairs, counted
    by standard_monomial_counts.
    """
    rep = SuiteReport("zero_divisors", {"gamma": str(gamma),
                                        "max_degree": max_degree})
    shape = gamma.shape
    for d in range(max_degree + 1):
        _dim_guard(shape, d)
    counts = standard_monomial_counts(gamma, max_degree)
    # below[k]: standard monomials of positive degree at most k
    below = list(accumulate(counts[1:], initial=0))
    pairs = sum(counts[da] * below[max_degree - da]
                for da in range(1, max_degree))
    if pairs > DIM_GUARD:
        raise DegreeTooLarge(
            "zero-divisor check of %s through degree %d has %d pairs "
            "(guard %d)" % (gamma, max_degree, pairs, DIM_GUARD))
    stds = {d: standard_monomials(gamma, d)
            for d in range(1, max_degree)}
    # (name, value) per standard monomial, each rendered once
    named = {d: [(str(s), s.value()) for s in ms] for d, ms in stds.items()}
    for da in range(1, max_degree):
        for db in range(1, max_degree - da + 1):
            ic = ideal_component(gamma, da + db)
            for a, aval in named[da]:
                for b, bval in named[db]:
                    vanishes = ic.contains(aval * bval)
                    rep.add("%s * %s" % (a, b), not vanishes,
                            "product vanishes in the quotient"
                            if vanishes else "")
    return rep


def tower_image_check(gamma, max_degree):
    """The tower subalgebra embeds into J_gamma with its full dimensions.

    For each degree, the ordered products of the final tower stage have
    images of rank equal to their number, the tower's series coefficient
    (which ore_step_check certifies against their own rank): image rank
    <= own rank <= number, so they stay independent in the quotient.
    """
    rep = SuiteReport("tower_image", {"gamma": str(gamma),
                                      "max_degree": max_degree})
    frame = build_frame(gamma)
    gens = frame.generators()
    dims = stage_series_dims([g.degree for g in gens], max_degree)
    for d in range(max_degree + 1):
        grew = ideal_component(gamma, d).rank_mod(
            stage_monomials(frame, len(gens), d))
        rep.add("degree %d" % d, grew == dims[d],
                "tower dimension %d, image dimension %d" % (dims[d], grew))
    return rep
