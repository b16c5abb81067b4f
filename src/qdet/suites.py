"""Named verification suites and machine-readable run reports.

A suite is a deterministic batch of checks against one shape (and usually
one minor).  Reports serialize to JSON with a fixed layout:

    {"version": 1, "config": {...},
     "suites": [{"name": ..., "params": {...},
                 "checks": [{"name": ..., "status": "pass" | "fail",
                             "witness": ..., "ms": null}, ...]}, ...],
     "summary": {"pass": N, "fail": M, "line": "pass N / fail M"}}

The "ms" field is reserved for timings but always written as null so two
runs of the same configuration produce byte-identical reports.  Suites
run one after the other, and every check is exact; the config block
still writes "q_mode": "exact", "q_values": [] and "jobs": 1 as fixed
values, so reports keep their version-1 bytes.
"""

import itertools
import json
from dataclasses import dataclass

from .errors import ConfigError, DegreeTooLarge, EmptyMinor, WorkbenchError
from .algebra import MatrixShape, NCPoly, graded_basis, graded_dim
from .minors import (Minor, bits, enumerate_minors, excluded_minors,
                     laplace_relation, laplace_row_relation, minor_count,
                     minor_value, quantum_determinant, std_le_masks)
from .factor import (basis_check, begin_run, generator_image_suite,
                     hilbert_check, normality_check, regularity_check,
                     standard_monomial_counts, tower_image_check,
                     zero_divisor_check)
from .report import SuiteReport
from .scalars import Q, QHAT
from .tower import (Frame, build_frame, check_h_actions,
                    family_relations_check, gamma_normality_check,
                    generator_count, ore_step_check,
                    subalgebra_commutation_check)

REPORT_VERSION = 1

#: most generator triples, (mn)^3, before DegreeTooLarge: pbw multiplies
#: that many, and laplace, centrality and minors grow with the shape alone
PBW_TRIPLE_GUARD = 10 ** 5

#: most steps, pool^2 * max(max_degree, 1) for the pool of minors, of the
#: counts suite's order masks and chain recursion before DegreeTooLarge
COUNTS_STEP_GUARD = 10 ** 7

#: most minors the ctau suite lists (it tests every one against gamma)
CTAU_POOL_GUARD = 10 ** 5

@dataclass
class WorkbenchConfig:
    """Validated parameters of one verification run."""
    m: int
    n: int
    gamma: tuple = None          # ((rows...), (cols...)) or None
    max_degree: int = 3
    suites: tuple = ("all",)
    cache: str = None

    def validate(self):
        if not (isinstance(self.m, int) and isinstance(self.n, int)
                and self.m >= 1 and self.n >= 1):
            raise ConfigError("shape sides must be positive integers")
        if not (isinstance(self.max_degree, int) and self.max_degree >= 0):
            raise ConfigError("max_degree must be a nonnegative integer")
        names = self.suite_list()
        if not names:
            raise ConfigError("no suite requested (known: %s, all)"
                              % ", ".join(SUITE_NAMES))
        if self.gamma is None:
            needed = [s for s in names if _SUITES[s][0]]
            if needed:
                raise ConfigError("suites %s need --gamma"
                                  % ", ".join(sorted(needed)))
        else:
            try:
                if self.gamma_minor().is_empty:
                    raise EmptyMinor("the minor is empty")
            except WorkbenchError as exc:
                raise ConfigError("bad gamma: %s" % exc) from None
        return self

    def suite_list(self):
        """Requested suites expanded and put into canonical order."""
        requested = set()
        for s in self.suites:
            if s == "all":
                requested.update(name for name, (needs, _) in _SUITES.items()
                                 if self.gamma is not None or not needs)
            elif s in SUITE_NAMES:
                requested.add(s)
            else:
                raise ConfigError("unknown suite %r (known: %s, all)"
                                  % (s, ", ".join(SUITE_NAMES)))
        return [name for name in SUITE_NAMES if name in requested]

    def shape(self):
        return MatrixShape(self.m, self.n)

    def gamma_minor(self):
        if self.gamma is None:
            return None
        rows, cols = self.gamma
        return Minor(self.shape(), rows, cols)

    def as_dict(self):
        gamma_text = None
        if self.gamma is not None:
            gamma_text = "%s|%s" % (",".join(map(str, self.gamma[0])),
                                    ",".join(map(str, self.gamma[1])))
        return {
            "m": self.m,
            "n": self.n,
            "gamma": gamma_text,
            "max_degree": self.max_degree,
            "suites": self.suite_list(),
            "q_mode": "exact",
            "q_values": [],
            "cache": self.cache,
            "jobs": 1,
        }


@dataclass
class WorkbenchRun:
    config: WorkbenchConfig
    suites: list

    def counts(self):
        passed = failed = 0
        for suite in self.suites:
            for c in suite.checks:
                if c.status == "pass":
                    passed += 1
                else:
                    failed += 1
        return passed, failed

    @property
    def ok(self):
        return all(suite.passed for suite in self.suites)

    def summary_line(self):
        passed, failed = self.counts()
        return "pass %d / fail %d" % (passed, failed)

    def as_dict(self):
        return {
            "version": REPORT_VERSION,
            "config": self.config.as_dict(),
            "suites": [{
                "name": s.name,
                "params": s.params,
                "checks": [{"name": c.name, "status": c.status,
                            "witness": c.witness, "ms": c.ms}
                           for c in s.checks],
            } for s in self.suites],
            "summary": dict(zip(("pass", "fail"), self.counts()),
                            line=self.summary_line()),
        }


def emit_report(run, fh):
    """Write the JSON report; output is byte-identical across reruns."""
    json.dump(run.as_dict(), fh, indent=2)
    fh.write("\n")


# ----------------------------------------------------------------------
# the individual suites


def _guarded_shape(config):
    """The config's shape, refused above PBW_TRIPLE_GUARD before any work."""
    shape = config.shape()
    triples = shape.ngens ** 3
    if triples > PBW_TRIPLE_GUARD:
        raise DegreeTooLarge("%s has %d generator triples (guard %d)"
                             % (shape, triples, PBW_TRIPLE_GUARD))
    return shape


def _suite_pbw(config):
    shape = _guarded_shape(config)
    rep = SuiteReport("pbw", {"shape": str(shape)})
    gens = shape.gens()
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            (i, j), (k, l) = gens[a], gens[b]
            xa = NCPoly.generator(shape, i, j)
            xb = NCPoly.generator(shape, k, l)
            name = "relation x[%d,%d],x[%d,%d]" % (i, j, k, l)
            if i == k or j == l:
                rep.add(name, xa * xb == (xb * xa).scale(Q), "same line")
            elif j > l:
                rep.add(name, xa * xb == xb * xa, "antidiagonal")
            else:
                want = (NCPoly.generator(shape, i, l)
                        * NCPoly.generator(shape, k, j)).scale(QHAT)
                rep.add(name, xa * xb - xb * xa == want, "diagonal")
    bad = 0
    total = 0
    polys = [NCPoly.generator(shape, i, j) for (i, j) in gens]
    # each generator pair product once; a triple then costs two products
    pairs = [[u * v for v in polys] for u in polys]
    for a, u in enumerate(polys):
        for b in range(len(polys)):
            for c, w in enumerate(polys):
                total += 1
                if pairs[a][b] * w != u * pairs[b][c]:
                    bad += 1
    rep.add("associativity on generator triples", bad == 0,
            "%d triples, %d failures" % (total, bad))
    for d in range(0, min(config.max_degree, 3) + 1):
        count = len(graded_basis(shape, d))
        rep.add("graded dimension %d" % d, count == graded_dim(shape, d),
                "%d ordered monomials" % count)
    return rep


def _suite_laplace(config):
    shape = _guarded_shape(config)
    rep = SuiteReport("laplace", {"shape": str(shape)})
    cap = min(shape.m, shape.n - 1, 2)
    for k in range(1, cap + 1):
        for rows in itertools.combinations(range(1, shape.m + 1), k):
            for cols in itertools.combinations(range(1, shape.n + 1), k + 1):
                for r in range(1, shape.m + 1):
                    ident = laplace_relation(shape, rows, cols, r)
                    rep.add("column rows=%s cols=%s r=%d" % (list(rows), list(cols), r),
                            ident.holds)
    cap = min(shape.n, shape.m - 1, 2)
    for k in range(1, cap + 1):
        for rows in itertools.combinations(range(1, shape.m + 1), k + 1):
            for cols in itertools.combinations(range(1, shape.n + 1), k):
                for s in range(1, shape.n + 1):
                    ident = laplace_row_relation(shape, rows, cols, s)
                    rep.add("row rows=%s cols=%s s=%d" % (list(rows), list(cols), s),
                            ident.holds)
    return rep


def _suite_centrality(config):
    shape = _guarded_shape(config)
    rep = SuiteReport("centrality", {"shape": str(shape)})
    if shape.m == shape.n:
        dq = minor_value(quantum_determinant(shape))
        for (i, j) in shape.gens():
            x = NCPoly.generator(shape, i, j)
            rep.add("determinant vs x[%d,%d]" % (i, j), dq * x == x * dq)
    for mn in enumerate_minors(shape):
        if mn.size > 3:
            continue
        val = minor_value(mn)
        bad = []
        for i in mn.rows:
            for j in mn.cols:
                x = NCPoly.generator(shape, i, j)
                if x * val != val * x:
                    bad.append("x[%d,%d]" % (i, j))
        rep.add("inner variables vs %s" % mn, not bad, "; ".join(bad))
    return rep


def _suite_minors(config):
    shape = _guarded_shape(config)
    rep = SuiteReport("minors", {"shape": str(shape)})
    pool = enumerate_minors(shape)
    rep.add("poset size", True, "%d minors" % len(pool))
    for mn in pool:
        if mn.size <= 3:
            rep.add("expansions agree for %s" % mn,
                    minor_value(mn) == minor_value(mn, "laplace_first_row"))
    up = std_le_masks(shape)
    rep.add("order reflexive", all(up[a] >> a & 1 for a in range(len(pool))))
    rep.add("order antisymmetric",
            all(not up[b] >> a & 1
                for a in range(len(pool)) for b in bits(up[a]) if b != a))
    rep.add("order transitive",
            all(not up[b] & ~up[a]
                for a in range(len(pool)) for b in bits(up[a])))
    gamma = config.gamma_minor()
    if gamma is not None:
        rep.add("excluded minors", True,
                "%d of %d" % (len(excluded_minors(gamma)), len(pool)))
    return rep


def _suite_counts(config):
    shape = config.shape()
    pool = minor_count(shape, COUNTS_STEP_GUARD)
    steps = pool ** 2 * max(config.max_degree, 1)
    if steps > COUNTS_STEP_GUARD:
        raise DegreeTooLarge("%s has %d minors: %d counting steps (guard %d)"
                             % (shape, pool, steps, COUNTS_STEP_GUARD))
    rep = SuiteReport("counts", {"shape": str(shape),
                                 "max_degree": config.max_degree})
    for mn in enumerate_minors(shape):
        # a closed formula and no tower work, so the shape guard is skipped
        try:
            count = generator_count(Frame(mn))
        except WorkbenchError as exc:
            rep.add("generators over %s" % mn, False, str(exc))
            continue
        rep.add("generators over %s" % mn, True, "%d generators" % count)
    # the full-size leading minor sits below every minor: all chains count
    t = min(shape.m, shape.n)
    counts = standard_monomial_counts(
        Minor(shape, range(1, t + 1), range(1, t + 1)), config.max_degree)
    for d, stds in enumerate(counts):
        rep.add("standard monomials degree %d" % d, stds == graded_dim(shape, d),
                "%d standard, dimension %d" % (stds, graded_dim(shape, d)))
    return rep


def _frame(config):
    return build_frame(config.gamma_minor())


def _suite_mfamily(config):
    frame = _frame(config)
    rep = SuiteReport("mfamily", {"gamma": str(frame.minor)})
    rep.absorb(family_relations_check(frame))
    rep.absorb(subalgebra_commutation_check(frame))
    return rep


def _suite_torus(config):
    frame = _frame(config)
    rep = SuiteReport("torus", {"gamma": str(frame.minor)})
    rep.absorb(check_h_actions(frame))
    return rep


def _suite_ore_tower(config):
    frame = _frame(config)
    rep = SuiteReport("ore-tower", {"gamma": str(frame.minor),
                                    "max_degree": config.max_degree})
    steps = ore_step_check(frame, max(config.max_degree, frame.size))
    for idx, step in enumerate(steps):
        rep.absorb(step, prefix="stage %d" % idx)
    rep.add("generator count", True,
            "%d" % generator_count(frame))
    return rep


def _suite_gamma_normal(config):
    frame = _frame(config)
    rep = SuiteReport("gamma-normal", {"gamma": str(frame.minor),
                                       "max_degree": config.max_degree})
    rep.absorb(gamma_normality_check(frame))
    rep.absorb(regularity_check(frame.minor, config.max_degree))
    return rep


def _suite_factor_basis(config):
    gamma = config.gamma_minor()
    rep = SuiteReport("factor-basis", {"gamma": str(gamma),
                                       "max_degree": config.max_degree})
    # first, so that its guards trip before any other check's work
    zero_divisors = zero_divisor_check(gamma, config.max_degree)
    for d in range(0, config.max_degree + 1):
        rep.absorb(basis_check(gamma, d))
    rep.absorb(hilbert_check(gamma, config.max_degree))
    rep.absorb(zero_divisors)
    rep.absorb(tower_image_check(gamma, config.max_degree))
    return rep


def _suite_ctau(config):
    gamma = config.gamma_minor()
    minor_count(gamma.shape, CTAU_POOL_GUARD)
    rep = SuiteReport("ctau", {"gamma": str(gamma)})
    rep.absorb(normality_check(gamma))
    return rep


def _suite_theta(config):
    gamma = config.gamma_minor()
    rep = SuiteReport("theta", {"gamma": str(gamma)})
    rep.absorb(generator_image_suite(gamma))
    return rep


#: every suite in canonical order: name -> (needs a minor, function)
_SUITES = {
    "pbw": (False, _suite_pbw),
    "laplace": (False, _suite_laplace),
    "centrality": (False, _suite_centrality),
    "minors": (False, _suite_minors),
    "counts": (False, _suite_counts),
    "mfamily": (True, _suite_mfamily),
    "torus": (True, _suite_torus),
    "ore-tower": (True, _suite_ore_tower),
    "gamma-normal": (True, _suite_gamma_normal),
    "factor-basis": (True, _suite_factor_basis),
    "ctau": (True, _suite_ctau),
    "theta": (True, _suite_theta),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name, config):
    """Run one suite; DegreeTooLarge is re-raised naming the suite."""
    if name not in _SUITES:
        raise ConfigError("unknown suite %r" % name)
    _, func = _SUITES[name]
    try:
        return func(config)
    except DegreeTooLarge as exc:
        raise DegreeTooLarge("suite %s: %s" % (name, exc)) from None


def run_workbench(config):
    """Run all requested suites and collect a WorkbenchRun."""
    config.validate()
    begin_run(config.cache)
    reports = [run_suite(name, config) for name in config.suite_list()]
    return WorkbenchRun(config, reports)
