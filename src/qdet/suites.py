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

from . import cache as _disk
from .errors import ConfigError, DegreeTooLarge, WorkbenchError
from .algebra import MatrixShape, NCPoly, graded_basis, graded_dim
from .minors import (Minor, enumerate_minors, excluded_minors,
                     laplace_relation, laplace_row_relation, minor_value,
                     quantum_determinant, std_le)
from .factor import (basis_check, generator_image_suite, hilbert_check,
                     normality_check, regularity_check,
                     standard_monomial_count, tower_image_check,
                     zero_divisor_check)
from .report import SuiteReport
from .scalars import Q, QHAT
from .tower import (Frame, build_frame, check_h_actions,
                    family_relations_check, gamma_normality_check,
                    generator_count, ore_step_check,
                    subalgebra_commutation_check)

REPORT_VERSION = 1

#: suites in canonical order; entries marked True need a minor
_SUITE_NEEDS_GAMMA = (
    ("pbw", False),
    ("laplace", False),
    ("centrality", False),
    ("minors", False),
    ("counts", False),
    ("mfamily", True),
    ("torus", True),
    ("ore-tower", True),
    ("gamma-normal", True),
    ("factor-basis", True),
    ("ctau", True),
    ("theta", True),
)

SUITE_NAMES = tuple(name for name, _ in _SUITE_NEEDS_GAMMA)
_NEEDS_GAMMA = dict(_SUITE_NEEDS_GAMMA)


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
        if self.gamma is None:
            needed = [s for s in names if _NEEDS_GAMMA[s]]
            if needed:
                raise ConfigError("suites %s need --gamma"
                                  % ", ".join(sorted(needed)))
        else:
            try:
                self.gamma_minor()
            except WorkbenchError as exc:
                raise ConfigError("bad gamma: %s" % exc) from None
        return self

    def suite_list(self):
        """Requested suites expanded and put into canonical order."""
        requested = set()
        for s in self.suites:
            if s == "all":
                requested.update(name for name, needs in _SUITE_NEEDS_GAMMA
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
        return self.counts()[1] == 0

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


def _suite_pbw(config):
    shape = config.shape()
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
    for u in polys:
        for v in polys:
            for w in polys:
                total += 1
                if (u * v) * w != u * (v * w):
                    bad += 1
    rep.add("associativity on generator triples", bad == 0,
            "%d triples, %d failures" % (total, bad))
    for d in range(0, min(config.max_degree, 3) + 1):
        count = len(graded_basis(shape, d))
        rep.add("graded dimension %d" % d, count == graded_dim(shape, d),
                "%d ordered monomials" % count)
    return rep


def _suite_laplace(config):
    shape = config.shape()
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
    shape = config.shape()
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


def _bits(mask):
    """Positions of the set bits of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _suite_minors(config):
    shape = config.shape()
    rep = SuiteReport("minors", {"shape": str(shape)})
    pool = enumerate_minors(shape)
    rep.add("poset size", True, "%d minors" % len(pool))
    for mn in pool:
        if mn.size <= 3:
            rep.add("expansions agree for %s" % mn,
                    minor_value(mn) == minor_value(mn, "laplace_first_row"))
    # up[a] has bit b set iff pool[a] <= pool[b]: N^2 std_le calls in all
    up = []
    for a in pool:
        mask = 0
        for k, b in enumerate(pool):
            if std_le(a, b):
                mask |= 1 << k
        up.append(mask)
    rep.add("order reflexive", all(up[a] >> a & 1 for a in range(len(pool))))
    rep.add("order antisymmetric",
            all(not up[b] >> a & 1
                for a in range(len(pool)) for b in _bits(up[a]) if b != a))
    rep.add("order transitive",
            all(not up[b] & ~up[a]
                for a in range(len(pool)) for b in _bits(up[a])))
    gamma = config.gamma_minor()
    if gamma is not None:
        rep.add("excluded minors", True,
                "%d of %d" % (len(excluded_minors(gamma)), len(pool)))
    return rep


def _suite_counts(config):
    shape = config.shape()
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
    for d in range(0, config.max_degree + 1):
        stds = standard_monomial_count(shape, d)
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
    degree = max(config.max_degree, frame.size)
    for idx in range(len(frame.family())):
        step = ore_step_check(frame, idx, max_degree=degree)
        rep.absorb(step.report, prefix="stage %d" % idx)
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
    shape = config.shape()
    rep = SuiteReport("factor-basis", {"gamma": str(gamma),
                                       "max_degree": config.max_degree})
    for d in range(0, config.max_degree + 1):
        rep.absorb(basis_check(shape, d, gamma))
    rep.absorb(hilbert_check(gamma, config.max_degree))
    rep.absorb(zero_divisor_check(gamma, config.max_degree))
    rep.absorb(tower_image_check(gamma, config.max_degree))
    return rep


def _suite_ctau(config):
    gamma = config.gamma_minor()
    rep = SuiteReport("ctau", {"gamma": str(gamma)})
    rep.absorb(normality_check(gamma))
    return rep


def _suite_theta(config):
    gamma = config.gamma_minor()
    rep = SuiteReport("theta", {"gamma": str(gamma)})
    rep.absorb(generator_image_suite(gamma))
    return rep


_SUITE_FUNCS = {
    "pbw": _suite_pbw,
    "laplace": _suite_laplace,
    "centrality": _suite_centrality,
    "minors": _suite_minors,
    "counts": _suite_counts,
    "mfamily": _suite_mfamily,
    "torus": _suite_torus,
    "ore-tower": _suite_ore_tower,
    "gamma-normal": _suite_gamma_normal,
    "factor-basis": _suite_factor_basis,
    "ctau": _suite_ctau,
    "theta": _suite_theta,
}


def run_suite(name, config):
    """Run one suite; DegreeTooLarge is re-raised naming the suite."""
    func = _SUITE_FUNCS.get(name)
    if func is None:
        raise ConfigError("unknown suite %r" % name)
    try:
        return func(config)
    except DegreeTooLarge as exc:
        raise DegreeTooLarge("suite %s: %s" % (name, exc)) from None


def run_workbench(config):
    """Run all requested suites and collect a WorkbenchRun."""
    config.validate()
    # set or clear: a directory from an earlier run must not leak into this one
    _disk.set_cache_dir(config.cache)
    reports = [run_suite(name, config) for name in config.suite_list()]
    return WorkbenchRun(config, reports)
