"""Per-layer tracing of qdet, applied from outside the package.

Tracer.install() wraps public functions and methods of qdet's modules in
place.  A wrapped module function is also rebound in every qdet module
that imported it by name (`from .scalars import laurent_gcd` leaves a
second reference in linalg), so calls through either name are seen.
Nothing under src/qdet is edited.

Every call of a wrapped target records one span (name, start, end,
parent) in compact in-memory arrays.  report() turns the spans into
per-layer metrics: call counts, inclusive seconds (outermost span of a
name only, so recursion is not counted twice) and self seconds (span
duration minus the durations of its direct child spans).  A target that
a later version of qdet no longer has is skipped and listed under
"missing"; its metrics then read zero.
"""

import builtins
import os
import sys
import time
from array import array

#: (span name, module, attribute path); names map onto the metrics below
TARGETS = (
    ("suites", "suites", "run_suite"),
    ("factor.ideal_component", "factor", "ideal_component"),
    ("factor.normality_scalar", "factor", "normality_scalar"),
    ("linalg.echelon_insert", "linalg", "Echelon.insert"),
    ("linalg.echelon_residue", "linalg", "Echelon.residue"),
    ("linalg.row_normalized", "linalg", "row_normalized"),
    ("linalg.from_poly", "linalg", "CoefficientVector.from_poly"),
    ("linalg.from_poly", "linalg", "CoefficientVector._laurent_row"),
    ("linalg.solver", "linalg", "LinearSolver.insert"),
    ("linalg.solver", "linalg", "LinearSolver.express"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.span_membership", "linalg", "span_membership"),
    ("scalars.laurent_gcd", "scalars", "laurent_gcd"),
    ("scalars.laurent_exact_div", "scalars", "laurent_exact_div"),
    ("algebra.ncpoly_mul", "algebra", "NCPoly.__mul__"),
    ("algebra.normal_form", "algebra", "normal_form"),
    ("minors.minor_value", "minors", "minor_value"),
    ("minors.identity_evaluate", "minors", "MinorIdentity.evaluate"),
    ("tower.ore_step_check", "tower", "ore_step_check"),
    ("tower.stage_monomials", "tower", "stage_monomials"),
    ("tower.build_frame", "tower", "build_frame"),
    ("cache.load_rows", "cache", "load_rows"),
    ("cache.store_rows", "cache", "store_rows"),
)

SUITES = ("pbw", "laplace", "centrality", "minors", "counts", "mfamily",
          "torus", "ore-tower", "gamma-normal", "factor-basis", "ctau",
          "theta")

#: targets only counted, no span: called millions of times, no time metric
COUNTED = (
    ("minors.std_le", "minors", "std_le"),
)

#: lru_caches read through cache_info() at the end of a run
LRU_CACHES = (
    ("algebra.nf_mono_gen", "algebra", "_nf_mono_gen"),
    ("algebra.nf_gen_mono", "algebra", "_nf_gen_mono"),
    ("algebra.nf_concat", "algebra", "_nf_concat"),
    ("minors.minor_value", "minors", "_minor_value_cached"),
)

#: the ideal component whose build the self-check follows
SELF_CHECK_DEGREE = 4


def metric_names():
    """Every per-layer metric report() produces, in output order."""
    names = ["suites.%s.s" % s for s in SUITES]
    names += ["factor.ideal_component.calls", "factor.ideal_component.self_s",
              "factor.ideal_rank", "factor.normality_scalar.s",
              "factor.deg4_build.inserts", "factor.deg4_build.rank",
              "factor.deg4_build.useful_ratio",
              "linalg.echelon_insert.calls", "linalg.echelon_insert.self_s",
              "linalg.insert_useful_ratio",
              "linalg.echelon_residue.calls", "linalg.echelon_residue.s",
              "linalg.row_normalized.calls", "linalg.row_normalized.self_s",
              "linalg.from_poly.s", "linalg.solver.s", "linalg.rank.s",
              "linalg.span_membership.s",
              "scalars.laurent_gcd.calls", "scalars.laurent_gcd.s",
              "scalars.laurent_exact_div.calls", "scalars.laurent_exact_div.s",
              "algebra.ncpoly_mul.calls", "algebra.ncpoly_mul.self_s",
              "algebra.normal_form.s"]
    for cache in ("nf_mono_gen", "nf_gen_mono", "nf_concat"):
        names += ["algebra.%s.hits" % cache, "algebra.%s.misses" % cache]
    names += ["minors.minor_value.calls", "minors.minor_value.s",
              "minors.minor_value.misses", "minors.std_le.calls",
              "minors.identity_evaluate.s",
              "tower.ore_step_check.s", "tower.stage_monomials.s",
              "tower.build_frame.s",
              "cache.load_rows.calls", "cache.load_rows.s", "cache.hit_ratio",
              "cache.store_rows.calls", "cache.store_rows.s",
              "cache.bytes_read"]
    return names


def _resolve(module, path):
    """(owner, attribute, raw value) for 'func' or 'Class.method'."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    raw = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


class Tracer:
    """Spans in memory plus the few counters read from return values."""

    def __init__(self):
        self.names = []            # span name id -> name
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")    # 1 when no ancestor has the same name
        self._stack = []
        self._depth = {}
        self._components = []      # open ideal_component frames
        self.builds = []           # ideal components built in this run
        self.inserts_useful = 0
        self.loads_hit = 0
        self.bytes_read = 0
        self.missing = []
        self.counts = {}

    # ------------------------------------------------------------------

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth[nid] = 0
        return nid

    def _wrap(self, span, func):
        tracer = self
        fixed = None if span == "suites" else self._id(span)
        on_return = {
            "linalg.echelon_insert": self._insert_returned,
            "cache.load_rows": self._load_returned,
        }.get(span)
        is_component = span == "factor.ideal_component"
        stack, depth = self._stack, self._depth
        name_id, parent, start, end, outer = (
            self.name_id, self.parent, self.start, self.end, self.outer)

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else tracer._id("suites." + args[0])
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer.append(depth[nid] == 0)
            depth[nid] += 1
            stack.append(idx)
            if is_component:
                tracer._components.append([args[1], 0, 0])
            start.append(time.perf_counter())
            end.append(0.0)
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = time.perf_counter()
                stack.pop()
                depth[nid] -= 1
                frame = tracer._components.pop() if is_component else None
            if is_component:
                tracer._component_returned(frame, result)
            elif on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _count(self, name, func):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def _component_returned(self, frame, component):
        degree, inserts, useful = frame
        if inserts:
            self.builds.append({"degree": degree, "inserts": inserts,
                                "useful": useful, "rank": component.rank})

    def _insert_returned(self, grew):
        if grew:
            self.inserts_useful += 1
        if self._components:
            frame = self._components[-1]
            frame[1] += 1
            frame[2] += 1 if grew else 0

    def _load_returned(self, rows):
        if rows is not None:
            self.loads_hit += 1

    # ------------------------------------------------------------------

    def install(self):
        """Wrap every target; rebind module-level names that alias them."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "qdet" or name.startswith("qdet.")}
        targets = [(span, m, p, self._wrap) for span, m, p in TARGETS]
        targets += [(span, m, p, self._count) for span, m, p in COUNTED]
        for span, mod_name, path, make in targets:
            module = modules.get("qdet." + mod_name)
            try:
                owner, attr, raw = _resolve(module, path)
            except (AttributeError, KeyError):
                self.missing.append("%s.%s" % (mod_name, path))
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(span, raw.__func__)))
            elif isinstance(owner, type):
                setattr(owner, attr, make(span, raw))
            else:
                wrapped = make(span, raw)
                for mod in modules.values():
                    for name, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, name, wrapped)
        cache_mod = modules.get("qdet.cache")
        if cache_mod is not None:
            # a module global shadows the builtin for code in that module
            cache_mod.open = self._counting_open

    def _counting_open(self, path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        if "r" in mode:
            self.bytes_read += os.fstat(fh.fileno()).st_size
        return fh

    # ------------------------------------------------------------------

    def _aggregate(self):
        """calls, inclusive seconds and self seconds per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = {}
        incl = {}
        self_s = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            if self.outer[i]:
                incl[name] = incl.get(name, 0.0) + dur
        return calls, incl, self_s

    def report(self):
        calls, incl, self_s = self._aggregate()
        out = {}
        for s in SUITES:
            out["suites.%s.s" % s] = incl.get("suites." + s, 0.0)
        deg4 = [b for b in self.builds if b["degree"] == SELF_CHECK_DEGREE]
        d4_inserts = sum(b["inserts"] for b in deg4)
        d4_useful = sum(b["useful"] for b in deg4)
        inserts = calls.get("linalg.echelon_insert", 0)
        loads = calls.get("cache.load_rows", 0)
        out.update({
            "factor.ideal_component.calls": calls.get("factor.ideal_component", 0),
            "factor.ideal_component.self_s": self_s.get("factor.ideal_component", 0.0),
            "factor.ideal_rank": sum(b["rank"] for b in self.builds),
            "factor.normality_scalar.s": incl.get("factor.normality_scalar", 0.0),
            "factor.deg4_build.inserts": d4_inserts,
            "factor.deg4_build.rank": sum(b["rank"] for b in deg4),
            "factor.deg4_build.useful_ratio":
                d4_useful / d4_inserts if d4_inserts else 0.0,
            "linalg.echelon_insert.calls": inserts,
            "linalg.echelon_insert.self_s": self_s.get("linalg.echelon_insert", 0.0),
            "linalg.insert_useful_ratio":
                self.inserts_useful / inserts if inserts else 0.0,
            "linalg.echelon_residue.calls": calls.get("linalg.echelon_residue", 0),
            "linalg.echelon_residue.s": incl.get("linalg.echelon_residue", 0.0),
            "linalg.row_normalized.calls": calls.get("linalg.row_normalized", 0),
            "linalg.row_normalized.self_s": self_s.get("linalg.row_normalized", 0.0),
            "linalg.from_poly.s": incl.get("linalg.from_poly", 0.0),
            "linalg.solver.s": incl.get("linalg.solver", 0.0),
            "linalg.rank.s": incl.get("linalg.rank", 0.0),
            "linalg.span_membership.s": incl.get("linalg.span_membership", 0.0),
            "scalars.laurent_gcd.calls": calls.get("scalars.laurent_gcd", 0),
            "scalars.laurent_gcd.s": incl.get("scalars.laurent_gcd", 0.0),
            "scalars.laurent_exact_div.calls": calls.get("scalars.laurent_exact_div", 0),
            "scalars.laurent_exact_div.s": incl.get("scalars.laurent_exact_div", 0.0),
            "algebra.ncpoly_mul.calls": calls.get("algebra.ncpoly_mul", 0),
            "algebra.ncpoly_mul.self_s": self_s.get("algebra.ncpoly_mul", 0.0),
            "algebra.normal_form.s": incl.get("algebra.normal_form", 0.0),
            "minors.minor_value.calls": calls.get("minors.minor_value", 0),
            "minors.minor_value.s": incl.get("minors.minor_value", 0.0),
            "minors.std_le.calls": self.counts.get("minors.std_le", 0),
            "minors.identity_evaluate.s": incl.get("minors.identity_evaluate", 0.0),
            "tower.ore_step_check.s": incl.get("tower.ore_step_check", 0.0),
            "tower.stage_monomials.s": incl.get("tower.stage_monomials", 0.0),
            "tower.build_frame.s": incl.get("tower.build_frame", 0.0),
            "cache.load_rows.calls": loads,
            "cache.load_rows.s": incl.get("cache.load_rows", 0.0),
            "cache.hit_ratio": self.loads_hit / loads if loads else 0.0,
            "cache.store_rows.calls": calls.get("cache.store_rows", 0),
            "cache.store_rows.s": incl.get("cache.store_rows", 0.0),
            "cache.bytes_read": self.bytes_read,
        })
        modules = sys.modules
        for metric, mod_name, attr in LRU_CACHES:
            fn = getattr(modules.get("qdet." + mod_name), attr, None)
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            if metric != "minors.minor_value":
                out[metric + ".hits"] = info.hits if info else 0
            out[metric + ".misses"] = info.misses if info else 0
        return {"metrics": out, "builds": self.builds,
                "spans": len(self.start), "missing": self.missing}
