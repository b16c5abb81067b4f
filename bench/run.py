"""The qdet benchmark: time-to-verdict of exact verification runs.

    python3 bench/run.py --workload ideal-4x4 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the directory holding src/qdet).
Each workload is one closed-loop client.  A job is a fresh Python process
(bench/child.py) that imports qdet from src/, validates its configs and
runs them in exact mode with one thread and cold lru_caches, as every CLI
run does; an iteration runs the workload's jobs one after the other.
Iterations repeat until --seconds is used up.

--trace 0 prints the end-to-end metrics (medians over the run):
  setup_s      spawn -> qdet imported and the job's configs validated
  verdict_s    wall time of the verification calls of one iteration
  peak_rss_mb  the largest maximum resident set size of its jobs
--trace 1 runs the first job once untraced and once traced and prints
the per-layer metrics of bench/layertrace.py and the tracing overhead.

Every report (or `compute` stdout) is hashed and compared with the digest
recorded from the seed code in bench/golden.json; a wrong digest, a wrong
exit code or a failing check counts as a failed operation.  The last
stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}.  See bench/README.md for the workloads and what each metric
is expected to move.
"""

import argparse
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

import layertrace   # beside this file

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(BENCH_DIR, "golden.json")
CHILD = os.path.join(BENCH_DIR, "child.py")

WORKLOADS = ("ideal-4x4", "tower-sweep-4x4", "algebra-5x5", "ideal-4x4-warm")

#: size-2 minors of 4x4 that every ideal iteration verifies, in seed order
GAMMA_POOL = ("2,4|1,3", "2,3|2,3")

#: every workload path at small size: the 3x3 shape and this gamma
SMOKE_GAMMA = "1,3|1,2"

#: cache directory of the warm workload, relative to the child's cwd so
#: that the report (which records it) is the same in every checkout
CACHE_NAME = "qdet-cache"

TOWER_SUITES = "mfamily,torus,ore-tower"

#: what --trace 1 prints: the layers' metrics and the tracing overhead
PER_LAYER = layertrace.metric_names() + ["trace.verdict_s", "trace.overhead_s"]

#: setup-only processes started per run, besides one per job
SETUP_SAMPLES = 8

#: no single process may run longer than this
CHILD_TIMEOUT = 150


# ----------------------------------------------------------------------
# workloads: generated from the seed, handed to the child as steps


def _cli(*argv):
    argv = [str(a) for a in argv]
    return {"kind": "cli", "argv": argv, "key": "qdet " + " ".join(argv)}


def _workbench(config):
    key = "run_workbench " + json.dumps(config, sort_keys=True)
    return {"kind": "workbench", "config": config, "key": key}


def _minors(m, n):
    out = []
    for t in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(1, m + 1), t):
            for cols in itertools.combinations(range(1, n + 1), t):
                out.append("%s|%s" % (",".join(map(str, rows)),
                                      ",".join(map(str, cols))))
    return out


def ideal_order(seed, smoke=False):
    """The gamma pool in the order the seed picks; the first is traced."""
    pool = [SMOKE_GAMMA] if smoke else list(GAMMA_POOL)
    random.Random(seed).shuffle(pool)
    return pool


def ideal_argv(gamma, smoke=False, warm=False):
    side = 3 if smoke else 4
    argv = ["verify", "--m", side, "--n", side, "--gamma", gamma,
            "--max-degree", 3]
    return argv + ["--cache", CACHE_NAME] if warm else argv


def tower_steps(order, smoke=False):
    side, degree = (3, 3) if smoke else (4, 4)
    return [_workbench({"m": side, "n": side, "gamma": g,
                        "max_degree": degree, "suites": TOWER_SUITES})
            for g in order]


def algebra_steps(smoke=False):
    side, det = (3, 4) if smoke else (5, 7)
    full = ",".join(str(i) for i in range(1, det + 1))
    return [_cli("verify", "--m", side, "--n", side, "--max-degree", 3),
            _cli("compute", "minor", "--m", det, "--n", det,
                 "%s|%s" % (full, full))]


def workload_jobs(workload, seed, smoke=False):
    """What one iteration runs, from the seed: a list of jobs, each a list
    of steps run by one fresh process."""
    if workload in ("ideal-4x4", "ideal-4x4-warm"):
        warm = workload == "ideal-4x4-warm"
        return [[_cli(*ideal_argv(gamma, smoke, warm))]
                for gamma in ideal_order(seed, smoke)]
    if workload == "tower-sweep-4x4":
        order = _minors(3, 3) if smoke else _minors(4, 4)
        random.Random(seed).shuffle(order)
        return [tower_steps(order, smoke)]
    if workload == "algebra-5x5":
        return [algebra_steps(smoke)]
    raise ValueError("unknown workload %r" % workload)


# ----------------------------------------------------------------------
# running one child process


class Runner:
    """Starts child processes in a private work directory of the checkout."""

    def __init__(self, root, workdir):
        self.workdir = workdir
        env = {k: v for k, v in os.environ.items()
               if k not in ("QDET_CACHE", "PYTHONPATH", "PYTHONSTARTUP")}
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.env = env
        self.count = 0

    def run(self, steps, trace=False, setup_only=False):
        """One child; returns its result dict with setup_s added."""
        self.count += 1
        job_path = os.path.join(self.workdir, "job-%d.json" % self.count)
        result_path = os.path.join(self.workdir, "result-%d.json" % self.count)
        with open(job_path, "w", encoding="ascii") as fh:
            json.dump({"steps": steps, "trace": trace,
                       "setup_only": setup_only}, fh)
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, CHILD, job_path, result_path],
            cwd=self.workdir, env=self.env, stdout=subprocess.DEVNULL,
            timeout=CHILD_TIMEOUT, check=False)
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise ChildFailed("child exited with %d" % proc.returncode)
        with open(result_path, encoding="ascii") as fh:
            result = json.load(fh)
        os.unlink(job_path)
        os.unlink(result_path)
        result["setup_s"] = result["setup_end"] - started
        return result


class ChildFailed(Exception):
    pass


class Tally:
    """Operations attempted and failed, checked against the golden file."""

    def __init__(self, golden):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def steps(self, result):
        for step in result["steps"]:
            want = self.golden["digests"].get(step["key"])
            self.attempted += step["checks"]
            self.failed += step["failed_checks"]
            if step["failed_checks"]:
                self.notes.append("%d failing checks in %s"
                                  % (step["failed_checks"], step["key"]))
            # one operation per report or compute output
            self.op(step["exit"] == 0 and want is not None
                    and want["sha256"] == step["sha256"],
                    "exit %d, digest %s the seed's for %s"
                    % (step["exit"], "differs from" if want is None
                       or want["sha256"] != step["sha256"] else "matches",
                       step["key"]))


# ----------------------------------------------------------------------
# environment and output


def environment(cache_path=None):
    env = {"python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)),
           "cpu_model": "unknown"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if cache_path is not None:
        files = [os.path.join(cache_path, f) for f in os.listdir(cache_path)]
        env["warm_cache_files"] = len(files)
        env["warm_cache_bytes"] = sum(os.path.getsize(f) for f in files)
    return env


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _print_metric(name, value, unit, note=""):
    print("metric %-36s %14.6f %-5s %s" % (name, value, unit, note))


def measure(runner, tally, jobs, deadline, setup_samples):
    """Setup-only samples, then timed iterations until the deadline.

    An iteration runs every job in its own process; its verdict_s is the
    sum over the jobs and its peak_rss_mb the largest of them.
    """
    setups = []
    for i in range(setup_samples):
        setups.append(runner.run(jobs[i % len(jobs)],
                                 setup_only=True)["setup_s"])
    verdicts, rss = [], []
    began = time.monotonic()
    while True:
        results = [runner.run(job) for job in jobs]
        for result in results:
            tally.steps(result)
            setups.append(result["setup_s"])
        verdicts.append(sum(r["verdict_s"] for r in results))
        rss.append(max(r["peak_rss_mb"] for r in results))
        # stop when the next iteration would end more than half of one
        # past the deadline, so that a run lasts about --seconds
        per_iteration = (time.monotonic() - began) / len(verdicts)
        if time.monotonic() + per_iteration / 2 > deadline:
            break
    print("samples verdict_s %s" % json.dumps([round(v, 4) for v in verdicts]))
    print("samples setup_s %s" % json.dumps([round(v, 4) for v in setups]))
    print("samples peak_rss_mb %s" % json.dumps([round(v, 1) for v in rss]))
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "verdict_s": (statistics.median(verdicts), "s", len(verdicts)),
        "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
    }
    out = {}
    for name, (value, unit, count) in metrics.items():
        _print_metric(name, value, unit, "median of %d" % count)
        out[name] = _metric(value, unit)
    return out


def self_check(tally, workload, trace, gamma_key):
    """Exact counts of the traced run against the seed's (see README)."""
    m = trace["metrics"]
    if workload == "algebra-5x5":
        busy = [k for k, v in m.items()
                if k.startswith(("linalg.", "factor.")) and v]
        tally.op(not busy, "algebra-5x5 touched linalg/factor: %s" % busy)
        print("selfcheck linalg and factor calls on %s: %s"
              % (workload, "zero" if not busy else busy))
    if gamma_key is None:
        return
    seed = tally.golden["deg4_builds"].get(gamma_key)
    rank = m["factor.deg4_build.rank"]
    tally.op(seed is not None and rank == seed["rank"],
             "degree-4 rank %s, seed %s" % (rank, seed))
    if seed is None:
        return
    print("selfcheck degree-4 rank %d (seed %d)" % (rank, seed["rank"]))
    if workload == "ideal-4x4":
        # insert counts are an implementation count, reported not gated
        inserts = m["factor.deg4_build.inserts"]
        print("selfcheck degree-4 inserts %d (seed %d, %s), useful ratio "
              "%.3f = %d/%d" % (inserts, seed["inserts"],
                                "matches" if inserts == seed["inserts"]
                                else "differs", m["factor.deg4_build.useful_ratio"],
                                rank, inserts))


def traced(runner, tally, steps, workload, gamma_key):
    """The steps run once untraced and once traced; per-layer metrics."""
    plain = runner.run(steps)
    tally.steps(plain)
    result = runner.run(steps, trace=True)
    tally.steps(result)
    trace = result["trace"]
    if trace["missing"]:
        print("trace targets missing: %s" % ", ".join(trace["missing"]))
    print("trace spans %d, builds %s" % (trace["spans"],
                                         json.dumps(trace["builds"])))
    self_check(tally, workload, trace, gamma_key)
    metrics = dict(trace["metrics"])
    metrics["trace.verdict_s"] = result["verdict_s"]
    metrics["trace.overhead_s"] = result["verdict_s"] - plain["verdict_s"]
    out = {}
    for name in PER_LAYER:
        unit = per_layer_unit(name)
        _print_metric(name, metrics[name], unit)
        out[name] = _metric(metrics[name], unit)
    print("trace overhead %.3f s on %.3f s untraced verdict_s"
          % (metrics["trace.overhead_s"], plain["verdict_s"]))
    return out


def per_layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes_read"):
        return "bytes"
    return "count"


# ----------------------------------------------------------------------


def run_workload(args, root):
    with open(GOLDEN, encoding="ascii") as fh:
        golden = json.load(fh)
    jobs = workload_jobs(args.workload, args.seed, args.smoke)
    gamma_key = None
    if args.workload in ("ideal-4x4", "ideal-4x4-warm"):
        order = ideal_order(args.seed, args.smoke)
        gamma_key = "%s %s" % ("3x3" if args.smoke else "4x4", order[0])
        print("workload %s seed %d gamma order %s"
              % (args.workload, args.seed, " ".join(order)))
    else:
        print("workload %s seed %d, %d steps" % (args.workload, args.seed,
                                                 len(jobs[0])))
    workdir = os.path.join(root, ".bench_work", "%s-%d" % (args.workload,
                                                           os.getpid()))
    os.makedirs(workdir)
    try:
        runner = Runner(root, workdir)
        tally = Tally(golden)
        cache_path = None
        if args.workload == "ideal-4x4-warm":
            # fill the cache: not timed, not part of setup_s
            for job in jobs:
                tally.steps(runner.run(job))
            cache_path = os.path.join(workdir, CACHE_NAME)
        # the set-up samples count against --seconds, the cache fill not
        deadline = time.monotonic() + args.seconds
        print("env %s" % json.dumps(environment(cache_path), sort_keys=True))
        if args.trace:
            metrics = traced(runner, tally, jobs[0], args.workload, gamma_key)
        else:
            metrics = measure(runner, tally, jobs, deadline,
                              2 if args.smoke else SETUP_SAMPLES)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for note in tally.notes[:20]:
        print("FAILED %s" % note)
    print("failed_frac %.6f (%d of %d operations)"
          % (tally.failed / tally.attempted, tally.failed, tally.attempted))
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every path on 3x3 '%s', in seconds" % SMOKE_GAMMA)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qdet", "__init__.py")):
        print("error: run from a qdet checkout (no src/qdet here)",
              file=sys.stderr)
        return 2
    try:
        result = run_workload(args, root)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
