"""One benchmark iteration, run as a fresh interpreter by bench/run.py.

    python3 bench/child.py JOB.json RESULT.json

JOB.json holds the generated steps of one workload (see run.py).  The
child imports qdet, parses and validates every step's config (set-up),
then runs the steps (verdict) and writes RESULT.json:

    {"setup_end": <time.monotonic() when set-up finished>,
     "verdict_s": ..., "peak_rss_mb": ...,
     "steps": [{"key": ..., "exit": ..., "sha256": ..., "checks": ...,
                "failed_checks": ...}, ...],
     "trace": {...} | null}

With "setup_only" set in the job it stops after set-up.  With "trace"
set it wraps qdet's layers from outside (see tracer.py) before running.
"""

import sys
import time


def _setup(job):
    """Import qdet and parse + validate every step's config."""
    import dataclasses

    from qdet import cli, suites
    from qdet.parser import parse_index_pair

    fields = {f.name for f in dataclasses.fields(suites.WorkbenchConfig)}

    def config(gamma, **kw):
        kw["suites"] = tuple(s.strip() for s in kw["suites"].split(",")
                             if s.strip())
        kw["gamma"] = None if gamma is None else parse_index_pair(gamma)
        # only the fields this version of WorkbenchConfig still has
        kw = {k: v for k, v in kw.items() if k in fields}
        return suites.WorkbenchConfig(**kw).validate()

    parser = cli.build_parser()
    prepared = []
    for step in job["steps"]:
        if step["kind"] == "cli":
            args = parser.parse_args(step["argv"])
            if args.command == "verify":
                config(m=args.m, n=args.n, gamma=args.gamma,
                       max_degree=args.max_degree, suites=args.suites,
                       cache=args.cache)
            elif args.command == "compute" and args.what == "minor":
                parse_index_pair(args.text)
            prepared.append(step)
        else:
            prepared.append(dict(step, config_obj=config(**step["config"])))
    return prepared


def _summary(report_bytes):
    import json
    summary = json.loads(report_bytes)["summary"]
    return summary["pass"] + summary["fail"], summary["fail"]


def _run_step(step, index):
    """Run one step; returns (seconds, record).  Only qdet work is timed."""
    import contextlib
    import hashlib
    import io
    import os

    from qdet import cli, suites

    out = io.StringIO()
    if step["kind"] == "cli":
        argv = list(step["argv"])
        report = None
        if argv[0] == "verify":
            report = "report-%d.json" % index
            argv += ["--report", report]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        elapsed = time.perf_counter() - t0
        if report is None:
            payload = out.getvalue().encode()
            checks, failed = 0, 0
        elif os.path.exists(report):
            with open(report, "rb") as fh:
                payload = fh.read()
            os.unlink(report)
            checks, failed = _summary(payload)
        else:   # no report: a config error; the digest will not match
            payload, checks, failed = b"", 0, 0
    else:
        t0 = time.perf_counter()
        run = suites.run_workbench(step["config_obj"])
        suites.emit_report(run, out)
        elapsed = time.perf_counter() - t0
        payload = out.getvalue().encode()
        checks, failed = _summary(payload)
        code = 1 if failed else 0
    return elapsed, {"key": step["key"], "exit": code,
                     "sha256": hashlib.sha256(payload).hexdigest(),
                     "checks": checks, "failed_checks": failed}


def main(job_path, result_path):
    import json

    with open(job_path, encoding="ascii") as fh:
        job = json.load(fh)
    tracer = None
    if job.get("trace"):
        import layertrace   # beside this file, so on sys.path[0]
        tracer = layertrace.Tracer()
    steps = _setup(job)
    setup_end = time.monotonic()
    result = {"setup_end": setup_end, "verdict_s": None, "steps": [],
              "trace": None}
    if not job.get("setup_only"):
        if tracer is not None:
            tracer.install()
        verdict = 0.0
        for i, step in enumerate(steps):
            seconds, record = _run_step(step, i)
            verdict += seconds
            result["steps"].append(record)
        result["verdict_s"] = verdict
        if tracer is not None:
            result["trace"] = tracer.report()
    import resource
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
