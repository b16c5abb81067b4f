"""Record bench/golden.json from the code in this checkout.

    python3 bench/record_golden.py

Run once on the seed code: the digests are what every later benchmark run
is checked against, so re-recording them on changed code would hide a
changed verdict.  Records the sha256 of the JSON report (or `compute`
stdout) of every step any workload can generate, in smoke mode too, and
the seed's degree-4 ideal build (inserts, rank) for each gamma of the
pool.  Refuses to record a step that fails a check.
"""

import json
import os
import shutil
import sys

import run


def main():
    root = os.getcwd()
    workdir = os.path.join(root, ".bench_work", "record-%d" % os.getpid())
    os.makedirs(workdir)
    golden = {"digests": {}, "deg4_builds": {}}
    groups = []
    for smoke in (False, True):
        pool = [run.SMOKE_GAMMA] if smoke else run.GAMMA_POOL
        side = 3 if smoke else 4
        for gamma in pool:
            groups.append((run._cli(*run.ideal_argv(gamma, smoke)),
                           "%dx%d %s" % (side, side, gamma)))
            groups.append((run._cli(*run.ideal_argv(gamma, smoke, True)), None))
        for step in run.tower_steps(run._minors(side, side), smoke):
            groups.append((step, None))
        for step in run.algebra_steps(smoke):
            groups.append((step, None))
    try:
        runner = run.Runner(root, workdir)
        for step, gamma_key in groups:
            result = runner.run([step], trace=gamma_key is not None)
            rec = result["steps"][0]
            if rec["exit"] != 0 or rec["failed_checks"]:
                sys.exit("refusing to record a failing step: %s" % step["key"])
            golden["digests"][step["key"]] = {"sha256": rec["sha256"],
                                              "checks": rec["checks"]}
            if gamma_key is not None:
                m = result["trace"]["metrics"]
                golden["deg4_builds"][gamma_key] = {
                    "inserts": m["factor.deg4_build.inserts"],
                    "rank": m["factor.deg4_build.rank"]}
            print(step["key"], rec["checks"], rec["sha256"][:12], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.GOLDEN, "w", encoding="ascii") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
