"""Tests of the benchmark itself, on its smoke mode (3x3, seconds).

    python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

ROOT = os.path.dirname(run.BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py")]
                          + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_what_run_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == run.PER_LAYER
    for m in SPEC["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])


def test_inputs_follow_the_seed():
    for workload in run.WORKLOADS:
        assert (run.workload_jobs(workload, 7)
                == run.workload_jobs(workload, 7))
    orders = {tuple(s["key"] for s in
                    run.workload_jobs("tower-sweep-4x4", seed)[0])
              for seed in range(5)}
    assert len(orders) > 1
    assert len(next(iter(orders))) == 69
    firsts = {run.ideal_order(seed)[0] for seed in range(20)}
    assert firsts == set(run.GAMMA_POOL)
    for seed in range(5):
        assert sorted(run.ideal_order(seed)) == sorted(run.GAMMA_POOL)


def test_golden_covers_every_generated_step():
    with open(run.GOLDEN, encoding="ascii") as fh:
        golden = json.load(fh)
    for smoke in (False, True):
        for workload in run.WORKLOADS:
            for seed in range(10):
                for job in run.workload_jobs(workload, seed, smoke):
                    for step in job:
                        assert step["key"] in golden["digests"]
    # the seed's degree-4 build of the ROADMAP Baseline
    assert golden["deg4_builds"]["4x4 2,4|1,3"] == {"inserts": 17153,
                                                    "rank": 2994}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_is_correct(workload):
    result = result_of(bench("--workload", workload, "--smoke",
                             "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in SPEC["end_to_end"])
    for metric in result["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", ["ideal-4x4", "algebra-5x5"])
def test_smoke_trace_counts(workload):
    proc = bench("--workload", workload, "--smoke", "--trace", "1")
    result = result_of(proc)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    if workload == "ideal-4x4":
        assert metrics["factor.deg4_build.rank"] == 117
        assert metrics["factor.deg4_build.inserts"] == 450
        assert metrics["linalg.echelon_insert.calls"] > 0
        assert metrics["suites.ctau.s"] > 0
    else:
        assert metrics["linalg.echelon_insert.calls"] == 0
        assert metrics["factor.ideal_component.calls"] == 0
        assert metrics["minors.std_le.calls"] > 0
    assert "selfcheck" in proc.stdout


def test_a_changed_report_counts_as_failed(tmp_path):
    """A checkout whose verdict differs from the seed's is not correct."""
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    suites = tmp_path / "src" / "qdet" / "suites.py"
    text = suites.read_text()
    suites.write_text(text.replace('rep.add("poset size", True,',
                                   'rep.add("poset size!", True,'))
    result = result_of(bench("--workload", "algebra-5x5", "--smoke",
                             "--seconds", "1", cwd=tmp_path))
    assert not result["correct"]
    assert result["failed"] >= 1


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "ideal-4x4", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "bench"]
