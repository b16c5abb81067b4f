"""Workbench configuration, suite runner, JSON reports, and the CLI."""

import dataclasses
import hashlib
import io
import json
import os
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from qdet import cli
from qdet import suites as suites_mod
from qdet.errors import ConfigError, DegreeTooLarge
from qdet.minors import enumerate_minors, std_le
from qdet.suites import (SUITE_NAMES, SuiteReport, WorkbenchConfig,
                         emit_report, run_suite, run_workbench)

GAMMA_FREE = ("pbw", "laplace", "centrality", "minors", "counts")
GAMMA_BOUND = ("mfamily", "torus", "ore-tower", "gamma-normal",
               "factor-basis", "ctau", "theta")


def small_config(**overrides):
    """2x2 run over the corner minor; cheap enough for every suite."""
    params = dict(m=2, n=2, gamma=((1,), (1,)), max_degree=2)
    params.update(overrides)
    return WorkbenchConfig(**params)


@pytest.fixture(scope="module")
def full_run():
    return run_workbench(small_config())


class TestConfigValidation:

    def test_validate_returns_self(self):
        config = WorkbenchConfig(m=2, n=2)
        assert config.validate() is config

    @pytest.mark.parametrize("bad", [dict(m=0), dict(n=0), dict(m=-3),
                                     dict(m=2.0)])
    def test_shape_sides(self, bad):
        with pytest.raises(ConfigError, match="shape sides"):
            WorkbenchConfig(**dict(dict(m=2, n=2), **bad)).validate()

    def test_max_degree(self):
        with pytest.raises(ConfigError, match="max_degree"):
            WorkbenchConfig(m=2, n=2, max_degree=-1).validate()

    def test_unknown_suite(self):
        with pytest.raises(ConfigError, match="unknown suite 'bogus'"):
            WorkbenchConfig(m=2, n=2, suites=("pbw", "bogus")).validate()

    def test_gamma_needed_lists_sorted_names(self):
        with pytest.raises(ConfigError, match="suites ctau, torus need --gamma"):
            WorkbenchConfig(m=2, n=2, suites=("torus", "pbw", "ctau")).validate()

    def test_bad_gamma_indices(self):
        with pytest.raises(ConfigError, match="bad gamma"):
            WorkbenchConfig(m=2, n=2, gamma=((1,), (3,))).validate()

    def test_bad_gamma_shape_mismatch(self):
        with pytest.raises(ConfigError, match="bad gamma"):
            WorkbenchConfig(m=2, n=2, gamma=((1, 2), (1,))).validate()


class TestSuiteList:

    def test_all_without_gamma(self):
        config = WorkbenchConfig(m=2, n=2)
        assert config.suite_list() == list(GAMMA_FREE)

    def test_all_with_gamma(self):
        assert small_config().suite_list() == list(SUITE_NAMES)

    def test_canonical_order_and_dedup(self):
        config = WorkbenchConfig(m=2, n=2, gamma=((1,), (1,)),
                                 suites=("theta", "pbw", "minors", "pbw"))
        assert config.suite_list() == ["pbw", "minors", "theta"]

    def test_all_mixes_with_named(self):
        config = WorkbenchConfig(m=2, n=2, suites=("counts", "all"))
        assert config.suite_list() == list(GAMMA_FREE)

    def test_registry_is_complete(self):
        assert set(SUITE_NAMES) == set(GAMMA_FREE) | set(GAMMA_BOUND)
        assert set(suites_mod._SUITE_FUNCS) == set(SUITE_NAMES)

    def test_as_dict(self):
        config = WorkbenchConfig(
            m=3, n=3, gamma=((1, 3), (1, 2)), max_degree=4,
            suites=("torus",), cache="spans")
        # q_mode, q_values and jobs are fixed values kept for the layout
        assert list(config.as_dict().items()) == [
            ("m", 3), ("n", 3), ("gamma", "1,3|1,2"), ("max_degree", 4),
            ("suites", ["torus"]), ("q_mode", "exact"), ("q_values", []),
            ("cache", "spans"), ("jobs", 1),
        ]

    def test_config_fields(self):
        assert [f.name for f in dataclasses.fields(WorkbenchConfig)] == [
            "m", "n", "gamma", "max_degree", "suites", "cache"]

    def test_as_dict_without_gamma(self):
        assert WorkbenchConfig(m=2, n=2).as_dict()["gamma"] is None


class TestRunWorkbench:

    def test_every_suite_passes(self, full_run):
        passed, failed = full_run.counts()
        assert failed == 0
        assert full_run.ok
        assert passed > 50
        assert full_run.summary_line() == "pass %d / fail 0" % passed

    def test_suites_come_back_in_canonical_order(self, full_run):
        assert [s.name for s in full_run.suites] == list(SUITE_NAMES)

    def test_report_schema(self, full_run):
        report = full_run.as_dict()
        assert set(report) == {"version", "config", "suites", "summary"}
        assert report["version"] == 1
        assert report["config"] == {
            "m": 2, "n": 2, "gamma": "1|1", "max_degree": 2,
            "suites": list(SUITE_NAMES), "q_mode": "exact",
            "q_values": [], "cache": None, "jobs": 1,
        }
        total = 0
        for suite in report["suites"]:
            assert set(suite) == {"name", "params", "checks"}
            for check in suite["checks"]:
                assert set(check) == {"name", "status", "witness", "ms"}
                assert check["status"] in ("pass", "fail")
                assert check["ms"] is None
                total += 1
        passed, failed = full_run.counts()
        assert report["summary"] == {
            "pass": passed, "fail": failed,
            "line": "pass %d / fail %d" % (passed, failed)}
        assert total == passed + failed

    def test_emit_report_is_byte_deterministic(self, full_run):
        rerun = run_workbench(small_config())
        first, second = io.StringIO(), io.StringIO()
        emit_report(full_run, first)
        emit_report(rerun, second)
        assert first.getvalue() == second.getvalue()
        assert first.getvalue().endswith("\n")
        assert json.loads(first.getvalue()) == full_run.as_dict()

    def test_run_workbench_validates_first(self):
        with pytest.raises(ConfigError, match="shape sides"):
            run_workbench(WorkbenchConfig(m=0, n=2))

    def test_run_suite_rejects_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown suite"):
            run_suite("nope", small_config())

    def test_guard_error_names_the_suite(self):
        config = WorkbenchConfig(m=6, n=6, gamma=((1,), (1,)))
        with pytest.raises(DegreeTooLarge, match="suite mfamily"):
            run_suite("mfamily", config)

    def test_cache_directory_is_wired_through(self, tmp_path):
        from qdet import cache as disk
        from qdet.factor import spans_clear
        target = tmp_path / "spans"
        config = small_config(suites=("factor-basis",), max_degree=1,
                              cache=str(target))
        try:
            spans_clear()
            run = run_workbench(config)
            assert run.ok
            assert list(target.glob("*.json"))
        finally:
            disk.set_cache_dir(None)

    def test_run_without_cache_clears_an_earlier_directory(self, tmp_path):
        from qdet import cache as disk
        from qdet.factor import spans_clear
        target = tmp_path / "spans"
        try:
            spans_clear()
            run_workbench(small_config(suites=("factor-basis",), max_degree=1,
                                       cache=str(target)))
            assert disk.cache_dir() == str(target)
            written = sorted(target.glob("*.json"))
            spans_clear()
            run = run_workbench(small_config(suites=("factor-basis",),
                                             max_degree=2))
            assert run.ok
            assert disk.cache_dir() is None
            assert sorted(target.glob("*.json")) == written
        finally:
            disk.set_cache_dir(None)
            spans_clear()


def fake_suite(records):
    def func(config):
        rep = SuiteReport("pbw", {})
        for name, passed, witness in records:
            rep.add(name, passed, witness)
        return rep
    return func


class TestMinorsOrderChecks:
    """The minors suite tests std_le's order axioms from one N^2 table."""

    @staticmethod
    def order_statuses(config):
        rep = run_suite("minors", config)
        return {c.name: c.status for c in rep.checks
                if c.name.startswith("order ")}

    def test_standard_order_passes(self):
        assert self.order_statuses(WorkbenchConfig(m=3, n=3)) == {
            "order reflexive": "pass", "order antisymmetric": "pass",
            "order transitive": "pass"}

    def test_non_transitive_relation_fails(self, monkeypatch):
        config = WorkbenchConfig(m=3, n=3)
        pos = {mn: k for k, mn in enumerate(enumerate_minors(config.shape()))}
        # a <= a and a <= its successor only: a chain without its closure
        monkeypatch.setattr(suites_mod, "std_le",
                            lambda a, b: pos[b] - pos[a] in (0, 1))
        assert self.order_statuses(config) == {
            "order reflexive": "pass", "order antisymmetric": "pass",
            "order transitive": "fail"}

    def test_non_antisymmetric_relation_fails(self, monkeypatch):
        monkeypatch.setattr(suites_mod, "std_le", lambda a, b: True)
        assert self.order_statuses(WorkbenchConfig(m=3, n=3)) == {
            "order reflexive": "pass", "order antisymmetric": "fail",
            "order transitive": "pass"}

    def test_non_reflexive_relation_fails(self, monkeypatch):
        monkeypatch.setattr(suites_mod, "std_le", lambda a, b: False)
        assert self.order_statuses(WorkbenchConfig(m=3, n=3)) == {
            "order reflexive": "fail", "order antisymmetric": "pass",
            "order transitive": "pass"}

    def test_std_le_is_called_once_per_pair(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return std_le(a, b)

        monkeypatch.setattr(suites_mod, "std_le", counting)
        config = WorkbenchConfig(m=4, n=4)
        assert len(enumerate_minors(config.shape())) == 69
        self.order_statuses(config)
        assert len(calls) == 69 ** 2


class TestCLI:

    def test_compute_minor(self, capsys):
        rc = cli.main(["compute", "minor", "--m", "2", "--n", "2", "1,2|1,2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == "x[1,1]*x[2,2] - q*x[1,2]*x[2,1]\n"

    def test_compute_expr_normalizes(self, capsys):
        rc = cli.main(["compute", "expr", "--m", "2", "--n", "2",
                       "x[2,1]*x[1,2]"])
        assert rc == 0
        assert capsys.readouterr().out == "x[1,2]*x[2,1]\n"

    def test_compute_leading_minus(self, capsys):
        rc = cli.main(["compute", "expr", "--m", "2", "--n", "2", "-x"])
        assert rc == 2
        assert "required: text" in capsys.readouterr().err
        rc = cli.main(["compute", "expr", "--m", "2", "--n", "2", "--",
                       "-x[1,1]"])
        assert rc == 0
        assert capsys.readouterr().out == "-x[1,1]\n"

    def test_compute_syntax_error(self, capsys):
        rc = cli.main(["compute", "expr", "--m", "2", "--n", "2", "x[1,1] +"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("syntax error at position")

    def test_compute_bad_minor(self, capsys):
        rc = cli.main(["compute", "minor", "--m", "2", "--n", "2", "1,2|1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_compute_minor_size_guard(self, capsys):
        full = ",".join(map(str, range(1, 10)))
        rc = cli.main(["compute", "minor", "--m", "9", "--n", "9",
                       "%s|%s" % (full, full)])
        assert rc == 2
        assert "size-8 guard" in capsys.readouterr().err
        rc = cli.main(["compute", "expr", "--m", "9", "--n", "9",
                       "minor[%s|%s]" % (full, full)])
        assert rc == 2
        assert "size-8 guard" in capsys.readouterr().err

    def test_counts_pass_above_the_shape_guard(self, capsys):
        # 36 generators: the counts are closed formulas, no frame is guarded
        rc = cli.main(["verify", "--m", "6", "--n", "6", "--suites", "counts",
                       "--max-degree", "1"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1] == "pass 925 / fail 0"

    def test_counts_reach_high_degree(self, capsys):
        # a 1x1 chain has one factor per degree; enumeration is not recursive
        rc = cli.main(["verify", "--m", "1", "--n", "1", "--suites", "counts",
                       "--max-degree", "1200"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1] == "pass 1202 / fail 0"

    def test_verify_passes_and_writes_report(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        rc = cli.main(["verify", "--m", "2", "--n", "2",
                       "--suites", "pbw,counts", "--max-degree", "2",
                       "--report", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("suite pbw")
        assert lines[1].startswith("suite counts")
        assert "fail 0" in lines[0] and "fail 0" in lines[1]
        assert lines[2].startswith("pass ") and lines[2].endswith("/ fail 0")
        assert lines[3] == "report written to %s" % path
        text = path.read_text(encoding="ascii")
        assert text.endswith("\n")
        report = json.loads(text)
        assert report["version"] == 1
        assert report["config"]["suites"] == ["pbw", "counts"]
        assert report["summary"]["fail"] == 0

    def test_verify_unknown_suite(self, capsys):
        rc = cli.main(["verify", "--m", "2", "--n", "2",
                       "--suites", "pbw,zzz"])
        assert rc == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_verify_gamma_syntax_error(self, capsys):
        rc = cli.main(["verify", "--m", "2", "--n", "2", "--gamma", "1,2"])
        assert rc == 2
        assert "syntax error at position" in capsys.readouterr().err

    def test_verify_missing_gamma(self, capsys):
        rc = cli.main(["verify", "--m", "2", "--n", "2", "--suites", "torus"])
        assert rc == 2
        assert "need --gamma" in capsys.readouterr().err

    def test_verify_failure_exit_and_listing(self, capsys, monkeypatch):
        monkeypatch.setitem(suites_mod._SUITE_FUNCS, "pbw", fake_suite([
            ("claim one", False, "counterexample"),
            ("claim two", True, ""),
            ("claim three", False, ""),
        ]))
        rc = cli.main(["verify", "--m", "2", "--n", "2", "--suites", "pbw"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "suite pbw           pass 1 / fail 2" in out
        assert "  FAIL pbw: claim one (counterexample)" in out
        assert "  FAIL pbw: claim three" in out
        assert out.rstrip().endswith("pass 1 / fail 2")

    def test_verify_failure_listing_is_capped(self, capsys, monkeypatch):
        records = [("claim %d" % i, False, "") for i in range(30)]
        monkeypatch.setitem(suites_mod._SUITE_FUNCS, "pbw",
                            fake_suite(records))
        rc = cli.main(["verify", "--m", "2", "--n", "2", "--suites", "pbw"])
        assert rc == 1
        out = capsys.readouterr().out
        shown = [line for line in out.splitlines()
                 if line.startswith("  FAIL ")]
        assert len(shown) == cli.FAIL_PRINT_CAP
        assert "  ... 5 more failures" in out

    @pytest.mark.parametrize("flag", [["--jobs", "2"],
                                      ["--q-mode", "specialize"],
                                      ["--q-values", "2,1/3"]])
    def test_removed_flags_are_usage_errors(self, capsys, flag):
        rc = cli.main(["verify", "--m", "2", "--n", "2", "--suites", "pbw"]
                      + flag)
        assert rc == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-file"])
    def test_unusable_cache_path_runs_uncached(self, capsys, tmp_path, sub):
        from qdet import cache as disk
        from qdet.factor import spans_clear
        blocker = tmp_path / "FILE"
        blocker.write_text("not a directory")
        try:
            spans_clear()   # force a build, so the span is stored
            rc = cli.main(["verify", "--m", "2", "--n", "2", "--gamma", "1|1",
                           "--max-degree", "2", "--suites", "factor-basis",
                           "--cache", str(blocker / sub)])
        finally:
            disk.set_cache_dir(None)
            spans_clear()
        assert rc == 0
        assert capsys.readouterr().out.rstrip().endswith("/ fail 0")
        assert blocker.read_text() == "not a directory"

    @pytest.mark.parametrize("text", [
        "q^9999999999", "2^9999999999", "(x[1,1]+x[2,2])^1000",
        "(q+1)^999999", "x[1,1]^-9999999999", "((9^99)^99)^99", "2^1001",
        "x[1,1]^38"], ids=["q", "two", "sum", "scalar-sum", "negative",
                           "nested", "size-edge", "dimension-edge"])
    def test_compute_power_guard(self, capsys, text):
        start = time.perf_counter()
        rc = cli.main(["compute", "expr", "--m", "2", "--n", "2", text])
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: power ")
        assert "exceeds the guard 2000" in err or "above 10000" in err

    def test_compute_power_guard_holds_on_a_1x1_shape(self, capsys):
        # every component of O_q(M_1,1) has dimension 1: only the size
        # bound stops this power
        rc = cli.main(["compute", "expr", "--m", "1", "--n", "1",
                       "x[1,1]^9999999999"])
        assert rc == 2
        assert "exceeds the guard" in capsys.readouterr().err

    @pytest.mark.parametrize("text,want", [
        ("(x[1,1]+x[2,2])^2",
         "x[1,1]^2 + 2*x[1,1]*x[2,2] - (q - q^-1)*x[1,2]*x[2,1] + x[2,2]^2"),
        ("q^-3*x[1,1]", "q^-3*x[1,1]"),
        ("x[1,1]^3", "x[1,1]^3"),
        ("x[1,1]^37", "x[1,1]^37"),
        ("2^1000", str(2 ** 1000)),
    ], ids=["sum", "q-inverse", "cube", "dimension-edge", "size-edge"])
    def test_compute_powers_below_the_guard(self, capsys, text, want):
        rc = cli.main(["compute", "expr", "--m", "2", "--n", "2", text])
        assert rc == 0
        assert capsys.readouterr().out == want + "\n"

    def test_compute_oversized_literal_and_result(self, capsys):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no int string-length limit")
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)   # the default, whatever the env
        try:
            rc = cli.main(["compute", "expr", "--m", "2", "--n", "2",
                           "1" * 5000])
            assert rc == 2
            assert "integer literal too long" in capsys.readouterr().err
            # 9^4990 has 4762 digits
            rc = cli.main(["compute", "expr", "--m", "2", "--n", "2",
                           "*".join(["9^499"] * 10)])
            assert rc == 2
            assert "too large to print" in capsys.readouterr().err
        finally:
            sys.set_int_max_str_digits(saved)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(list("x[],0123456789 q+-*^/()")
                                    + ["minor"]), max_size=16)
           .map(lambda tokens: "".join(tokens)[:16]))
    def test_compute_expr_fuzz(self, text):
        # any text gives a result (0) or a reported error (2), never a
        # traceback
        rc = cli.main(["compute", "expr", "--m", "2", "--n", "2", text])
        assert rc in (0, 2)


GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                      "golden.json")


class TestGoldenReports:
    """Reports stay byte-identical to the digests recorded from the seed."""

    @pytest.mark.parametrize("args", [
        ["--m", "3", "--n", "3", "--gamma", "1,3|1,2", "--max-degree", "3"],
        ["--m", "3", "--n", "3", "--max-degree", "3"],
    ])
    def test_report_matches_the_seed_digest(self, args, tmp_path, capsys):
        with open(GOLDEN, encoding="ascii") as fh:
            want = json.load(fh)["digests"]["qdet verify " + " ".join(args)]
        report = tmp_path / "report.json"
        assert cli.main(["verify"] + args + ["--report", str(report)]) == 0
        capsys.readouterr()
        got = hashlib.sha256(report.read_bytes()).hexdigest()
        assert got == want["sha256"]
