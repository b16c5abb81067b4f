"""Workbench configuration, suite runner, JSON reports, and the CLI."""

import ast
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

import qdet
from qdet import cache as disk
from qdet import algebra, cli, factor
from qdet import parser as parser_mod
from qdet import tower as tower_mod
from qdet import minors as minors_mod
from qdet import suites as suites_mod
from qdet.algebra import (DIM_GUARD, MatrixShape, NCPoly, normal_form,
                          render_poly)
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

    def test_empty_gamma(self):
        with pytest.raises(ConfigError, match="bad gamma: the minor is empty"):
            WorkbenchConfig(m=2, n=2, gamma=((), ()),
                            suites=("pbw",)).validate()


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

    def test_run_workbench_refuses_no_suite(self):
        with pytest.raises(ConfigError, match="no suite requested"):
            run_workbench(WorkbenchConfig(m=2, n=2, suites=()))

    def test_spans_live_for_one_run(self, tmp_path):
        """A run starts with no span of an earlier run: after 3x3 1,3|1,2
        and then 4x4 2,4|1,3 in one process, only the second run's spans
        (gamma' 1,3|1,3 on 3x4) are held, and its report is the one a
        fresh process writes."""
        run_workbench(WorkbenchConfig(m=3, n=3, gamma=((1, 3), (1, 2))))
        out = io.StringIO()
        emit_report(run_workbench(
            WorkbenchConfig(m=4, n=4, gamma=((2, 4), (1, 3)))), out)
        assert {key[:4] for key in factor._ECHELONS} == {
            (3, 4, (1, 3), (1, 3))}
        path = tmp_path / "fresh.json"
        src = os.path.dirname(os.path.dirname(os.path.abspath(qdet.__file__)))
        subprocess.run([sys.executable, "-m", "qdet.cli", "verify", "--m", "4",
                        "--n", "4", "--gamma", "2,4|1,3", "--report",
                        str(path)], check=True, capture_output=True,
                       env={**os.environ, "PYTHONPATH": src})
        assert path.read_text(encoding="ascii") == out.getvalue()

    def test_run_suite_rejects_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown suite"):
            run_suite("nope", small_config())

    def test_guard_error_names_the_suite(self):
        config = WorkbenchConfig(m=6, n=6, gamma=((1,), (1,)))
        with pytest.raises(DegreeTooLarge, match="suite mfamily"):
            run_suite("mfamily", config)

    def test_cache_directory_is_wired_through(self, tmp_path):
        target = tmp_path / "spans"
        config = small_config(suites=("factor-basis",), max_degree=1,
                              cache=str(target))
        try:
            run = run_workbench(config)
            assert run.ok
            assert list(target.glob("*.json"))
        finally:
            disk.set_cache_dir(None)

    def test_run_without_cache_clears_an_earlier_directory(self, tmp_path):
        target = tmp_path / "spans"
        try:
            run_workbench(small_config(suites=("factor-basis",), max_degree=1,
                                       cache=str(target)))
            assert disk.cache_dir() == str(target)
            written = sorted(target.glob("*.json"))
            run = run_workbench(small_config(suites=("factor-basis",),
                                             max_degree=2))
            assert run.ok
            assert disk.cache_dir() is None
            assert sorted(target.glob("*.json")) == written
        finally:
            disk.set_cache_dir(None)


def fake_suite(records):
    """A suite-table entry for pbw whose report holds these records."""
    def func(config):
        rep = SuiteReport("pbw", {})
        for name, passed, witness in records:
            rep.add(name, passed, witness)
        return rep
    return False, func


class TestMinorsOrderChecks:
    """The minors suite tests std_le's order axioms from one N^2 table.

    The table is minors.std_le_masks, memoised per shape, so each test
    clears it before and after patching the std_le it is built from.
    """

    @pytest.fixture(autouse=True)
    def fresh_table(self):
        minors_mod.std_le_masks.cache_clear()
        yield
        minors_mod.std_le_masks.cache_clear()

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
        monkeypatch.setattr(minors_mod, "std_le",
                            lambda a, b: pos[b] - pos[a] in (0, 1))
        assert self.order_statuses(config) == {
            "order reflexive": "pass", "order antisymmetric": "pass",
            "order transitive": "fail"}

    def test_non_antisymmetric_relation_fails(self, monkeypatch):
        monkeypatch.setattr(minors_mod, "std_le", lambda a, b: True)
        assert self.order_statuses(WorkbenchConfig(m=3, n=3)) == {
            "order reflexive": "pass", "order antisymmetric": "fail",
            "order transitive": "pass"}

    def test_non_reflexive_relation_fails(self, monkeypatch):
        monkeypatch.setattr(minors_mod, "std_le", lambda a, b: False)
        assert self.order_statuses(WorkbenchConfig(m=3, n=3)) == {
            "order reflexive": "fail", "order antisymmetric": "pass",
            "order transitive": "pass"}

    def test_std_le_is_called_once_per_pair(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return std_le(a, b)

        monkeypatch.setattr(minors_mod, "std_le", counting)
        config = WorkbenchConfig(m=4, n=4)
        assert len(enumerate_minors(config.shape())) == 69
        self.order_statuses(config)
        assert len(calls) == 69 ** 2


class TestPbwAssociativity:
    """pbw compares (u*v)*w with u*(v*w) on every generator triple."""

    def test_one_broken_triple_is_one_failure(self, monkeypatch):
        shape = MatrixShape(2, 3)
        x = lambda i, j: NCPoly.generator(shape, i, j)
        # x[1,2]^2 is only ever a left factor in the triple x[1,2] x[1,2] x[2,1]
        left, right = x(1, 2) * x(1, 2), x(2, 1)
        real = NCPoly.__mul__

        def broken(a, b):
            out = real(a, b)
            if isinstance(b, NCPoly) and a == left and b == right:
                return out + out
            return out

        monkeypatch.setattr(NCPoly, "__mul__", broken)
        rep = run_suite("pbw", WorkbenchConfig(m=2, n=3))
        check, = [c for c in rep.checks
                  if c.name == "associativity on generator triples"]
        assert (check.status, check.witness) == ("fail",
                                                 "216 triples, 1 failures")

    @pytest.mark.parametrize("m, n, triples, checks",
                             [(6, 6, 46656, 635), (6, 7, 74088, 866)])
    def test_passes_below_the_triple_guard(self, m, n, triples, checks):
        assert triples <= suites_mod.PBW_TRIPLE_GUARD
        rep = run_suite("pbw", WorkbenchConfig(m=m, n=n))
        assert rep.passed and len(rep.checks) == checks
        check, = [c for c in rep.checks
                  if c.name == "associativity on generator triples"]
        assert check.witness == "%d triples, 0 failures" % triples

    def test_triples_are_guarded_before_any_product(self, capsys,
                                                    monkeypatch):
        # 7x7 has 117649 triples; the guard refuses before any product
        def refuse(*args):
            raise AssertionError("product formed")

        monkeypatch.setattr(NCPoly, "__mul__", refuse)
        start = time.perf_counter()
        rc = cli.main(["verify", "--m", "7", "--n", "7", "--suites", "pbw"])
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        assert capsys.readouterr().err.strip() == (
            "error: suite pbw: 7x7 has 117649 generator triples "
            "(guard 100000)")


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

    @pytest.mark.parametrize("argv", [
        ["minor", "--m", "300", "--n", "300", "1,2,3,4,5|1,2,3,4,5"],
        ["expr", "--m", "300", "--n", "300", "minor[1,2,3,4,5|1,2,3,4,5]"],
    ], ids=["minor", "expr"])
    def test_compute_refuses_wide_terms_before_any_expansion(
            self, capsys, monkeypatch, argv):
        # 5! terms of 90000 entries each pass 10^7; size 4 (2160000) runs
        def expanded(*args):
            raise AssertionError("minor expanded")

        monkeypatch.setattr(minors_mod, "_minor_value_cached", expanded)
        start = time.perf_counter()
        rc = cli.main(["compute"] + argv)
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: 120 terms on 300x300 hold 10800000 exponent entries "
            "(guard 10000000)\n")

    def test_compute_entry_guard_counts_atoms_and_products(self, capsys,
                                                           monkeypatch):
        # on 2x2 a term holds 4 entries: a guard of 40 lets ten letters
        # through and refuses the eleventh before it is formed
        monkeypatch.setattr(parser_mod, "ENTRY_GUARD", 40)
        formed = []
        real = NCPoly.generator.__func__

        def counting(cls, shape, i, j):
            formed.append((i, j))
            return real(cls, shape, i, j)

        monkeypatch.setattr(NCPoly, "generator", classmethod(counting))
        ten = "+".join((["x[1,1]", "x[1,2]", "x[2,1]", "x[2,2]"] * 3)[:10])
        assert cli.main(["compute", "expr", "--m", "2", "--n", "2",
                         ten]) == 0
        capsys.readouterr()
        formed.clear()
        assert cli.main(["compute", "expr", "--m", "2", "--n", "2",
                         ten + "+x[1,1]"]) == 2
        assert len(formed) == 10
        assert capsys.readouterr().err == (
            "error: 11 terms on 2x2 hold 44 exponent entries (guard 40)\n")
        # two letters and a two-term product: 16 entries
        assert cli.main(["compute", "expr", "--m", "2", "--n", "2",
                         "x[2,2]*x[1,1]"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(parser_mod, "ENTRY_GUARD", 15)
        assert cli.main(["compute", "expr", "--m", "2", "--n", "2",
                         "x[2,2]*x[1,1]"]) == 2
        assert "4 terms on 2x2 hold 16" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, head", [
        (["--m", "7", "--n", "7", "1,2,3,4,5,6,7|1,2,3,4,5,6,7"],
         "x[1,1]*x[2,2]*x[3,3]*x[4,4]*x[5,5]*x[6,6]*x[7,7] "),
        (["--m", "1", "--n", "3000000", "1|1"], "x[1,1]\n"),
    ], ids=["7x7-determinant", "1x3000000"])
    def test_compute_minor_under_the_entry_guard(self, capsys, argv, head):
        assert cli.main(["compute", "minor"] + argv) == 0
        assert capsys.readouterr().out.startswith(head)

    def test_counts_pass_above_the_shape_guard(self, capsys):
        # 36 generators: the counts are closed formulas, no frame is guarded
        rc = cli.main(["verify", "--m", "6", "--n", "6", "--suites", "counts",
                       "--max-degree", "1"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1] == "pass 925 / fail 0"

    @pytest.mark.parametrize("suite", ["laplace", "centrality", "minors"])
    def test_shape_suites_refuse_before_any_work(self, suite, capsys,
                                                 monkeypatch):
        # 9x9 has 81^3 generator triples, above the pbw bound they share
        def refuse(*args, **kwargs):
            raise AssertionError("work before the shape guard")

        for name in ("enumerate_minors", "laplace_relation",
                     "laplace_row_relation", "minor_value",
                     "quantum_determinant"):
            monkeypatch.setattr(suites_mod, name, refuse)
        monkeypatch.setattr(NCPoly, "__mul__", refuse)
        start = time.perf_counter()
        rc = cli.main(["verify", "--m", "9", "--n", "9", "--suites", suite,
                       "--max-degree", "1"])
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: suite %s: 9x9 has 531441 generator triples "
            "(guard 100000)\n" % suite)

    @pytest.mark.parametrize("m, degree, pool, steps", [
        (9, 1, 48619, 2363807161), (2, 10 ** 7, 5, 25 * 10 ** 7)],
        ids=["9x9-degree-1", "2x2-degree-1e7"])
    def test_counts_refuse_before_any_work(self, m, degree, pool, steps,
                                           capsys, monkeypatch):
        # pool^2 * max_degree steps, the pool counted as C(m + n, m) - 1
        def refuse(*args, **kwargs):
            raise AssertionError("work before the counts guard")

        monkeypatch.setattr(suites_mod, "enumerate_minors", refuse)
        monkeypatch.setattr(suites_mod, "standard_monomial_counts", refuse)
        start = time.perf_counter()
        rc = cli.main(["verify", "--m", str(m), "--n", str(m), "--suites",
                       "counts", "--max-degree", str(degree)])
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: suite counts: %dx%d has %d minors: %d counting steps "
            "(guard 10000000)\n" % (m, m, pool, steps))

    @pytest.mark.parametrize("side", [20000, 10 ** 6])
    def test_counts_refuse_a_huge_shape_at_once(self, side, capsys):
        # C(2 * side, side) is never formed in full, nor printed
        start = time.perf_counter()
        rc = cli.main(["verify", "--m", str(side), "--n", str(side),
                       "--suites", "counts", "--max-degree", "1"])
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: suite counts: %dx%d has more than 10000000 minors\n"
            % (side, side))

    def test_ctau_refuses_before_listing_the_minors(self, capsys,
                                                    monkeypatch):
        # 14x14 has 40116599 minors, counted by formula
        def refuse(*args):
            raise AssertionError("minors listed before the ctau guard")

        real = minors_mod._enumerate_minors_cached
        monkeypatch.setattr(minors_mod, "_enumerate_minors_cached", refuse)
        start = time.perf_counter()
        rc = cli.main(["verify", "--m", "14", "--n", "14", "--gamma", "1|1",
                       "--suites", "ctau"])
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: suite ctau: 14x14 has more than 100000 minors\n")
        monkeypatch.setattr(minors_mod, "_enumerate_minors_cached", real)
        for m, n, checks in ((6, 6, 36), (1, 40, 40)):
            rc = cli.main(["verify", "--m", str(m), "--n", str(n),
                           "--gamma", "1|1", "--suites", "ctau"])
            assert rc == 0
            assert capsys.readouterr().out.splitlines()[-1] == (
                "pass %d / fail 0" % checks)

    @pytest.mark.parametrize("gamma, rc", [("1|1", 2), ("1,2|1,2", 0)])
    def test_ore_tower_sums_a_bounded_series(self, gamma, rc, capsys,
                                             monkeypatch):
        # the coefficients never decrease, so degree 10^4 decides any
        # higher one; the full determinant has no member and no series
        real = tower_mod.stage_series_dims

        def bounded(weights, dmax):
            assert dmax <= DIM_GUARD, "series summed to degree %d" % dmax
            return real(weights, dmax)

        monkeypatch.setattr(tower_mod, "stage_series_dims", bounded)
        start = time.perf_counter()
        got = cli.main(["verify", "--m", "2", "--n", "2", "--gamma", gamma,
                        "--suites", "ore-tower", "--max-degree",
                        str(10 ** 9)])
        assert time.perf_counter() - start < 1.0
        assert got == rc
        out, err = capsys.readouterr()
        if rc:
            assert err == (
                "error: suite ore-tower: the tower of minor[1|1] has "
                "50015001 ordered products in one degree up to 1000000000 "
                "(guard 10000)\n")
        else:
            assert out.splitlines()[-1] == "pass 1 / fail 0"

    def test_compute_refuses_a_wide_product_before_any_table(self, capsys):
        # 45x45 needs 1069200 table entries, 44x44 978164
        start = time.perf_counter()
        rc = cli.main(["compute", "expr", "--m", "45", "--n", "45",
                       "x[1,1]*x[2,2]"])
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: a product on 45x45 needs a table of 1069200 entries "
            "(guard 1000000)\n")
        for memo in (algebra._MONO_GEN, algebra._CONCAT):
            assert (45, 45) not in memo.tables
        assert (45, 45) not in algebra._LINES
        rc = cli.main(["compute", "expr", "--m", "8", "--n", "8",
                       "x[8,8]*x[1,1]*x[2,2]"])
        assert rc == 0
        want = normal_form(MatrixShape(8, 8), [(8, 8), (1, 1), (2, 2)])
        assert capsys.readouterr().out == render_poly(want) + "\n"

    def test_counts_enumerate_no_standard_monomial(self, capsys,
                                                    monkeypatch):
        # the counts come from the shared order masks; no chain is built
        def refuse(*args):
            raise AssertionError("standard monomials enumerated")

        monkeypatch.setattr(factor, "standard_monomials", refuse)
        rc = cli.main(["verify", "--m", "2", "--n", "2", "--suites", "counts",
                       "--max-degree", "40"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1] == "pass 46 / fail 0"

    def test_counts_reach_high_degree(self, capsys):
        # a 1x1 chain has one factor per degree; enumeration is not recursive
        rc = cli.main(["verify", "--m", "1", "--n", "1", "--suites", "counts",
                       "--max-degree", "1200"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1] == "pass 1202 / fail 0"

    def test_zero_divisor_pairs_are_guarded(self, capsys):
        # a 1x1 chain has one standard monomial per degree, so degree 142
        # has 141*142/2 = 10011 pairs, just above DIM_GUARD
        rc = cli.main(["verify", "--m", "1", "--n", "1", "--gamma", "1|1",
                       "--suites", "factor-basis", "--max-degree", "142"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: suite factor-basis: zero-divisor check of "
                       "minor[1|1] through degree 142 has 10011 pairs "
                       "(guard 10000)\n")

    def test_zero_divisor_pairs_are_guarded_first(self, capsys, monkeypatch):
        # the basis and Hilbert checks would otherwise run through degree 400
        def refused(*args):
            raise AssertionError("a check ran before the pair guard")

        monkeypatch.setattr(suites_mod, "basis_check", refused)
        monkeypatch.setattr(suites_mod, "hilbert_check", refused)
        rc = cli.main(["verify", "--m", "1", "--n", "1", "--gamma", "1|1",
                       "--suites", "factor-basis", "--max-degree", "400"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: suite factor-basis: zero-divisor check of minor[1|1] "
            "through degree 400 has 79800 pairs (guard 10000)\n")

    def test_zero_divisor_pairs_are_counted_not_enumerated(self, capsys,
                                                          monkeypatch):
        def refused(*args):
            raise AssertionError("standard monomials enumerated")

        monkeypatch.setattr(factor, "standard_monomials", refused)
        rc = cli.main(["verify", "--m", "1", "--n", "1", "--gamma", "1|1",
                       "--suites", "factor-basis", "--max-degree", "1200"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: suite factor-basis: zero-divisor check of minor[1|1] "
            "through degree 1200 has 719400 pairs (guard 10000)\n")

    @pytest.mark.parametrize("gamma", ["2,3,4|2,3,4", "1,2,3|1,2,3"])
    def test_ctau_guard_reads_the_ambient_component(self, capsys, gamma):
        # 2,3,4|2,3,4 is built on 3x3, but the guard reads 4x4's dimension
        rc = cli.main(["verify", "--m", "4", "--n", "4", "--gamma", gamma,
                       "--suites", "ctau"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: suite ctau: degree-5 component of 4x4 has dimension "
            "15504 (guard 10000)\n")

    def test_component_guard_precedes_enumeration(self, capsys, monkeypatch):
        # the message the degree-4 basis check raised when it came first
        def refused(*args):
            raise AssertionError("work before the component guard")

        monkeypatch.setattr(suites_mod, "basis_check", refused)
        monkeypatch.setattr(factor, "standard_monomials", refused)
        rc = cli.main(["verify", "--m", "5", "--n", "5", "--gamma", "1|1",
                       "--suites", "factor-basis", "--max-degree", "6"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: suite factor-basis: degree-4 component of 5x5 has "
            "dimension 20475 (guard 10000)\n")

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

    def test_verify_empty_gamma_runs_nothing(self, capsys, monkeypatch):
        monkeypatch.setitem(suites_mod._SUITES, "pbw", fake_suite([
            ("must not run", False, "")]))
        rc = cli.main(["verify", "--m", "2", "--n", "2", "--gamma", "|"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: bad gamma: the minor is empty\n"

    @pytest.mark.parametrize("where", ["dir", "missing/out.json", None],
                             ids=["directory", "below-missing-directory",
                                  "empty"])
    def test_unwritable_report_path(self, capsys, monkeypatch, tmp_path,
                                    where):
        monkeypatch.setitem(suites_mod._SUITES, "pbw", fake_suite([
            ("must not run", False, "")]))
        (tmp_path / "dir").mkdir()
        path = "" if where is None else str(tmp_path / where)
        rc = cli.main(["verify", "--m", "2", "--n", "2", "--suites", "pbw",
                       "--report", path])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write the report to %s:" % path)
        assert err.count("\n") == 1
        assert not os.path.exists(tmp_path / "missing")

    def test_report_write_failure_is_a_config_error(self, capsys,
                                                    monkeypatch, tmp_path):
        def refuse(run, fh):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli, "emit_report", refuse)
        path = str(tmp_path / "out.json")
        rc = cli.main(["verify", "--m", "2", "--n", "2", "--suites", "pbw",
                       "--max-degree", "1", "--report", path])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: cannot write the report to %s: Permission denied\n" % path)

    def test_verify_missing_gamma(self, capsys):
        rc = cli.main(["verify", "--m", "2", "--n", "2", "--suites", "torus"])
        assert rc == 2
        assert "need --gamma" in capsys.readouterr().err

    def test_verify_failure_exit_and_listing(self, capsys, monkeypatch):
        monkeypatch.setitem(suites_mod._SUITES, "pbw", fake_suite([
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
        monkeypatch.setitem(suites_mod._SUITES, "pbw",
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

    @pytest.mark.parametrize("suites", ["", ",", " , "])
    def test_verify_refuses_an_empty_suite_list(self, capsys, suites):
        rc = cli.main(["verify", "--m", "2", "--n", "2", "--suites", suites])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: no suite requested (known: pbw, ")

    @pytest.mark.parametrize("depth", [parser_mod.NESTING_GUARD + 1, 10 ** 4])
    def test_compute_refuses_deep_nesting(self, capsys, depth):
        text = "(" * depth + "1" + ")" * depth
        rc = cli.main(["compute", "expr", "--m", "2", "--n", "2", text])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "syntax error at position %d: parentheses nested deeper than "
            "%d (at position %d)\n" % ((parser_mod.NESTING_GUARD,) * 3))

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-file"])
    def test_unusable_cache_path_runs_uncached(self, capsys, tmp_path, sub):
        blocker = tmp_path / "FILE"
        blocker.write_text("not a directory")
        try:
            rc = cli.main(["verify", "--m", "2", "--n", "2", "--gamma", "1|1",
                           "--max-degree", "2", "--suites", "factor-basis",
                           "--cache", str(blocker / sub)])
        finally:
            disk.set_cache_dir(None)
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

    @pytest.mark.parametrize("text", [
        "(x[1,1]+x[1,2])^200",
        "(x[1,1]+x[1,2])^40*(x[1,1]+x[1,2])^40"], ids=["power", "product"])
    def test_compute_term_budget(self, capsys, text):
        # both pass the power guards; the coefficients of the power grow
        # about k^3/6 Laurent terms, and each factor of the product is
        # within the budget while the product is not
        start = time.perf_counter()
        rc = cli.main(["compute", "expr", "--m", "1", "--n", "2", text])
        assert time.perf_counter() - start < 2.0
        assert rc == 2
        assert "more than 1000000 Laurent terms" in capsys.readouterr().err
        rc = cli.main(["compute", "expr", "--m", "1", "--n", "2",
                       "(x[1,1]+x[1,2])^40"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("x[1,1]^40 + (1 + q^-1")

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

    @pytest.mark.parametrize("text,want", [
        ("q^-2*(2/3)*x[1,1]^2 + 1/2*x[1,2] - (2*q^3)^-2",
         "2/3*q^-2*x[1,1]^2 + 1/2*x[1,2] - 1/4*q^-6"),
        ("(1/2*q + 1/3)*x[1,1] - 6/4", "(1/2*q + 1/3)*x[1,1] - 3/2"),
        ("(2*q)^-1*x[2,2]*x[1,1]",
         "1/2*q^-1*x[1,1]*x[2,2] - (1/2 - 1/2*q^-2)*x[1,2]*x[2,1]"),
        ("(1/3 + q)^3", "(q^3 + q^2 + 1/3*q + 1/27)"),
        ("(2/3*q)^-2", "9/4*q^-2"),
        ("(-2*q^3)^-1", "-1/2*q^-3"),
        ("0*x[1,1] + 1/3 - 1/3", "0"),
    ], ids=["mixed", "sum-of-fractions", "inverse", "cube", "inverse-square",
            "negative-inverse", "cancel"])
    def test_compute_rational_expressions(self, capsys, text, want):
        rc = cli.main(["compute", "expr", "--m", "2", "--n", "2", text])
        assert rc == 0
        assert capsys.readouterr().out == want + "\n"

    def test_compute_rational_guards(self, capsys):
        rc = cli.main(["compute", "expr", "--m", "2", "--n", "2", "(1/2)^1000"])
        assert rc == 0
        assert capsys.readouterr().out == "1/%d\n" % 2 ** 1000
        rc = cli.main(["compute", "expr", "--m", "2", "--n", "2", "(1/2)^1001"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: power 1001 of a base with coefficients of size 2 "
            "exceeds the guard 2000\n")
        rc = cli.main(["compute", "expr", "--m", "2", "--n", "2", "1/0"])
        assert rc == 2
        assert "zero denominator" in capsys.readouterr().err
        # the size of 1/2*q + 1/3 is that of 1/2 and 1/3 (2 bits) plus its
        # q-span, not that of 3/6 and 2/6 over the common denominator
        rc = cli.main(["compute", "expr", "--m", "1", "--n", "1",
                       "(1/2*q + 1/3)^667"])
        assert rc == 2
        assert "coefficients of size 3 exceeds" in capsys.readouterr().err

    def test_cli_import_leaves_out_fractions_and_decimal(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(qdet.__file__)))
        code = ("import sys, qdet.cli; "
                "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout == "[]\n"

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
            # and so has the denominator 9^4990
            rc = cli.main(["compute", "expr", "--m", "2", "--n", "2",
                           "*".join(["(1/9)^499"] * 10)])
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

    @settings(max_examples=200, deadline=None)
    @given(shape=st.tuples(st.integers(0, 3), st.integers(0, 3)),
           gamma=st.none() | st.sampled_from(["1|1", "1,2|2,3", "1,3|1,2"])
           | st.text("0123,|- x", max_size=8),
           max_degree=st.integers(-1, 2),
           suites=st.lists(st.sampled_from(SUITE_NAMES
                                           + ("all", "zzz", "", " pbw")),
                           max_size=3).map(",".join),
           report=st.sampled_from([None, "", "out.json", "dir",
                                   "dir/out.json", "missing/out.json"]))
    def test_verify_flags_fuzz(self, shape, gamma, max_degree, suites,
                               report):
        # any flags give a verdict (0 or 1) or a reported error (2), never
        # a traceback
        argv = ["verify", "--m", str(shape[0]), "--n", str(shape[1]),
                "--max-degree", str(max_degree), "--suites", suites]
        if gamma is not None:
            argv += ["--gamma", gamma]
        with tempfile.TemporaryDirectory() as tmp:
            os.mkdir(os.path.join(tmp, "dir"))
            if report is not None:
                argv += ["--report", os.path.join(tmp, report) if report
                         else ""]
            rc = cli.main(argv)
        assert rc in (0, 1, 2)


GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                      "golden.json")


def golden_digest(key):
    with open(GOLDEN, encoding="ascii") as fh:
        return json.load(fh)["digests"][key]["sha256"]


class TestGoldenReports:
    """Reports stay byte-identical to the digests recorded from the seed."""

    @pytest.mark.parametrize("args", [
        ["--m", "3", "--n", "3", "--gamma", "1,3|1,2", "--max-degree", "3"],
        ["--m", "3", "--n", "3", "--max-degree", "3"],
        ["--m", "5", "--n", "5", "--max-degree", "3"],
        ["--m", "4", "--n", "4", "--gamma", "2,4|1,3", "--max-degree", "3"],
    ])
    def test_report_matches_the_seed_digest(self, args, tmp_path, capsys):
        want = golden_digest("qdet verify " + " ".join(args))
        report = tmp_path / "report.json"
        assert cli.main(["verify"] + args + ["--report", str(report)]) == 0
        capsys.readouterr()
        got = hashlib.sha256(report.read_bytes()).hexdigest()
        assert got == want

    def test_cached_report_matches_the_seed_digest(self, tmp_path, capsys,
                                                    monkeypatch):
        # the first run fills the cache, the second reads every span back
        args = ["--m", "3", "--n", "3", "--gamma", "1,3|1,2",
                "--max-degree", "3", "--cache", "qdet-cache"]
        want = golden_digest("qdet verify " + " ".join(args))
        monkeypatch.chdir(tmp_path)
        loaded = []
        load_rows = disk.load_rows
        monkeypatch.setattr(disk, "load_rows",
                            lambda key: loaded.append(load_rows(key))
                            or loaded[-1])
        for run in range(2):
            loaded.clear()
            assert cli.main(["verify"] + args + ["--report", "out.json"]) == 0
            capsys.readouterr()
            got = hashlib.sha256((tmp_path / "out.json").read_bytes())
            assert got.hexdigest() == want, run
        assert loaded and all(rows is not None for rows in loaded)

    def test_diagonal_tower_step_matches_the_seed_digest(self):
        # the tower-sweep step of 4x4 1,2|1,2, whose col_swap family has
        # diagonal member pairs, hashed as the benchmark child hashes it
        params = {"gamma": "1,2|1,2", "m": 4, "max_degree": 4, "n": 4,
                  "suites": "mfamily,torus,ore-tower"}
        want = golden_digest("run_workbench "
                             + json.dumps(params, sort_keys=True))
        config = WorkbenchConfig(
            m=4, n=4, gamma=((1, 2), (1, 2)), max_degree=4,
            suites=("mfamily", "torus", "ore-tower")).validate()
        out = io.StringIO()
        emit_report(run_workbench(config), out)
        got = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert got == want

    def test_compute_stdout_matches_the_seed_digest(self, capsys):
        args = ["compute", "minor", "--m", "4", "--n", "4", "1,2,3,4|1,2,3,4"]
        want = golden_digest("qdet " + " ".join(args))
        assert cli.main(args) == 0
        got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert got == want


def damaged(data, how, at, bit, field):
    """A cache file cut short, with one bit flipped, or with one header
    field changed."""
    if how == "truncate":
        return data[:at % len(data)]
    if how == "flip":
        at %= len(data)
        return data[:at] + bytes([data[at] ^ 1 << bit]) + data[at + 1:]
    header, body = data.split(b"\n", 1)
    fields = json.loads(header)
    value = fields[field]
    if isinstance(value, int):
        fields[field] = value + 1
    else:
        fields[field] = value[:-1] + ("1" if value.endswith("0") else "0")
    return json.dumps(fields, separators=(",", ":")).encode() + b"\n" + body


class TestCacheFiles:
    """A damaged span file is a miss: the run rebuilds the span."""

    ARGV = ["verify", "--m", "2", "--n", "2", "--gamma", "1|1",
            "--max-degree", "2", "--cache", "qdet-cache",
            "--report", "report.json"]

    @settings(max_examples=50, deadline=None)
    @given(pick=st.integers(0, 99),
           how=st.sampled_from(["truncate", "flip", "header"]),
           at=st.integers(0, 999), bit=st.integers(0, 7),
           field=st.sampled_from(["format", "key", "rank", "sha256"]))
    def test_damaged_file_gives_the_uncached_report(self, pick, how, at,
                                                    bit, field):
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                assert cli.main(self.ARGV) == 0
                with open("report.json", "rb") as fh:
                    want = fh.read()
                names = sorted(os.listdir("qdet-cache"))
                path = os.path.join("qdet-cache", names[pick % len(names)])
                with open(path, "rb") as fh:
                    data = fh.read()
                key = ast.literal_eval(json.loads(data.split(b"\n")[0])["key"])
                stored = disk.load_rows(key)
                with open(path, "wb") as fh:
                    fh.write(damaged(data, how, at, bit, field))
                # a damaged file is a miss, unless its rows read back whole
                assert disk.load_rows(key) in (None, stored)
                assert cli.main(self.ARGV) == 0
                with open("report.json", "rb") as fh:
                    assert fh.read() == want
            finally:
                os.chdir(cwd)

    def test_format_2_files_are_misses(self, monkeypatch):
        """A span stored in the FORMAT-2 layout (per row, one [column,
        [[exponent, numerator, denominator], ...]] list per column) is a
        miss under its own file name and under the current one: the span
        is rebuilt and the report is the same."""
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                assert cli.main(self.ARGV) == 0
                with open("report.json", "rb") as fh:
                    want = fh.read()
                names = sorted(os.listdir("qdet-cache"))
                assert names
                for name in names:
                    path = os.path.join("qdet-cache", name)
                    with open(path, "rb") as fh:
                        header = json.loads(fh.readline())
                    key = ast.literal_eval(header["key"])
                    old = format_2_file(key, disk.load_rows(key))
                    with monkeypatch.context() as patch:
                        patch.setattr(disk, "FORMAT", 2)
                        old_path = disk._path_for("qdet-cache", key)
                    assert old_path != path
                    for target in (path, old_path):
                        with open(target, "wb") as fh:
                            fh.write(old)
                loads = []
                real = disk.load_rows
                monkeypatch.setattr(
                    disk, "load_rows",
                    lambda key: loads.append(real(key)) or loads[-1])
                assert cli.main(self.ARGV) == 0
                with open("report.json", "rb") as fh:
                    assert fh.read() == want
                assert len(loads) == len(names)
                assert loads == [None] * len(names)
            finally:
                os.chdir(cwd)


def format_2_file(key, rows):
    """The cache file a FORMAT-2 build wrote for these integer rows."""
    enc = []
    for row in rows:
        cols = {}
        for (i, e), c in sorted(row.items()):
            cols.setdefault(i, []).append([e, c, 1])
        enc.append([[i, terms] for i, terms in cols.items()])
    body = json.dumps(enc, separators=(",", ":"))
    header = {"format": 2, "key": repr(tuple(key)), "rank": len(rows),
              "sha256": hashlib.sha256(body.encode("ascii")).hexdigest()}
    return (json.dumps(header, separators=(",", ":")) + "\n"
            + body + "\n").encode("ascii")
