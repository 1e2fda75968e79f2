"""Command-line interface: subcommands, exit codes, report files."""

import ast
import dataclasses
import gc
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from betaquad import catalog, cli, verify
from betaquad.cli import run


class TestList:
    def test_sorted_and_complete(self, capsys):
        assert run(["list"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == catalog.EXPECTED_ENTRY_COUNT
        ids = [line.split()[0] for line in lines]
        assert ids == sorted(ids)

    def test_stable_across_runs(self, capsys):
        run(["list"])
        first = capsys.readouterr().out
        run(["list"])
        second = capsys.readouterr().out
        assert first == second


class TestShow:
    def test_shows_domain_and_citation(self, capsys):
        assert run(["show", "3.457.3"]) == 0
        out = capsys.readouterr().out
        assert "3.457.3" in out
        assert "a" in out and "mu" in out
        assert "range" in out
        assert catalog.entry("3.457.3").citation in out

    @pytest.mark.parametrize("entry_id, line", [
        # randint(0, 6) draws both ends
        ("3.226.1", "  n      integer  range [0, 6], drawn in [0, 6]\n"),
        # p = 1 is a pole of the closed form; the 5% margin keeps draws off both ends
        ("3.192.1", "  p      real     range (0, 1), drawn in [0.05, 0.95]\n"),
        # the closed form is 0/0 at a = 1; a draw within 0.1 (the margin) of it is redrawn
        ("3.194.6",
         "  a      real     range (0, 2), drawn in [0.1, 1.9], excluding (0.9, 1.1)\n"),
    ])
    def test_range_says_what_is_drawn(self, capsys, entry_id, line):
        assert run(["show", entry_id]) == 0
        assert line in capsys.readouterr().out

    def test_unknown_id_exits_2(self, capsys):
        assert run(["show", "definitely-not-there"]) == 2
        assert "error" in capsys.readouterr().err


class TestVerifyCommand:
    def test_single_entry_passes(self, capsys):
        assert run(["verify", "--id", "3.248.3", "--samples", "5", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        outcomes = [json.loads(line) for line in lines[:-1]]
        assert len(outcomes) == 5
        assert all(o["status"] == "pass" for o in outcomes)
        assert json.loads(lines[-1])["verdict"] == "pass"

    def test_report_file_written(self, tmp_path):
        path = tmp_path / "report.jsonl"
        code = run(
            ["verify", "--id", "eq-4.3", "--samples", "3", "--seed", "2",
             "--report", str(path)]
        )
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 4
        assert json.loads(lines[-1])["outcomes"] == 3

    def test_report_bytes_match_the_string_form(self, capsys, tmp_path):
        # the file and stdout get what report_to_jsonl returns as a string
        cfg = verify.RunConfig(seed=7, samples_per_entry=2)
        expected = verify.report_to_jsonl(verify.verify_all(cfg), verify.cross_check_consistency(cfg))
        path = tmp_path / "report.jsonl"
        assert run(["verify", "--samples", "2", "--seed", "7", "--report", str(path)]) == 0
        assert path.read_bytes() == expected.encode()
        assert capsys.readouterr().out == ""
        assert run(["verify", "--samples", "2", "--seed", "7"]) == 0
        assert capsys.readouterr().out == expected

    def test_report_in_missing_directory_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.jsonl"
        assert run(["verify", "--id", "3.191.3", "--samples", "1", "--report", str(path)]) == 2
        assert "error" in capsys.readouterr().err
        assert not path.parent.exists()

    def test_unknown_id_creates_no_report(self, capsys, tmp_path):
        # entries are resolved before the report file is opened
        path = tmp_path / "report.jsonl"
        assert run(["verify", "--id", "nope", "--report", str(path)]) == 2
        assert "error" in capsys.readouterr().err
        assert not path.exists()

    def test_holds_one_entry_of_outcomes(self, capsys, monkeypatch):
        # each entry's lines are written before the next entry runs, so when
        # the consistency suite starts at most one entry's outcomes are alive
        def alive():
            gc.collect()
            return sum(isinstance(o, verify.VerificationOutcome) for o in gc.get_objects())

        before = alive()
        seen = []
        check = verify.cross_check_consistency

        def counting(cfg):
            seen.append(alive() - before)
            return check(cfg)

        monkeypatch.setattr(verify, "cross_check_consistency", counting)
        assert run(["verify", "--samples", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3 * catalog.EXPECTED_ENTRY_COUNT + 1
        assert len(seen) == 1 and seen[0] <= 3

    def test_text_format(self, capsys):
        assert run(
            ["verify", "--id", "3.191.3", "--samples", "2", "--format", "text"]
        ) == 0
        out = capsys.readouterr().out
        assert "entry" in out and "3.191.3" in out and "verdict=pass" in out

    def test_invalid_flags_exit_2(self, capsys):
        assert run(["verify", "--rtol", "-1"]) == 2
        assert run(["verify", "--samples", "0"]) == 2
        assert run(["verify", "--jobs", "0"]) == 2
        assert run(["verify", "--atol", "-1e-9"]) == 2
        for bad in ("nan", "inf"):
            assert run(["verify", "--id", "3.191.3", "--samples", "2", "--atol", bad]) == 2
            assert run(["verify", "--id", "3.191.3", "--samples", "2", "--rtol", bad]) == 2
        capsys.readouterr()

    def test_unknown_flag_exits_2(self, capsys):
        assert run(["verify", "--definitely-not-a-flag"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_id_exits_2(self, capsys):
        assert run(["verify", "--id", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_failures_exit_1(self, capsys):
        # rtol below the engines' precision floor forces at least one fail
        code = run(
            ["verify", "--id", "3.216.1", "--samples", "5", "--seed", "7",
             "--rtol", "1e-16", "--atol", "1e-16"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert json.loads(out.strip().split("\n")[-1])["verdict"] == "fail"

    def test_consistency_failure_exits_1(self, capsys, monkeypatch):
        fake = verify.ConsistencyReport(
            [verify.ConsistencyCheck("synthetic", False, 1.0, "forced")]
        )
        monkeypatch.setattr(verify, "cross_check_consistency", lambda cfg: fake)
        code = run(["verify", "--samples", "1"])
        summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert code == 1
        assert summary["failures"] == 0 and summary["verdict"] == "fail"

    @pytest.mark.parametrize("where", ["row", "batch"])
    def test_fake_parameter_sample_error_fails_the_check(self, capsys, tmp_path, monkeypatch, where):
        # an error in one sample of the 3.217 check (a NaN integrand value),
        # or in its whole batch, fails that check; the report is complete
        rec = catalog.entry("3.217")
        bad_b = catalog.sample_params(rec, 7, 0)["b"]

        def make_integrand(p):
            if where == "batch":
                raise ValueError("integrand unavailable")
            f = rec.make_integrand(p)
            return lambda x, dlo, dhi: np.where(p["b"] == bad_b, np.nan, f(x, dlo, dhi))

        broken = dataclasses.replace(rec, make_integrand=make_integrand)
        entry = catalog.entry
        monkeypatch.setattr(catalog, "entry", lambda eid: broken if eid == "3.217" else entry(eid))
        path = tmp_path / "report.jsonl"
        assert run(["verify", "--samples", "2", "--seed", "7", "--report", str(path)]) == 1
        lines = path.read_text().splitlines()
        summary = json.loads(lines[-1])
        assert len(lines) == summary["outcomes"] + 1 == 2 * catalog.EXPECTED_ENTRY_COUNT + 1
        assert summary["failures"] == 0 and summary["verdict"] == "fail"
        capsys.readouterr()

        report = verify.cross_check_consistency(verify.RunConfig(seed=7))
        checks = {c.name: c for c in report.checks}
        failed = checks["fake-parameter-3.217"]
        assert not failed.passed
        error = "EvaluationError" if where == "row" else "ValueError: integrand unavailable"
        assert error in failed.detail
        assert all(c.passed for name, c in checks.items() if name != "fake-parameter-3.217")

    def test_duplication_chain_sample_error_fails_the_check(self, capsys, tmp_path, monkeypatch):
        # a closed form that raises in the 3.249.5 chain fails that check,
        # as a sample error fails a fake-parameter check; the report is
        # complete, and its verdict fails although every outcome passes
        rec = catalog.entry("3.249.5")
        broken = dataclasses.replace(rec, closed_form=lambda p: math.nan)
        entry = catalog.entry
        monkeypatch.setattr(catalog, "entry", lambda eid: broken if eid == "3.249.5" else entry(eid))
        path = tmp_path / "report.jsonl"
        assert run(["verify", "--samples", "1", "--report", str(path)]) == 1
        lines = path.read_text().splitlines()
        assert len(lines) == catalog.EXPECTED_ENTRY_COUNT + 1
        summary = json.loads(lines[-1])
        assert summary["failures"] == 0 and summary["verdict"] == "fail"
        capsys.readouterr()

        report = verify.cross_check_consistency(verify.RunConfig(seed=7))
        checks = {c.name: c for c in report.checks}
        failed = checks["duplication-chain-3.249.5"]
        assert not failed.passed and math.isnan(failed.worst)
        assert "ValueError: closed form of '3.249.5' is non-finite" in failed.detail
        assert all(c.passed for name, c in checks.items() if name != "duplication-chain-3.249.5")


def test_cli_names_no_private_verify_attribute():
    # the report format and the consistency-suite policy live in verify
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    private = [
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "verify" and node.attr.startswith("_")
    ]
    assert private == []


class TestConsoleScript:
    @pytest.mark.skipif(shutil.which("betaquad") is None, reason="script not installed")
    def test_installed_entry_point(self):
        proc = subprocess.run(
            ["betaquad", "verify", "--id", "3.226.1", "--samples", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout.strip().split("\n")[-1])["verdict"] == "pass"

    def test_module_invocation(self, package_env):
        proc = subprocess.run(
            [sys.executable, "-m", "betaquad.cli", "list"],
            capture_output=True, text=True, env=package_env,
        )
        assert proc.returncode == 0
        assert len(proc.stdout.strip().split("\n")) == catalog.EXPECTED_ENTRY_COUNT


class TestExport:
    def test_writes_catalog_json(self, tmp_path):
        path = tmp_path / "catalog.json"
        assert run(["export", "--out", str(path)]) == 0
        data = json.loads(path.read_text())
        assert len(data) == catalog.EXPECTED_ENTRY_COUNT
        assert data == catalog.catalog_manifest()

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        assert run(["export", "--out", str(tmp_path / "missing" / "x.json")]) == 2
        assert "error" in capsys.readouterr().err
