"""CLI contract for ``python -m repro.sancheck``: exit codes, the JSON
report schema, baseline round-trips, per-rule selection, ``--jobs`` and
``--prune-ignores``.

Everything drives :func:`repro.sancheck.__main__.main` in-process with an
explicit ``--baseline`` so the committed repo baseline is never touched.
"""

import json
from pathlib import Path

import pytest

from repro.sancheck.__main__ import main
from repro.sancheck.rules import RULES

FIXTURES = Path(__file__).parent / "fixtures" / "sancheck"


def fixture(name):
    return str(FIXTURES / name)


def empty_baseline(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text("[]\n")
    return str(path)


class TestExitCodes:
    def test_clean_fixture_exits_zero(self, tmp_path, capsys):
        rc = main([fixture("good_lock.py"),
                   "--baseline", empty_baseline(tmp_path)])
        assert rc == 0
        assert "0 violation(s) [clean]" in capsys.readouterr().out

    def test_bad_fixture_exits_one(self, tmp_path, capsys):
        rc = main([fixture("bad_clockcharge.py"),
                   "--baseline", empty_baseline(tmp_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "clock-charge" in out
        assert "1 violation(s)" in out

    def test_stale_baseline_fails_only_under_strict(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps([
            {"rule": "tlb", "module": "nonexistent", "func": "gone",
             "reason": "entry for a violation that no longer fires"}]))
        assert main([fixture("good_lock.py"),
                     "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main([fixture("good_lock.py"), "--strict",
                     "--baseline", str(baseline)]) == 1
        assert "stale entry" in capsys.readouterr().out

    def test_malformed_baseline_entry_always_fails(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps([
            {"rule": "tlb", "module": "m", "func": "f"}]))  # no reason
        assert main([fixture("good_lock.py"),
                     "--baseline", str(baseline)]) == 1
        assert "no reason" in capsys.readouterr().out

    def test_ignore_rule_cannot_be_baselined(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps([
            {"rule": "ignore", "module": "m", "func": "f",
             "reason": "trying to launder an unjustified ignore"}]))
        assert main([fixture("good_lock.py"),
                     "--baseline", str(baseline)]) == 1
        assert "cannot be baselined" in capsys.readouterr().out


class TestBaselineRoundTrip:
    def test_write_then_apply_then_shrink(self, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        Path(baseline).write_text("[]\n")
        bad = fixture("bad_metrics.py")

        assert main([bad, "--write-baseline", "--baseline", baseline]) == 0
        entries = json.loads(Path(baseline).read_text())
        assert len(entries) == 1
        assert entries[0]["rule"] == "metrics"
        assert entries[0]["reason"]

        capsys.readouterr()
        assert main([bad, "--strict", "--baseline", baseline]) == 0
        assert "1 baselined" in capsys.readouterr().out

        # Once the violation is fixed the entry is stale: shrink-only.
        assert main([fixture("good_metrics.py"),
                     "--baseline", baseline]) == 0
        assert main([fixture("good_metrics.py"), "--strict",
                     "--baseline", baseline]) == 1


class TestRuleSelection:
    def test_deselected_rule_does_not_fire(self, tmp_path):
        rc = main([fixture("bad_clockcharge.py"), "--rules", "tlb",
                   "--baseline", empty_baseline(tmp_path)])
        assert rc == 0

    def test_selected_rule_fires(self, tmp_path):
        rc = main([fixture("bad_clockcharge.py"), "--rules", "clock-charge",
                   "--baseline", empty_baseline(tmp_path)])
        assert rc == 1

    def test_unknown_rule_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown rule"):
            main([fixture("good_lock.py"), "--rules", "no-such-rule",
                  "--baseline", empty_baseline(tmp_path)])


class TestJobs:
    def test_parallel_run_matches_serial(self, tmp_path, capsys):
        paths = [fixture(n) for n in
                 ("bad_clockcharge.py", "bad_metrics.py", "bad_refcount.py",
                  "good_clockcharge.py", "good_metrics.py")]
        base = empty_baseline(tmp_path)
        assert main(paths + ["--quiet", "--baseline", base]) == 1
        serial = capsys.readouterr().out
        assert main(paths + ["--quiet", "--jobs", "2",
                             "--baseline", base]) == 1
        parallel = capsys.readouterr().out
        # Same violation counts either way (drop the timing suffix).
        assert serial.split(" in ")[0] == parallel.split(" in ")[0]
        assert "3 violation(s)" in serial


class TestJsonReport:
    def test_schema_and_contents(self, tmp_path):
        report_path = tmp_path / "report.json"
        rc = main([fixture("bad_tlb.py"), "--quiet",
                   "--json", str(report_path),
                   "--baseline", empty_baseline(tmp_path)])
        assert rc == 1
        report = json.loads(report_path.read_text())
        assert set(report) == {"violations", "baselined", "stale_baseline",
                               "counts", "rules", "elapsed_s", "ok"}
        assert report["ok"] is False
        assert report["counts"] == {"tlb": 1}
        assert report["rules"] == list(RULES)
        (violation,) = report["violations"]
        assert set(violation) == {"rule", "module", "func", "lineno",
                                  "message"}
        assert violation["func"] == "zap_entry"
        assert isinstance(violation["lineno"], int)

    def test_clean_report_is_ok(self, tmp_path):
        report_path = tmp_path / "report.json"
        rc = main([fixture("good_tlb.py"), "--quiet",
                   "--rules", "tlb",
                   "--json", str(report_path),
                   "--baseline", empty_baseline(tmp_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["ok"] is True
        assert report["violations"] == []
        assert report["rules"] == ["tlb"]


class TestPruneIgnores:
    def stale_file(self, tmp_path):
        path = tmp_path / "stale_mod.py"
        path.write_text(
            "def helper(value):\n"
            "    # sancheck: ignore[tlb] -- justified once, dead now\n"
            "    return value + 1\n")
        return path

    def test_stale_ignore_is_reported(self, tmp_path, capsys):
        path = self.stale_file(tmp_path)
        rc = main([str(path), "--baseline", empty_baseline(tmp_path)])
        assert rc == 1
        assert "stale ignore[tlb]" in capsys.readouterr().out

    def test_prune_rewrites_the_file(self, tmp_path, capsys):
        path = self.stale_file(tmp_path)
        rc = main([str(path), "--prune-ignores",
                   "--baseline", empty_baseline(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pruned 1 stale ignore comment(s)" in out
        text = path.read_text()
        assert "sancheck" not in text
        assert "return value + 1" in text

    def test_live_ignores_survive_prune(self, tmp_path, capsys):
        # bad_ignore.py's *justified* comment suppresses a real violation;
        # prune must leave it alone.  Copy it so a bug can't mangle the
        # committed fixture.
        src = Path(fixture("good_ignore.py")).read_text()
        path = tmp_path / "good_ignore_copy.py"
        path.write_text(src)
        rc = main([str(path), "--prune-ignores",
                   "--baseline", empty_baseline(tmp_path)])
        assert rc == 0
        assert "pruned 0 stale ignore comment(s)" in capsys.readouterr().out
        assert path.read_text() == src

    def test_rule_subset_never_marks_ignores_stale(self, tmp_path):
        # Staleness is only decidable under the full rule set: a subset
        # run must not report (or prune) ignores whose rule is disabled.
        path = self.stale_file(tmp_path)
        rc = main([str(path), "--rules", "refcount,ignore",
                   "--baseline", empty_baseline(tmp_path)])
        assert rc == 0
        assert "sancheck" in path.read_text()
