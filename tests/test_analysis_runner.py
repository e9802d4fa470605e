"""End-to-end tests for the reprolint runner, baseline, and CLI."""

import json

import pytest

from repro.analysis import Baseline, BaselineEntry, Finding, run_lint
from repro.analysis.runner import render_json, render_text
from repro.cli import main as cli_main


def finding(code="RL302", path="src/x.py", symbol="C.m:attr", line=10):
    return Finding(
        path=path, line=line, code=code, checker="t", symbol=symbol, message="m"
    )


class TestBaseline:
    def test_matching_ignores_line_numbers(self):
        entry = BaselineEntry("RL302", "src/x.py", "C.m:attr", "why")
        match = Baseline([entry]).apply([finding(line=99)])
        assert match.new == []
        assert [e for _, e in match.accepted] == [entry]
        assert match.stale == []

    def test_new_and_stale_are_separated(self):
        entry = BaselineEntry("RL302", "src/x.py", "C.m:gone", "why")
        match = Baseline([entry]).apply([finding()])
        assert match.new == [finding()]
        assert match.stale == [entry]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline([BaselineEntry("RL401", "a.py", "S", "j")]).save(path)
        loaded = Baseline.load(path)
        assert loaded.entries == [BaselineEntry("RL401", "a.py", "S", "j")]

    def test_version_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError, match="version"):
            Baseline.load(path)

    def test_one_entry_matches_multiple_findings(self):
        """Two findings sharing (code, path, symbol) — e.g. a checker
        anchoring several lines to one construct — are both accepted by
        a single entry, which is then not stale."""
        entry = BaselineEntry("RL302", "src/x.py", "C.m:attr", "why")
        match = Baseline([entry]).apply([finding(line=10), finding(line=20)])
        assert match.new == []
        assert [e for _, e in match.accepted] == [entry, entry]
        assert match.stale == []

    def test_stale_entry_fails_the_run(self, repo_root, tmp_path):
        """A baseline entry matching nothing must fail, not rot."""
        from repro.analysis.runner import DEFAULT_BASELINE

        real = Baseline.load(repo_root / DEFAULT_BASELINE)
        real.entries.append(
            BaselineEntry("RL302", "src/gone.py", "G.m:attr", "obsolete")
        )
        target = tmp_path / "with_stale.json"
        real.save(target)
        result = run_lint(repo_root, baseline_path=target)
        assert [e.symbol for e in result.match.stale] == ["G.m:attr"]
        assert result.failed

    def test_sort_findings_is_deterministic(self):
        from repro.analysis.findings import sort_findings

        findings = [
            finding(path="src/b.py", line=5),
            finding(path="src/a.py", line=9, code="RL702"),
            finding(path="src/a.py", line=9, code="RL401"),
            finding(path="src/a.py", line=2),
        ]
        ordered = sort_findings(findings)
        assert [(f.path, f.line, f.code) for f in ordered] == [
            ("src/a.py", 2, "RL302"),
            ("src/a.py", 9, "RL401"),
            ("src/a.py", 9, "RL702"),
            ("src/b.py", 5, "RL302"),
        ]
        assert sort_findings(list(reversed(findings))) == ordered


class TestRunLint:
    def test_repo_is_clean_against_checked_in_baseline(self, repo_root):
        """The PR's acceptance gate: zero non-baselined findings."""
        result = run_lint(repo_root)
        assert result.match.new == []
        assert result.match.stale == []
        assert not result.failed
        assert result.files_scanned > 20

    def test_without_baseline_the_intentional_findings_surface(self, repo_root):
        result = run_lint(repo_root, baseline_path="/nonexistent")
        codes = {f.code for f in result.match.new}
        assert result.failed
        # the baselined families are exactly these
        assert codes == {"RL301", "RL302", "RL702"}

    def test_checker_filter_scopes_baseline_staleness(self, repo_root):
        """Running one checker must not report the others' baseline
        entries as stale."""
        result = run_lint(repo_root, checkers=["segment-lifecycle"])
        assert result.match.stale == []
        assert not result.failed

    def test_unknown_checker_is_an_error(self, repo_root):
        with pytest.raises(ValueError, match="unknown checker"):
            run_lint(repo_root, checkers=["spellcheck"])


class TestRendering:
    def test_json_shape(self, repo_root):
        result = run_lint(repo_root)
        payload = json.loads(render_json(result))
        assert payload["summary"]["failed"] is False
        assert payload["summary"]["new"] == 0
        assert {e["code"] for e in payload["accepted"]} >= {"RL302"}
        assert all(e["justification"] for e in payload["accepted"])

    def test_text_summary_line(self, repo_root):
        result = run_lint(repo_root)
        text = render_text(result)
        assert "0 new" in text
        assert "3 checkers" in text


class TestCli:
    def test_lint_clean_exit_zero(self, repo_root, capsys):
        rc = cli_main(["lint", "--root", str(repo_root)])
        assert rc == 0
        assert "0 new" in capsys.readouterr().out

    def test_lint_json(self, repo_root, capsys):
        rc = cli_main(["lint", "--root", str(repo_root), "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["checkers"] == [
            "guarded-by",
            "segment-lifecycle",
            "lock-order",
        ]

    def test_lint_fails_without_baseline(self, repo_root, capsys):
        rc = cli_main(
            ["lint", "--root", str(repo_root), "--baseline", "/nonexistent"]
        )
        assert rc == 1
        assert "new" in capsys.readouterr().out

    def test_update_baseline_writes_todo_entries(self, repo_root, tmp_path, capsys):
        target = tmp_path / "fresh.json"
        rc = cli_main(
            [
                "lint",
                "--root",
                str(repo_root),
                "--baseline",
                str(target),
                "--update-baseline",
            ]
        )
        assert rc == 0
        written = Baseline.load(target)
        assert len(written.entries) == 13
        assert all(e.justification == "TODO: justify or fix" for e in written.entries)

    def test_unknown_checker_exits_two(self, repo_root, capsys):
        rc = cli_main(
            ["lint", "--root", str(repo_root), "--checker", "spellcheck"]
        )
        assert rc == 2
        assert "unknown checker" in capsys.readouterr().err

    def test_todo_baseline_fails_until_justified(self, repo_root, tmp_path, capsys):
        """A freshly generated baseline (all-TODO) must not pass CI
        silently; --allow-todo downgrades it to warnings."""
        target = tmp_path / "fresh.json"
        cli_main(
            ["lint", "--root", str(repo_root), "--baseline", str(target),
             "--update-baseline"]
        )
        capsys.readouterr()
        rc = cli_main(["lint", "--root", str(repo_root), "--baseline", str(target)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "error: TODO-justified baseline entry" in out
        rc = cli_main(
            ["lint", "--root", str(repo_root), "--baseline", str(target),
             "--allow-todo"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "warning: TODO-justified baseline entry" in out
        assert "error:" not in out
