"""Fixture tests for the segment-lifecycle checker (RL4xx).

Includes the acceptance gate for this PR: deliberately re-introducing
the PR 2 leaked-attach-on-fallback bug into ``core/engine.py`` must be
caught.
"""

from pathlib import Path

import pytest

from repro.analysis.checkers import lifecycle
from repro.analysis.loader import SourceModule, load_files

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


def run(name):
    return lifecycle.check(load_files([FIXTURES / name]))


class TestBadFixture:
    def test_exact_findings(self):
        found = {(f.code, f.line, f.symbol) for f in run("lifecycle_bad.py")}
        assert found == {
            ("RL401", 7, "leak_forever:ShmSegment.attach"),
            ("RL402", 12, "leak_on_raise:ShmSegment.attach"),
        }


class TestGoodFixture:
    def test_silent(self):
        """with-block, chained unlink, try/finally, handler release,
        constructor hand-off, and return all count as covered."""
        assert run("lifecycle_good.py") == []


class TestRealTree:
    def test_engine_is_clean(self, repo_root):
        modules = load_files(
            [repo_root / "src/repro/core/engine.py"], root=repo_root
        )
        assert lifecycle.check(modules) == []

    def test_reintroducing_pr2_leak_is_caught(self, repo_root):
        """The original PR 2 bug was a segment attached on the restore
        path that the fallback never closed.  The one restore-side
        attach left is the driver's directory publish, and the fallback
        (``_close_source``) can only close what the publish handed to
        the driver: strip that handoff and the checker must flag the
        attach."""
        path = repo_root / "src/repro/core/lazyrestore.py"
        text = path.read_text()
        buggy = text.replace(
            "            self._segments[record.table_name] = segment\n", ""
        )
        assert buggy != text, "lazyrestore.py no longer matches the handoff idiom"
        import ast

        module = SourceModule(
            path=path,
            relpath="src/repro/core/lazyrestore.py",
            tree=ast.parse(buggy),
            text=buggy,
        )
        module._index_parents()
        findings = lifecycle.check([module])
        leaks = [
            f
            for f in findings
            if f.code in ("RL401", "RL402")
            and f.symbol == "_publish_directory:ShmSegment.attach"
        ]
        assert leaks, f"PR 2 leak not caught; findings: {findings}"


class TestOwnershipRules:
    @pytest.mark.parametrize(
        "source,expect_codes",
        [
            # borrow: passing to a lowercase function is NOT a release
            (
                "def f(name, sink):\n"
                "    segment = ShmSegment.attach(name)\n"
                "    sink(segment)\n",
                {"RL401"},
            ),
            # constructor wrap IS an ownership transfer
            (
                "def f(name):\n"
                "    raw = ShmSegment.attach(name)\n"
                "    return Wrapper(raw)\n",
                set(),
            ),
        ],
    )
    def test_borrow_vs_transfer(self, tmp_path, source, expect_codes):
        fixture = tmp_path / "case.py"
        fixture.write_text(source)
        findings = lifecycle.check(load_files([fixture]))
        assert {f.code for f in findings} == expect_codes
