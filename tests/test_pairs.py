"""``benchmarks/pairs.py``: seed lists, the per-metric verdict, and the
command's loop over workloads (with the ledger runs stubbed out)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "benchmarks" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]


class TestSeedRange:
    @pytest.mark.parametrize(
        "text, seeds",
        [
            ("200-209", list(range(200, 210))),
            ("7", [7]),
            ("1,4,9", [1, 4, 9]),
            ("1-3,7", [1, 2, 3, 7]),
        ],
    )
    def test_forms(self, text, seeds):
        assert pairs.seed_range(text) == seeds


class TestVerdict:
    def test_gain(self):
        assert pairs.verdict(PARENT, [8.0] * 10, "lower", 0.25) == (10, "GAIN")

    def test_gain_for_a_higher_is_better_metric(self):
        parent = [100 * v for v in PARENT]
        assert pairs.verdict(parent, [1500.0] * 10, "higher", 0.25) == (10, "GAIN")

    def test_nine_of_ten_wins_is_enough_eight_is_not(self):
        nine = [8.0] * 9 + [11.0]
        assert pairs.verdict(PARENT, nine, "lower", 0.25) == (9, "GAIN")
        eight = [8.0] * 8 + [11.0, 11.0]
        assert pairs.verdict(PARENT, eight, "lower", 0.25) == (8, "within bound")

    def test_gain_must_exceed_the_parents_iqr(self):
        """Every pair won, but by less than the parent's own spread."""
        change = [v - 0.05 for v in PARENT]
        assert pairs.verdict(PARENT, change, "lower", 0.25) == (10, "within bound")

    def test_worse(self):
        assert pairs.verdict(PARENT, [13.0] * 10, "lower", 0.25) == (0, "WORSE")
        assert pairs.verdict(PARENT, [7.0] * 10, "higher", 0.25) == (0, "WORSE")

    def test_unresolved_when_the_spread_exceeds_the_bound(self):
        parent = [5.0, 15.0] * 5
        change = [6.0, 14.0] * 5
        assert pairs.verdict(parent, change, "lower", 0.25) == (5, "unresolved")

    def test_wide_spread_but_every_change_run_better(self):
        parent = [10.0, 20.0, 10.0, 20.0]
        change = [5.0, 6.0, 5.0, 6.0]
        assert pairs.verdict(parent, change, "lower", 0.25) == (4, "within bound")

    def test_ties_count_for_neither_side(self):
        assert pairs.verdict(PARENT, list(PARENT), "lower", 0.25) == (0, "within bound")
        one_better = list(PARENT)
        one_better[3] -= 1.0
        assert pairs.verdict(PARENT, one_better, "lower", 0.25)[0] == 1
        assert pairs.verdict(PARENT, one_better, "higher", 0.25)[0] == 0


class TestCommand:
    @pytest.fixture
    def change_tree(self, tmp_path):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
        return tmp_path

    def test_each_workload_gets_its_pairs_and_table(self, change_tree, monkeypatch, capsys):
        spec = json.loads((change_tree / "BENCHMARK.json").read_text())
        calls = []

        def run_once(tree, workload, seed, seconds):
            calls.append((tree.name, workload, seed))
            value = 2.0 if tree == change_tree.resolve() else 3.0
            metrics = {m["name"]: {"value": value} for m in spec["end_to_end"]}
            return {"metrics": metrics, "failed": 0, "attempted": 5}

        monkeypatch.setattr(pairs, "run_once", run_once)
        args = ["--parent", str(change_tree.parent), "--change", str(change_tree),
                "--workload", "crash_snapshot,upgrade_shm", "--seeds", "1-2",
                "--watch", "query_ms_p95"]
        assert pairs.main(args) == 0
        out = capsys.readouterr().out
        assert [c[1:] for c in calls] == [
            (w, s) for w in ("crash_snapshot", "upgrade_shm") for s in (1, 1, 2, 2)
        ]
        assert "crash_snapshot seed 2 (change first): query_ms_p95 3 -> 2" in out
        assert "\ncrash_snapshot: 2 pairs" in out and "\nupgrade_shm: 2 pairs" in out

    def test_watch_takes_a_comma_list(self, change_tree, monkeypatch, capsys):
        spec = json.loads((change_tree / "BENCHMARK.json").read_text())

        def run_once(tree, workload, seed, seconds):
            side = 2.0 if tree == change_tree.resolve() else 3.0
            metrics = {
                m["name"]: {"value": side * (10 if m["name"] == "restored_ms" else 1)}
                for m in spec["end_to_end"]
            }
            return {"metrics": metrics, "failed": 0, "attempted": 5}

        monkeypatch.setattr(pairs, "run_once", run_once)
        args = ["--parent", str(change_tree.parent), "--change", str(change_tree),
                "--workload", "crash_snapshot", "--seeds", "4",
                "--watch", "ingest_rows_per_s,restored_ms"]
        assert pairs.main(args) == 0
        assert ("crash_snapshot seed 4 (parent first): "
                "ingest_rows_per_s 3 -> 2, restored_ms 30 -> 20\n") in capsys.readouterr().out

    def test_watch_must_be_an_end_to_end_metric(self, change_tree):
        for watch in ("columnstore.colcache.hit_rate", "query_ms_p50,columnstore.colcache.hit_rate"):
            with pytest.raises(SystemExit) as excinfo:
                pairs.main(["--parent", ".", "--change", str(change_tree), "--workload", "w",
                            "--seeds", "1", "--watch", watch])
            assert excinfo.value.code == 2
