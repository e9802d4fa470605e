"""The paper's scenario, for real: two processes whose lifetimes do not
overlap hand a database over through shared memory.

The old process builds tables, runs the Figure-6 shutdown, and *exits*.
A brand-new Python process then runs the Figure-7 restore and answers a
query.  No bytes travel through disk on the happy path.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent



def run_child(source: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestCrossProcessRestart:
    def test_full_restart_across_real_processes(self, shm_namespace, tmp_path):
        namespace = shm_namespace
        backup_dir = tmp_path / "backup"
        old_process = f"""
            from repro import DiskBackup, LeafServer, ManualClock

            leaf = LeafServer(
                "0",
                backup=DiskBackup({str(backup_dir)!r}),
                namespace={namespace!r},
                clock=ManualClock(1000.0),
                rows_per_block=64,
            )
            leaf.start()
            leaf.add_rows(
                "events",
                [{{"time": 1000 + i, "host": f"h{{i % 5}}", "v": float(i)}}
                 for i in range(500)],
            )
            report = leaf.shutdown(use_shm=True)
            assert report is not None
            print(report.rows)
        """
        out = run_child(old_process)
        assert out.strip() == "500"

        new_process = f"""
            import json
            from repro import (
                Aggregation, DiskBackup, LeafServer, ManualClock, Query,
                RecoveryMethod,
            )
            from repro.query.aggregate import merge_leaf_results

            leaf = LeafServer(
                "0",
                backup=DiskBackup({str(backup_dir)!r}),
                namespace={namespace!r},
                clock=ManualClock(2000.0),
                rows_per_block=64,
            )
            report = leaf.start()
            query = Query(
                "events",
                aggregations=(Aggregation("count"), Aggregation("max", "v")),
            )
            execution = leaf.query(query)
            result = merge_leaf_results(query, [execution.partial], 1)
            print(json.dumps({{
                "method": report.method.value,
                "rows": report.rows,
                "count": result.rows[0].values["count(*)"],
                "max_v": result.rows[0].values["max(v)"],
            }}))
        """
        payload = json.loads(run_child(new_process))
        assert payload["method"] == "shared_memory"
        assert payload["rows"] == 500
        assert payload["count"] == 500
        assert payload["max_v"] == 499.0

    def test_killed_process_leaves_invalid_state_next_boot_uses_disk(
        self, shm_namespace, tmp_path
    ):
        """The old process dies mid-copy (before the valid bit): its
        replacement must recover from disk and still see the synced data."""
        namespace = shm_namespace
        backup_dir = tmp_path / "backup"
        dying_process = f"""
            import os
            import sys
            from repro import DiskBackup, LeafServer, ManualClock

            leaf = LeafServer(
                "0",
                backup=DiskBackup({str(backup_dir)!r}),
                namespace={namespace!r},
                clock=ManualClock(1000.0),
                rows_per_block=64,
            )
            leaf.start()
            leaf.add_rows("events", [{{"time": i}} for i in range(300)])
            leaf.sync_to_disk()
            # The kill: the copy runs, the process dies before the commit.
            sys.path.insert(0, {str(REPO_ROOT)!r})
            from _pytest.monkeypatch import MonkeyPatch
            from tests.crashpoints import Recorder

            recorder = Recorder(MonkeyPatch())
            recorder.before(lambda effect: os._exit(9), kind="set_valid", target="=True")
            leaf.shutdown(use_shm=True)
        """
        result = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(dying_process)],
            capture_output=True,
            timeout=120,
        )
        assert result.returncode == 9

        surviving_process = f"""
            from repro import DiskBackup, LeafServer, ManualClock
            leaf = LeafServer(
                "0",
                backup=DiskBackup({str(backup_dir)!r}),
                namespace={namespace!r},
                clock=ManualClock(2000.0),
                rows_per_block=64,
            )
            report = leaf.start()
            print(report.method.value, leaf.leafmap.row_count)
        """
        out = run_child(surviving_process).split()
        # The dying process sealed and synced before the kill, so its
        # replacement gets the snapshot tier — still disk, never shm.
        assert out == ["disk_snapshot", "300"]
