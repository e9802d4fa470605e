"""In-process tests of the worker's serve loop (no subprocess needed)."""

import io
import json

from repro.disk.backup import DiskBackup
from repro.server.leaf import LeafServer
from repro.server.process_worker import serve
from repro.util.checksum import rows_digest


def run_ops(leaf, ops):
    """Feed a list of request dicts; return (exit_code, responses)."""
    stdin = io.StringIO("\n".join(json.dumps(op) for op in ops) + "\n")
    stdout = io.StringIO()
    code = serve(leaf, stdin=stdin, stdout=stdout)
    responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
    return code, responses


def make_leaf(shm_namespace, tmp_path, clock):
    return LeafServer(
        "w",
        backup=DiskBackup(tmp_path / "w"),
        namespace=shm_namespace,
        clock=clock,
        rows_per_block=16,
    )


class TestServeLoop:
    def test_start_status_add_query_sync(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        code, responses = run_ops(
            leaf,
            [
                {"op": "start"},
                {"op": "add_rows", "table": "t", "rows": [{"time": 1}, {"time": 2}]},
                {"op": "status"},
                {
                    "op": "query",
                    "query": {"table": "t", "aggregations": [{"func": "count", "column": "*"}]},
                },
                {"op": "sync"},
            ],
        )
        assert code == 0  # EOF after the ops
        start, add, status, query, sync = responses
        assert start["ok"] and start["method"] == "disk"
        assert add["added"] == 2
        assert status["status"] == "alive" and status["rows"] == 2
        assert query["partial"][0]["states"][0]["count"] == 2
        assert sync["rows_synced"] == 2

    def test_expire(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        old = int(clock.now()) - 9999
        code, responses = run_ops(
            leaf,
            [
                {"op": "start"},
                {"op": "add_rows", "table": "t",
                 "rows": [{"time": old + i} for i in range(16)]},
                {"op": "expire", "retention_seconds": 60},
            ],
        )
        assert responses[-1]["rows_dropped"] == 16

    def test_shutdown_replies_then_exits_zero(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        code, responses = run_ops(
            leaf,
            [
                {"op": "start"},
                {"op": "add_rows", "table": "t", "rows": [{"time": 1}]},
                {"op": "shutdown", "use_shm": True},
                {"op": "status"},  # never processed: serve returned
            ],
        )
        assert code == 0
        assert responses[-1]["used_shm"] is True
        assert len(responses) == 3
        leaf.engine.discard_shm()

    def test_start_replies_with_the_restart_timeline(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        run_ops(
            leaf,
            [
                {"op": "start"},
                {"op": "add_rows", "table": "t", "rows": [{"time": i} for i in range(40)]},
                {"op": "add_rows", "table": "u", "rows": [{"time": 7}]},
                {"op": "shutdown", "use_shm": True},
            ],
        )
        _, (start,) = run_ops(make_leaf(shm_namespace, tmp_path, clock), [{"op": "start"}])
        assert start["method"] == "shared_memory"
        timeline = start["timeline"]
        assert json.loads(json.dumps(timeline)) == timeline
        entered = [event["what"] for event in timeline if event["kind"] == "enter"]
        assert entered == ["init", "memory_recovery", "alive"]
        homes = [event for event in timeline if event["kind"] == "table"]
        assert sorted(event["what"] for event in homes) == ["t", "u"]
        t, u = sorted(homes, key=lambda event: event["what"])
        assert (t["blocks"], t["rows"], u["rows"]) == (3, 40, 1)  # 16 rows per block

    def test_crash_exits_70_without_reply(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        code, responses = run_ops(leaf, [{"op": "start"}, {"op": "crash"}])
        assert code == 70
        assert len(responses) == 1  # only the start reply

    def test_bad_json_is_survivable(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        stdin = io.StringIO('{"op": "start"}\nnot json at all\n{"op": "status"}\n')
        stdout = io.StringIO()
        code = serve(leaf, stdin=stdin, stdout=stdout)
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert code == 0
        assert responses[0]["ok"]
        assert not responses[1]["ok"] and "bad json" in responses[1]["error"]
        assert responses[2]["ok"]

    def test_unknown_op_reports_error_and_continues(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        code, responses = run_ops(
            leaf, [{"op": "start"}, {"op": "frobnicate"}, {"op": "status"}]
        )
        assert not responses[1]["ok"]
        assert responses[2]["ok"]

    def test_domain_error_reported_not_fatal(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        code, responses = run_ops(
            leaf,
            [
                {"op": "start"},
                {"op": "add_rows", "table": "t", "rows": [{"no_time": 1}]},
                {"op": "status"},
            ],
        )
        assert not responses[1]["ok"] and "SchemaError" in responses[1]["error"]
        assert responses[2]["ok"]

    def test_status_reports_the_pid(self, shm_namespace, tmp_path, clock):
        import os

        leaf = make_leaf(shm_namespace, tmp_path, clock)
        code, responses = run_ops(leaf, [{"op": "start"}, {"op": "status"}])
        assert responses[1]["pid"] == os.getpid()

    def test_digest_matches_snapshot_hash(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        code, responses = run_ops(
            leaf,
            [
                {"op": "start"},
                {"op": "add_rows", "table": "t",
                 "rows": [{"time": 1, "v": 2.0}, {"time": 3, "v": 4.0}]},
                {"op": "digest"},
            ],
        )
        digest = responses[-1]
        assert digest["rows"] == 2
        assert digest["digest"] == rows_digest(leaf.leafmap.snapshot_rows())

    def test_blank_lines_skipped(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        stdin = io.StringIO('\n\n{"op": "start"}\n\n')
        stdout = io.StringIO()
        assert serve(leaf, stdin=stdin, stdout=stdout) == 0
        assert len(stdout.getvalue().splitlines()) == 1
