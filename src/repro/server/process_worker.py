"""The leaf server worker process.

``python -m repro.server.process_worker`` runs one :class:`LeafServer`
in its own operating system process and serves a line-oriented JSON
protocol on stdin/stdout.  This is the deployment unit of the paper: a
process whose heap dies with it, whose shared memory does not.

Protocol: one JSON object per line in, one per line out.

Requests::

    {"op": "start"}
    {"op": "status"}
    {"op": "digest"}                           # sha256 of all rows
    {"op": "add_rows", "table": "events", "rows": [...]}
    {"op": "query", "query": {...Query.to_dict()...}}
    {"op": "sync"}
    {"op": "expire", "retention_seconds": 86400}
    {"op": "shutdown", "use_shm": true}        # replies, then exits 0
    {"op": "crash"}                            # exits 70 without replying
    {"op": "hang"}                             # stops reading (watchdog test)

Responses: ``{"ok": true, ...}`` or ``{"ok": false, "error": "..."}``.

``status`` reports the process's ``pid``, so a controller can see that
an upgrade really replaced the process.

A malformed request gets an error response; an unexpected internal error
also gets an error response (the worker keeps serving) — only
``shutdown``/``crash`` end the process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.disk.backup import DiskBackup
from repro.query.aggregate import partial_to_wire
from repro.query.query import Query
from repro.server.leaf import LeafServer
from repro.util.checksum import rows_digest


def _handle(leaf: LeafServer, request: dict) -> dict:
    op = request.get("op")
    if op == "start":
        report = leaf.start()
        return {
            "ok": True,
            "method": report.method.value,
            "rows": report.rows,
            "tables": report.tables,
            "timeline": [event._asdict() for event in report.events],
        }
    if op == "status":
        return {
            "ok": True,
            "status": leaf.status.value,
            "version": leaf.version,
            "rows": leaf.leafmap.row_count,
            "used_bytes": leaf.used_bytes,
            "free_memory": leaf.free_memory,
            "pid": os.getpid(),
        }
    if op == "digest":
        snapshot = leaf.leafmap.snapshot_rows()
        return {
            "ok": True,
            "digest": rows_digest(snapshot),
            "rows": sum(len(rows) for rows in snapshot.values()),
        }
    if op == "add_rows":
        added = leaf.add_rows(request["table"], request["rows"])
        return {"ok": True, "added": added}
    if op == "query":
        execution = leaf.query(Query.from_dict(request["query"]))
        return {
            "ok": True,
            "partial": partial_to_wire(execution.partial),
            "rows_scanned": execution.rows_scanned,
            "blocks_pruned": execution.blocks_pruned,
        }
    if op == "sync":
        return {"ok": True, "rows_synced": leaf.sync_to_disk()}
    if op == "expire":
        return {"ok": True, "rows_dropped": leaf.expire(request["retention_seconds"])}
    raise ValueError(f"unknown op {op!r}")


def serve(leaf: LeafServer, stdin=None, stdout=None) -> int:
    """Serve requests until shutdown/crash/EOF; returns the exit code."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    for line in iter(stdin.readline, ""):
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            _reply(stdout, {"ok": False, "error": f"bad json: {exc}"})
            continue
        op = request.get("op")
        if op == "shutdown":
            try:
                use_shm = request.get("use_shm", True)
                report = leaf.shutdown(use_shm=use_shm)
                _reply(
                    stdout,
                    {
                        "ok": True,
                        "used_shm": report is not None,
                        "bytes_copied": report.bytes_copied if report else 0,
                    },
                )
                return 0
            except Exception as exc:  # failed copy == dirty death
                _reply(stdout, {"ok": False, "error": str(exc)})
                return 1
        if op == "crash":
            return 70  # die without replying, heap evaporates
        if op == "hang":
            time.sleep(3600)  # the watchdog will kill us
            return 1
        try:
            _reply(stdout, _handle(leaf, request))
        except Exception as exc:
            _reply(stdout, {"ok": False, "error": f"{type(exc).__name__}: {exc}"})
    return 0  # EOF: controller went away; exit quietly


def _reply(stdout, payload: dict) -> None:
    stdout.write(json.dumps(payload) + "\n")
    stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro leaf server worker")
    parser.add_argument("--leaf-id", required=True)
    parser.add_argument("--backup-dir", required=True)
    parser.add_argument("--namespace", default="scuba")
    parser.add_argument("--version", default="v1")
    parser.add_argument("--rows-per-block", type=int, default=None)
    parser.add_argument("--capacity-bytes", type=int, default=64 << 20)
    args = parser.parse_args(argv)
    leaf = LeafServer(
        args.leaf_id,
        backup=DiskBackup(args.backup_dir),
        namespace=args.namespace,
        capacity_bytes=args.capacity_bytes,
        rows_per_block=args.rows_per_block,
        version=args.version,
    )
    return serve(leaf)


if __name__ == "__main__":
    sys.exit(main())
