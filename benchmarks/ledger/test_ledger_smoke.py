"""Smoke test for the restart ledger.

Not under ``testpaths``, so tier-1 never runs it.  Run it explicitly,
without the E-benchmarks' conftest (that one deletes
``benchmarks/results_summary.txt`` at session start)::

    python -m pytest --noconftest -q benchmarks/ledger/test_ledger_smoke.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Per-layer metric prefixes that must read zero: the layers each
#: workload is said to bypass.
BYPASSED = {
    "upgrade_shm": (
        "cluster.replication.",
        "core.replicarestore.",
        "disk.recovery.",
        "disk.replay.",
        "disk.shmformat.read",
        "disk.format.decode",
    ),
    "crash_snapshot": (
        "shm.",
        "cluster.replication.",
        "core.replicarestore.",
        "core.lazyrestore.",
        "disk.replay.",
        "disk.recovery.recover_leafmap",
        "disk.format.decode",
    ),
    "crash_legacy": (
        "shm.",
        "cluster.replication.",
        "core.replicarestore.",
        "core.lazyrestore.",
        "disk.recovery.materialize",
        "disk.shmformat.read",
        "disk.replay.replay_leafmap",
    ),
    "crash_replica": (
        "shm.",
        "core.lazyrestore.",
        "disk.recovery.",
        "disk.replay.",
        "disk.shmformat.read",
        "disk.format.decode",
    ),
}
RUNG = {
    "upgrade_shm": "shared_memory",
    "crash_snapshot": "disk_snapshot",
    "crash_legacy": "disk",
    "crash_replica": "replica",
}


def left_running(session: int) -> list[str]:
    """Command lines of the processes still in ``session``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            # pid (comm) state ppid pgrp session ...; comm may hold spaces
            fields = (entry / "stat").read_text().rpartition(")")[2].split()
            if int(fields[3]) == session:
                found.append((entry / "cmdline").read_text().replace("\0", " ") or entry.name)
        except (OSError, ValueError, IndexError):
            continue  # ended while we looked
    return found


def smoke(workload: str, trace: int, seed: int = 7) -> dict:
    # Its own session, so that whatever the run leaves behind can be
    # told from every other process on the box.
    with subprocess.Popen(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--smoke",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        start_new_session=True,
    ) as done:
        try:
            stdout, stderr = done.communicate(timeout=180)
        except subprocess.TimeoutExpired:
            done.kill()
            raise
    assert left_running(done.pid) == [], "the run left a process behind"
    assert done.returncode == 0, stderr
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result["metrics"]


def test_benchmark_json_names():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    first, second = smoke(workload, 0), smoke(workload, 0)
    assert list(first) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        cell = first[metric["name"]]
        assert cell["unit"] == metric["unit"]
        assert cell["value"] > 0
    for exact in ("restart_peak_ratio", "disk_bytes_per_user_byte"):
        assert first[exact]["value"] == second[exact]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    first, second = smoke(workload, 1), smoke(workload, 1)
    assert list(first) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert first[metric["name"]]["unit"] == metric["unit"]
    rungs = {name: cell["value"] for name, cell in first.items() if ".rung." in name}
    assert rungs == {name: second[name]["value"] for name in rungs}
    assert [name for name, count in rungs.items() if count] == [
        f"core.engine.rung.{RUNG[workload]}"
    ]
    assert first["core.engine.fallbacks"]["value"] == 0
    for name, cell in first.items():
        if name.startswith(BYPASSED[workload]):
            assert cell["value"] == 0, f"{workload} should bypass {name}"
