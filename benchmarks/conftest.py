"""Benchmark fixtures.

Every experiment records its paper-vs-measured comparison in a plain
``results_summary.txt`` next to this file (one line per recorded fact),
so the numbers survive pytest's output capture; the simulator-only
experiments also fill ``benchmark.extra_info`` (pytest-benchmark's
JSON).  The summary is appended
to, never truncated: separate pytest invocations (CI's smoke steps)
accumulate into one file, and it is untracked — delete it to start
over.

E1 and E12-E18 are defined once in :mod:`repro.experiments`; their
benchmark files name that definition as ``EXPERIMENT`` and hand each of
its gates to ``check_gate`` — no timing and no floor lives here.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path

import pytest

from repro.experiments import write_payload
from repro.util.clock import ManualClock

RESULTS_PATH = Path(__file__).parent / "results_summary.txt"
SHM_DIR = Path("/dev/shm")


@pytest.fixture(scope="session")
def record_result():
    """Append one ``experiment | quantity | paper | measured`` line."""

    def _record(experiment: str, quantity: str, paper: str, measured: str) -> None:
        with open(RESULTS_PATH, "a") as fh:
            fh.write(f"{experiment} | {quantity} | paper: {paper} | measured: {measured}\n")

    return _record


@pytest.fixture(scope="module")
def payload(request):
    """The test module's ``EXPERIMENT`` at the benchmark's sizes, run once
    for all of its gates and archived where ``BENCH_<EXPERIMENT>_JSON``
    says (CI uploads the file)."""
    experiment = request.module.EXPERIMENT
    result = experiment.run()
    write_payload(result)
    assert [gate["name"] for gate in result["gates"]] == list(experiment.GATES)
    return result


@pytest.fixture(scope="session")
def check_gate(record_result):
    """Record one gate of an experiment's payload and hold it to its claim.

    A gate the host cannot show (``enforced`` false: too few cores) is
    reported as skipped with its measurement instead of asserted.
    """

    def _check(payload: dict, name: str) -> None:
        gate = next(g for g in payload["gates"] if g["name"] == name)
        record_result(payload["experiment"], name, gate["paper"], gate["measured"])
        if not gate["enforced"]:
            pytest.skip(
                f"measured {gate['measured']}; claim {gate['paper']} is not "
                f"enforced on {payload['cpu_count']} cores"
            )
        assert gate["ok"], f"{name}: measured {gate['measured']}, claim {gate['paper']}"

    return _check


@pytest.fixture
def shm_namespace():
    namespace = f"reprobench-{uuid.uuid4().hex[:10]}"
    yield namespace
    if SHM_DIR.is_dir():
        for path in SHM_DIR.iterdir():
            if path.name.startswith(namespace):
                try:
                    os.unlink(path)
                except OSError:
                    pass


@pytest.fixture
def clock():
    return ManualClock(1_390_000_000.0)
