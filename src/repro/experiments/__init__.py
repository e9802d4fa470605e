"""The measured experiments, one definition each.

``e1``, ``e12``, ``e13``, ``e15``, ``e16``, ``e17`` and ``e18`` each
expose one ``run(...) -> dict``: build the scaled-down system, measure,
and return the ``BENCH_eNN.json`` payload.  ``repro bench-restart`` /
``repro bench-query`` print that payload and
``benchmarks/test_bench_eNN_*.py`` assert its ``gates`` — neither times
anything or knows a floor.  Every acceptance floor of an experiment is
one :class:`Gate` built inside its ``run``; ``enforced`` is derived from
what the run can observe (the host's core count), never from a flag.

This module is the shared core: the gate record, the one timing helper,
the dashboard probe query, the payload writer and the scratch workspace.
Submodules are imported by name (``from repro.experiments import e12``).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import uuid
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TypeVar

from repro.columnstore.leafmap import LeafMap
from repro.core.engine import RestartEngine, RestartReport
from repro.query.query import Aggregation, Query
from repro.util.checksum import rows_digest

T = TypeVar("T")

#: Every shm segment and temp dir an experiment creates starts with this.
NAMESPACE_PREFIX = "reproexp"
#: Wall-clock floors that need workers running truly in parallel are
#: enforced from this many cores up; below it the ratio is only recorded.
MULTICORE = 4


class ExperimentError(RuntimeError):
    """The harness itself broke (a baseline restart failed, a snapshot
    was not fresh): there is no measurement to gate."""


@dataclass(frozen=True)
class Gate:
    """One acceptance floor: what the paper (or the issue that added the
    experiment) claims, what this run measured, and whether it held."""

    name: str
    paper: str
    measured: str
    ok: bool
    #: False where this host cannot show the effect (too few cores); the
    #: measurement is still recorded and a miss does not fail the run.
    enforced: bool = True


def cpu_count() -> int:
    return os.cpu_count() or 1


def multicore(workers: int = MULTICORE) -> bool:
    """Whether a multi-core wall-clock floor is enforced: the host has
    the cores and the run uses at least that many workers."""
    return min(cpu_count(), workers) >= MULTICORE


def require(condition: bool, message: str) -> None:
    if not condition:
        raise ExperimentError(message)


def timed(fn: Callable[[], T], repeats: int = 1) -> tuple[float, T]:
    """Best wall-clock seconds over ``repeats`` calls of ``fn``, and the
    last call's result (``fn`` builds whatever fresh state it needs)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def ratio(numerator: float, denominator: float) -> float:
    return numerator / max(denominator, 1e-9)


def dashboard_query(data: Sequence[dict]) -> Query:
    """Count over the newest half minute of ``data`` — a couple of the
    newest blocks out of the many a leaf holds, the shape of a dashboard
    refresh.  ``newest`` is read from the rows, not guessed from a count."""
    newest = data[-1]["time"]
    return Query(
        table="service_requests",
        start_time=newest - 30,
        end_time=newest + 1,
        aggregations=[Aggregation("count", None)],
    )


def digest(leafmap: LeafMap) -> str:
    """The content digest every route of an experiment must agree on."""
    return rows_digest(leafmap.snapshot_rows())


def engine_restore(
    backup, namespace: str, rows_per_block: int
) -> tuple[RestartReport, LeafMap]:
    """Restore a fresh leaf map through the restart engine's ladder."""
    restored = LeafMap(rows_per_block=rows_per_block)
    engine = RestartEngine("leaf", namespace=namespace, backup=backup)
    return engine.restore(restored), restored


@contextmanager
def workspace() -> Iterator[tuple[Path, str]]:
    """A scratch directory and a unique shm namespace for one run.

    Both are gone on exit, also when the run raises midway: segments
    outlive their creator by design (paper §4.2), so whatever still
    carries the namespace in ``/dev/shm`` is unlinked here.
    """
    namespace = f"{NAMESPACE_PREFIX}-{uuid.uuid4().hex[:8]}"
    try:
        with tempfile.TemporaryDirectory(prefix=f"{namespace}-") as tmp:
            yield Path(tmp), namespace
    finally:
        shm_dir = Path("/dev/shm")
        if shm_dir.is_dir():
            for path in shm_dir.iterdir():
                if path.name.startswith(namespace):
                    with suppress(OSError):
                        path.unlink()


def build_payload(experiment: str, gates: Sequence[Gate], **fields) -> dict:
    """The common ``BENCH_eNN.json`` shape: experiment id and core count
    first, the experiment's own fields, then its gates."""
    return {
        "experiment": experiment,
        "cpu_count": cpu_count(),
        **fields,
        "gates": [asdict(gate) for gate in gates],
    }


def write_payload(payload: dict, path: str | None = None) -> str | None:
    """Write ``payload`` as JSON; returns the path written, if any.

    With no ``path`` the environment opts in: ``BENCH_<EXPERIMENT>_JSON``
    names the file (CI sets it and uploads the result) and nothing is
    written when it is unset — the normal local run.
    """
    path = path or os.environ.get(f"BENCH_{payload['experiment'].upper()}_JSON")
    if not path:
        return None
    with open(path, "w") as fh:
        json.dump({**payload, "cpu_count": cpu_count()}, fh, indent=2)
    return path
