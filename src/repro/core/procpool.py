"""The process-pool restart backend: one GIL per copy stream.

The thread backend's copies are pure-Python ``memoryview`` writes, so no
matter how many workers the pool has, the GIL admits roughly one memcpy
stream at a time.  This module fans a machine's leaves over *forked
worker processes* instead: each worker inherits the coordinator's leaf
objects copy-on-write, attaches the machine's named shm segments with
``ShmSegment.attach``, and runs its assigned leaves' shutdown or restore
with its own interpreter — the streams are truly concurrent, bounded
only by memory bandwidth and the shared footprint budget.

Phase mechanics:

- **shutdown**: the worker runs the real ``leaf.shutdown(use_shm=True)``
  against its copy of the heap and exits.  Exactly like a real leaf
  process shutting down, the process's heap dies with it and the named
  segments (valid bit last) are what survive.  The coordinator then
  calls ``leaf.absorb_process_shutdown()`` on its stand-in objects.
- **restore**: the worker attaches each leaf's segments and restores
  into a scratch leaf map with ``preserve_shm=True`` — every block is
  decoded, verified, and bulk-copied into the worker's heap (the full
  Figure 7 copy cost), the valid bit is set back to True, and the
  segments are kept for the serving process to adopt.  A worker killed
  mid-restore leaves the valid bit down, so that leaf's next start
  walks the disk ladder; see ``ParallelRestartCoordinator.adopt_all``.

Results are marshalled back over a pipe per worker, one message per
leaf, so a worker death loses only the outcomes it had not yet sent.
The coordinator converts missing outcomes into failed
:class:`~repro.core.parallel.RestartOutcome`\\ s carrying
:class:`~repro.errors.WorkerCrashedError`, and tells the shared budget
to reclaim anything the corpse still held.

Fork, not spawn: leaf objects (locks, clocks, fault hooks and all) cross
into the worker by address-space copy, and the shared budget's
``multiprocessing`` condition is inherited rather than pickled.  That is
also why this backend refuses to run where fork is unavailable.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.connection import wait as connection_wait
from typing import TYPE_CHECKING, Sequence

from repro.columnstore.leafmap import LeafMap
from repro.core.parallel import RestartOutcome
from repro.core.watchdog import CooperativeDeadline
from repro.errors import ReproError, WorkerCrashedError

if TYPE_CHECKING:
    from repro.server.leaf import LeafServer

#: How long the coordinator waits for worker traffic before concluding
#: every still-silent worker is wedged.  Generous: the per-leaf shutdown
#: deadline (3 minutes in the paper) governs the workers themselves.
DEFAULT_JOIN_TIMEOUT_SECONDS = 300.0


def require_fork_context() -> multiprocessing.context.BaseContext:
    """The fork context, or a clear error where fork does not exist."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError as exc:  # pragma: no cover - non-POSIX platforms
        raise ReproError(
            "the process restart backend needs fork-based multiprocessing"
        ) from exc


def partition_leaves(count: int, workers: int) -> list[list[int]]:
    """Split ``count`` leaf indexes into at most ``workers`` round-robin
    shares.  Round-robin, not contiguous chunks: neighbouring leaves are
    often similar sizes, and striping spreads them evenly."""
    workers = max(1, min(workers, count))
    shares: list[list[int]] = [[] for _ in range(workers)]
    for index in range(count):
        shares[index % workers].append(index)
    return shares


def _run_one(
    leaf: "LeafServer",
    phase: str,
    use_shm: bool,
    memory_recovery_enabled: bool,
    deadline_seconds: float | None,
    serve_while_restoring: bool,
):
    if phase == "shutdown":
        deadline = (
            CooperativeDeadline(timeout=deadline_seconds, clock=leaf.clock)
            if deadline_seconds is not None
            else None
        )
        return leaf.shutdown(use_shm=use_shm, deadline=deadline)
    # Restore into a scratch map: this address space is transient, the
    # point is the verified parallel copy and the re-armed valid bit.
    # Either entry point is the same driver drained; which one was asked
    # for only decides what the report marshalled home says (``lazy``).
    scratch = LeafMap(clock=leaf.clock, rows_per_block=leaf.rows_per_block)
    if not serve_while_restoring:
        return leaf.engine.restore(
            scratch,
            memory_recovery_enabled=memory_recovery_enabled,
            preserve_shm=True,
        )
    handle = leaf.engine.begin_lazy_restore(
        scratch,
        memory_recovery_enabled=memory_recovery_enabled,
        preserve_shm=True,
    )
    handle.drain()
    return handle.report


def _worker_main(
    conn,
    leaves: "Sequence[LeafServer]",
    indices: Sequence[int],
    phase: str,
    use_shm: bool,
    memory_recovery_enabled: bool,
    deadline_seconds: float | None,
    serve_while_restoring: bool,
) -> None:
    """Worker body (runs in the forked child)."""
    for index in indices:
        leaf = leaves[index]
        started = time.perf_counter()
        try:
            report = _run_one(
                leaf,
                phase,
                use_shm,
                memory_recovery_enabled,
                deadline_seconds,
                serve_while_restoring,
            )
            conn.send(
                (index, report, None, time.perf_counter() - started)
            )
        except Exception as exc:
            conn.send(
                (
                    index,
                    None,
                    f"{type(exc).__name__}: {exc}",
                    time.perf_counter() - started,
                )
            )
    conn.close()


def run_process_phase(
    leaves: "Sequence[LeafServer]",
    phase: str,
    max_workers: int,
    budget=None,
    use_shm: bool = True,
    memory_recovery_enabled: bool = True,
    deadline_seconds: float | None = None,
    serve_while_restoring: bool = False,
    join_timeout: float = DEFAULT_JOIN_TIMEOUT_SECONDS,
) -> list[RestartOutcome]:
    """Run one phase of the parallel restart across forked workers.

    Returns one :class:`RestartOutcome` per leaf, in leaf order; never
    raises for per-leaf or per-worker failures.  A leaf whose worker
    died before reporting gets a failed outcome with
    :class:`WorkerCrashedError`, and the budget (when it supports
    ``reclaim_process``) recovers whatever the corpse had in flight.
    """
    if phase not in ("shutdown", "restore"):
        raise ValueError(f"unknown process phase {phase!r}")
    ctx = require_fork_context()
    leaves = list(leaves)
    shares = partition_leaves(len(leaves), max_workers)

    # Install the budget pre-fork so every worker inherits it on the
    # engines themselves — the same seam the thread backend uses.
    for leaf in leaves:
        leaf.engine.budget = budget
    jobs = []  # (receiver, process, indices)
    try:
        for indices in shares:
            receiver, sender = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    sender,
                    leaves,
                    indices,
                    phase,
                    use_shm,
                    memory_recovery_enabled,
                    deadline_seconds,
                    serve_while_restoring,
                ),
            )
            proc.start()
            sender.close()  # the child's copy keeps the pipe open
            jobs.append((receiver, proc, indices))
    finally:
        for leaf in leaves:
            leaf.engine.budget = None

    results: dict[int, tuple] = {}
    pid_by_receiver = {receiver: proc.pid for receiver, proc, _ in jobs}
    pending = {receiver for receiver, _, _ in jobs}
    deadline = time.monotonic() + join_timeout
    while pending:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break  # wedged workers are handled as crashes below
        for receiver in connection_wait(list(pending), timeout=remaining):
            try:
                index, report, error, seconds = receiver.recv()
            except EOFError:
                pending.discard(receiver)
                receiver.close()
                continue
            results[index] = (report, error, seconds, pid_by_receiver[receiver])

    by_index: dict[int, RestartOutcome] = {}
    for receiver, proc, indices in jobs:
        # A worker wedged past the collection deadline leaves its
        # receiver in `pending` without an EOF; close unconditionally
        # (idempotent) so a crashed phase cannot leak pipe fds.
        receiver.close()
        proc.join(timeout=5.0)
        if proc.is_alive():  # wedged past the join timeout: treat as dead
            proc.kill()
            proc.join()
        if proc.exitcode != 0 and budget is not None:
            reclaim = getattr(budget, "reclaim_process", None)
            if reclaim is not None:
                reclaim(proc.pid)
        for index in indices:
            leaf = leaves[index]
            if index in results:
                report, error, seconds, pid = results[index]
                by_index[index] = RestartOutcome(
                    leaf.leaf_id,
                    report=report,
                    error=ReproError(error) if error else None,
                    duration_seconds=seconds,
                    worker_pid=pid,
                )
            else:
                by_index[index] = RestartOutcome(
                    leaf.leaf_id,
                    error=WorkerCrashedError(
                        f"worker pid {proc.pid} (exit code {proc.exitcode}) "
                        f"died before finishing {phase} of leaf {leaf.leaf_id}"
                    ),
                    worker_pid=proc.pid,
                )
    return [by_index[index] for index in range(len(leaves))]


__all__ = [
    "DEFAULT_JOIN_TIMEOUT_SECONDS",
    "partition_leaves",
    "require_fork_context",
    "run_process_phase",
]
