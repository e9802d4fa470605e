"""E16 (extension) — serve-while-restoring availability.

The paper's shm restart blocks queries until the last byte is copied
back (§4.3).  E16 measures the lazy alternative: the leaf publishes its
block directory, flips to ``RECOVERING_MEMORY_SERVING``, and answers a
dashboard-shaped query by faulting in only the blocks the query touches
while the rest fills in behind it.

It measures availability, not throughput.  The first query must be
answered with **under 25%** of the leaf's bytes restored — and must
actually match rows, so a window that touches no data cannot pass
vacuously — and the fully-restored leaf must be digest-identical to a
blocking restore of the same shared-memory image.  A second leg turns
the background sweep on and sends no queries: an idle leaf must still
reach ALIVE with the same digest.
"""

from __future__ import annotations

from repro.experiments import (
    Gate,
    build_payload,
    dashboard_query,
    digest,
    require,
    timed,
    workspace,
)
from repro.server.machine import Machine
from repro.sim import paper_profile, simulate_leaf_restart
from repro.workloads import service_requests

ROWS = 4_000
LEAVES = 4
ROWS_PER_BLOCK = 64
#: First answer must land with less than this share of bytes restored
#: (shared with E18, which asks the same of the wire).
FRACTION_CEILING = 0.25

GATES = (
    "first dashboard answer",
    "lazy vs blocking restore digests",
    "time-to-serving vs blocking restore (sweep thread, no queries)",
    "simulated paper-scale leaf: unavailability window",
)


def _digests(machine: Machine) -> list[str]:
    return [digest(leaf.leafmap) for leaf in machine.leaves]


def _blocking_baseline(machine: Machine, label: str):
    """Blocking restart (unavailable until the last byte), the digests it
    produces, and the leaves shut down again the same way."""
    blocking = machine.restart_all()
    require(
        not blocking.failures,
        f"[{label}] blocking restart failed: "
        + "; ".join(str(o.error) for o in blocking.failures),
    )
    digests = _digests(machine)
    machine.shutdown_all()
    return blocking, digests


def run(rows: int = ROWS, leaves: int = LEAVES) -> dict:
    leaves = max(1, leaves)
    rows_per_leaf = max(1, rows // leaves)
    data = list(service_requests(rows_per_leaf))
    dashboard = dashboard_query(data)
    gates: list[Gate] = []

    def build(tmp, namespace, tag: str) -> Machine:
        machine = Machine(
            "e16",
            tmp / tag,
            leaves_per_machine=leaves,
            namespace=f"{namespace}-{tag}",
            rows_per_block=ROWS_PER_BLOCK,
            shared_tracker=True,
        )
        machine.start_all()
        for leaf in machine.leaves:
            leaf.add_rows("service_requests", data)
            leaf.leafmap.seal_all()
        return machine

    with workspace() as (tmp, namespace):
        machine = build(tmp, namespace, "query")
        data_bytes = machine.nbytes
        blocking, digests = _blocking_baseline(machine, "query")

        # Bring each leaf to serving and query it before the sweep runs
        # (``sweep=False`` keeps the reading deterministic).
        worst_fraction = 0.0
        first_answer_s = 0.0
        queries_served = 0
        matched = []
        for leaf in machine.leaves:

            def serve_and_ask(leaf=leaf):
                leaf.start(serve_while_restoring=True, sweep=False)
                return leaf.query(dashboard)

            seconds, answer = timed(serve_and_ask)
            first_answer_s = max(first_answer_s, seconds)
            report = leaf.last_restart_report
            worst_fraction = max(worst_fraction, report.fraction_restored)
            queries_served += report.queries_served_during_restore
            matched.append(answer.rows_matched)
            leaf.wait_restored()
        rows_matched = min(matched)
        fully_restored = all(
            leaf.last_restart_report.fraction_restored == 1.0
            for leaf in machine.leaves
        )
        digests_match = _digests(machine) == digests
        gates.append(
            Gate(
                "first dashboard answer",
                f"< {FRACTION_CEILING:.0%} of bytes restored, rows matched",
                f"{worst_fraction:.1%} restored, {rows_matched} rows "
                f"matched, {first_answer_s * 1000:.1f} ms to answer "
                f"(blocking restore {blocking.restore_seconds * 1000:.1f} ms)",
                worst_fraction < FRACTION_CEILING
                and rows_matched > 0
                and queries_served >= leaves,
            )
        )
        gates.append(
            Gate(
                "lazy vs blocking restore digests",
                "identical, 100% restored",
                "identical" if digests_match else "DIVERGED",
                digests_match and fully_restored,
            )
        )
        first_answer = {
            "rows_per_leaf": rows_per_leaf,
            "fraction_restored_at_first_query": worst_fraction,
            "rows_matched_at_first_query": rows_matched,
            "first_answer_seconds": first_answer_s,
            "blocking_restore_seconds": blocking.restore_seconds,
            "queries_served_during_restore": queries_served,
            "digests_match": digests_match,
        }

        # Availability must not depend on query traffic: sweep thread
        # on, no queries, every leaf still ends ALIVE and identical.
        machine = build(tmp, namespace, "sweep")
        blocking, digests = _blocking_baseline(machine, "sweep")
        serving_s, _ = timed(lambda: machine.start_all(serve_while_restoring=True))
        fill_s, _ = timed(machine.wait_restored_all)
        idle_ok = (
            all(
                leaf.last_restart_report.fraction_restored == 1.0
                for leaf in machine.leaves
            )
            and _digests(machine) == digests
        )
    gates.append(
        Gate(
            "time-to-serving vs blocking restore (sweep thread, no queries)",
            "serving before the copy finishes; idle leaf completes, identical",
            f"serving in {serving_s * 1000:.1f} ms, background fill "
            f"{fill_s * 1000:.1f} ms, blocking "
            f"{blocking.restore_seconds * 1000:.1f} ms",
            idle_ok,
        )
    )

    # At paper scale the unavailability window drops from the full
    # copy-back to the directory publish; the copy-back itself does not
    # disappear — it moves behind query service.
    profile = paper_profile()
    sim_blocking = simulate_leaf_restart(profile, "shm")
    sim_lazy = simulate_leaf_restart(profile, "shm_lazy")
    gates.append(
        Gate(
            "simulated paper-scale leaf: unavailability window",
            "publish overhead only",
            f"{sim_lazy.total_seconds:.1f} s serving vs "
            f"{sim_blocking.total_seconds:.1f} s blocking "
            f"({sim_lazy.background_fill_seconds:.1f} s fill in background)",
            sim_lazy.total_seconds < sim_blocking.total_seconds
            and sim_lazy.background_fill_seconds == sim_blocking.copy_in_seconds
            and sim_blocking.total_seconds - sim_lazy.total_seconds
            == sim_blocking.copy_in_seconds - profile.lazy_publish_overhead_s,
        )
    )
    return build_payload(
        "E16",
        gates,
        rows=rows,
        leaves=leaves,
        compressed_bytes=data_bytes,
        first_answer=first_answer,
        idle_sweep={
            "serving_seconds": serving_s,
            "background_fill_seconds": fill_s,
            "blocking_restore_seconds": blocking.restore_seconds,
        },
    )
