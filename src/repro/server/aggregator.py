"""The aggregator server.

"The aggregator servers distribute a query to all leaves and then
aggregate the results as they arrive from the leaves."  When some leaves
are restarting, the aggregator returns what the live leaves provided and
records the shortfall — the partial-result behaviour that makes rolling
restarts tolerable in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import StateError
from repro.query.aggregate import LeafPartial, merge_leaf_results
from repro.query.execute import LeafExecution
from repro.query.query import Query, QueryResult
from repro.server.leaf import LeafServer


@dataclass
class _Share:
    """What a fan-out has gathered so far: the answering leaves'
    partials in member order, and the counts the result reports."""

    partials: list[LeafPartial] = field(default_factory=list)
    leaves_total: int = 0
    rows_scanned: int = 0
    blocks_pruned: int = 0


class Aggregator:
    """Fans one query out over its members and merges the partials.

    A member is a leaf — anything with ``accepts_queries`` and a
    ``query`` returning a :class:`LeafExecution`: an in-process
    :class:`~repro.server.leaf.LeafServer` or a worker process's
    :class:`~repro.server.process_client.LeafProcess` — or a child
    aggregator.  Aggregators compose into a tree that way: a machine
    aggregator over its local leaves, a root aggregator over the machine
    aggregators — Figure 1's "Query aggregator / Leaf" structure.  A
    child hands up its leaves' partials, counts and scan statistics
    rather than a finished answer, and the root folds every partial in
    member order, so a tree answers bit for bit as the flat aggregator
    over the same leaves does.

    With a ``replica_router`` (``leaf_id -> LeafServer | None``) set, a
    leaf that cannot answer — mid-restart, down — has its share of the
    query answered by its table-level replica instead, so results during
    a restart window stay *complete* rather than partial.  A child
    aggregator's leaves fail over through the child's router.
    """

    def __init__(
        self,
        members: list,
        replica_router: Callable[[str], LeafServer | None] | None = None,
    ) -> None:
        if not members:
            raise ValueError("an aggregator needs at least one member")
        self.members = list(members)
        self.replica_router = replica_router
        #: How many leaf-queries were answered by a replica stand-in.
        self.failovers = 0

    def _execute_with_failover(self, leaf, query: Query) -> LeafExecution | None:
        """Run ``query`` on ``leaf``, or on its replica when it cannot.

        Returns ``None`` only when neither the primary nor a routed
        replica is willing — the caller counts that as a non-response.
        """
        if leaf.accepts_queries:
            try:
                return leaf.query(query)
            except StateError:
                # The leaf began restarting between the gate check and
                # the call; fall through to the replica, if any.
                pass
        router = self.replica_router
        if router is None:
            return None
        replica = router(leaf.leaf_id)
        if replica is None or not replica.accepts_queries:
            return None
        try:
            execution = replica.query(query)
        except StateError:
            return None
        self.failovers += 1
        return execution

    def _gather(self, query: Query, share: _Share) -> None:
        """Add every member's answer to ``share``, in member order."""
        for member in self.members:
            if isinstance(member, Aggregator):
                member._gather(query, share)
                continue
            share.leaves_total += 1
            execution = self._execute_with_failover(member, query)
            if execution is None:
                # No primary and no replica stand-in: the leaf
                # contributes nothing and coverage reflects it.
                continue
            share.partials.append(execution.partial)
            share.rows_scanned += execution.rows_scanned
            share.blocks_pruned += execution.blocks_pruned

    def query(self, query: Query) -> QueryResult:
        """Run ``query`` on every leaf currently willing to answer.

        Leaves that are down or mid-memory-recovery simply do not
        contribute; the result's ``coverage`` reflects that.
        """
        share = _Share()
        self._gather(query, share)
        return merge_leaf_results(
            query,
            share.partials,
            leaves_total=share.leaves_total,
            rows_scanned=share.rows_scanned,
            blocks_pruned=share.blocks_pruned,
        )
