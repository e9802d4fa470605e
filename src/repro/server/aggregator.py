"""The aggregator server.

"The aggregator servers distribute a query to all leaves and then
aggregate the results as they arrive from the leaves."  When some leaves
are restarting, the aggregator returns what the live leaves provided and
records the shortfall — the partial-result behaviour that makes rolling
restarts tolerable in the first place.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import StateError
from repro.query.aggregate import merge_leaf_results, merge_partials
from repro.query.execute import LeafExecution
from repro.query.query import Query, QueryResult
from repro.server.leaf import LeafServer


class Aggregator:
    """Fans one query out over a set of leaves and merges the partials.

    Aggregators compose into a tree (:class:`AggregatorTree`): a machine
    aggregator merges its local leaves' partials, and a root aggregator
    merges the machine-level partials — Figure 1's "Query aggregator /
    Leaf" structure.

    With a ``replica_router`` (``leaf_id -> LeafServer | None``) set, a
    leaf that cannot answer — mid-restart, down — has its share of the
    query answered by its table-level replica instead, so results during
    a restart window stay *complete* rather than partial.
    """

    def __init__(
        self,
        leaves: list[LeafServer],
        replica_router: Callable[[str], LeafServer | None] | None = None,
    ) -> None:
        self._leaves = list(leaves)
        self.replica_router = replica_router
        #: How many leaf-queries were answered by a replica stand-in.
        self.failovers = 0

    def _execute_with_failover(
        self, leaf: LeafServer, query: Query
    ) -> LeafExecution | None:
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

    @property
    def leaves(self) -> list[LeafServer]:
        return list(self._leaves)

    def query(self, query: Query) -> QueryResult:
        """Run ``query`` on every leaf currently willing to answer.

        Leaves that are down or mid-memory-recovery simply do not
        contribute; the result's ``coverage`` reflects that.
        """
        partials = []
        responded = 0
        rows_scanned = 0
        blocks_pruned = 0
        for leaf in self._leaves:
            execution = self._execute_with_failover(leaf, query)
            if execution is None:
                # No primary and no replica stand-in: the leaf
                # contributes nothing and coverage reflects it.
                continue
            partials.append(execution.partial)
            responded += 1
            rows_scanned += execution.rows_scanned
            blocks_pruned += execution.blocks_pruned
        result = merge_leaf_results(
            query,
            partials,
            leaves_total=len(self._leaves),
            rows_scanned=rows_scanned,
            blocks_pruned=blocks_pruned,
        )
        result.leaves_responded = responded
        return result

    def query_partial(self, query: Query):
        """This aggregator's *mergeable* partial (for tree composition).

        Returns ``(partial, leaves_responded, leaves_total)`` where the
        partial is the merge of the live leaves' partials — the same
        shape a single leaf produces, so upper tree levels are oblivious
        to fan-in depth.
        """
        executions = [self._execute_with_failover(leaf, query) for leaf in self._leaves]
        partials = [execution.partial for execution in executions if execution is not None]
        return merge_partials(partials), len(partials), len(self._leaves)


class AggregatorTree:
    """A two-level aggregation tree: root over per-machine aggregators.

    "The aggregator servers distribute a query to all leaves and then
    aggregate the results as they arrive" — with hundreds of machines
    the root does not talk to every leaf directly; each machine's
    aggregator pre-merges its eight leaves and the root merges one
    partial per machine.  Results are identical to a flat merge (the
    aggregation states are associative), which the tests assert.
    """

    def __init__(self, machine_aggregators: list[Aggregator]) -> None:
        if not machine_aggregators:
            raise ValueError("an aggregation tree needs at least one aggregator")
        self._aggregators = list(machine_aggregators)

    def query(self, query: Query) -> QueryResult:
        partials = []
        responded = 0
        total = 0
        for aggregator in self._aggregators:
            partial, leaf_responded, leaf_total = aggregator.query_partial(query)
            partials.append(partial)
            responded += leaf_responded
            total += leaf_total
        result = merge_leaf_results(query, partials, leaves_total=total)
        result.leaves_responded = responded
        return result
