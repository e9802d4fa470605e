"""The tailer: pulls rows out of Scribe and routes batches to leaves.

Routing (paper, Section 2): "Every N rows or t seconds, the tailer
chooses a new Scuba leaf server and sends it a batch of rows.  How does
it choose a server?  It picks two servers randomly and asks them both for
their current state and how much free memory they have.  If both are
alive, it sends the data to the server with more free memory.  If only
one is alive, that server gets the data.  If neither server is alive, the
tailer will try two more servers until it finds one that is alive or
(after enough tries) sends the data to a restarting server."
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import RoutingError
from repro.ingest.scribe import ScribeLog
from repro.server.leaf import LeafServer
from repro.util.clock import Clock, SystemClock

#: "after enough tries": pairs of random servers probed before settling
#: for a restarting (disk-recovering) leaf.
DEFAULT_MAX_PAIR_TRIES = 5


@dataclass
class TailerStats:
    """Counters describing routing behaviour (experiment E10)."""

    batches_sent: int = 0
    rows_sent: int = 0
    sent_to_recovering: int = 0
    pair_probes: int = 0
    batches_per_leaf: dict[str, int] = field(default_factory=dict)
    rows_per_leaf: dict[str, int] = field(default_factory=dict)


class Tailer:
    """One tailer process feeding one table from one Scribe category."""

    def __init__(
        self,
        scribe: ScribeLog,
        category: str,
        table: str,
        leaves: list[LeafServer],
        batch_rows: int = 1000,
        batch_seconds: float = 10.0,
        max_pair_tries: int = DEFAULT_MAX_PAIR_TRIES,
        rng: random.Random | None = None,
        clock: Clock | None = None,
        mirror: Callable[[str, str, list], None] | None = None,
    ) -> None:
        if batch_rows < 1:
            raise ValueError("batch_rows must be positive")
        if not leaves:
            raise ValueError("a tailer needs at least one leaf to route to")
        self.scribe = scribe
        self.category = category
        self.table = table
        self.leaves = leaves
        self.batch_rows = batch_rows
        self.batch_seconds = batch_seconds
        self.max_pair_tries = max_pair_tries
        self._rng = rng or random.Random()
        self._clock = clock or SystemClock()
        self._cursor = 0
        self._last_flush = self._clock.now()
        self.stats = TailerStats()
        #: Called as ``mirror(leaf_id, table, rows)`` after each
        #: successful primary delivery; table-level replication hangs
        #: off this hook so the replica sees exactly the acknowledged
        #: batches, in order.
        self._mirror = mirror

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def choose_leaf(self) -> LeafServer:
        """Two-random-choices routing with alive/recovering fallback."""
        recovering_candidate: LeafServer | None = None
        for _ in range(self.max_pair_tries):
            pair = self._rng.sample(self.leaves, min(2, len(self.leaves)))
            self.stats.pair_probes += 1
            alive = [leaf for leaf in pair if leaf.is_alive]
            if len(alive) == 2:
                return max(alive, key=lambda leaf: leaf.free_memory)
            if len(alive) == 1:
                return alive[0]
            for leaf in pair:
                if leaf.accepts_adds and recovering_candidate is None:
                    recovering_candidate = leaf
        if recovering_candidate is not None:
            self.stats.sent_to_recovering += 1
            return recovering_candidate
        raise RoutingError(
            f"tailer for table '{self.table}' found no leaf accepting data "
            f"after {self.max_pair_tries} pair probes"
        )

    # ------------------------------------------------------------------
    # Pumping
    # ------------------------------------------------------------------

    @property
    def backlog(self) -> int:
        return self.scribe.backlog(self.category, self._cursor)

    def _flush_due(self) -> bool:
        if self.backlog >= self.batch_rows:
            return True
        return (
            self.backlog > 0
            and self._clock.now() - self._last_flush >= self.batch_seconds
        )

    def pump_once(self) -> int:
        """Send at most one batch; returns rows delivered."""
        if not self._flush_due():
            return 0
        rows, new_cursor = self.scribe.read(
            self.category, self._cursor, max_rows=self.batch_rows
        )
        if not rows:
            return 0
        leaf = self.choose_leaf()
        delivered = leaf.add_rows(self.table, rows)
        if self._mirror is not None:
            self._mirror(leaf.leaf_id, self.table, rows)
        # Advance the cursor only after a successful delivery: a leaf
        # that died mid-send leaves the batch unacknowledged and the rows
        # are re-read (at-least-once, like the real pipeline).
        self._cursor = new_cursor
        self._last_flush = self._clock.now()
        self.stats.batches_sent += 1
        self.stats.rows_sent += delivered
        self.stats.batches_per_leaf[leaf.leaf_id] = (
            self.stats.batches_per_leaf.get(leaf.leaf_id, 0) + 1
        )
        self.stats.rows_per_leaf[leaf.leaf_id] = (
            self.stats.rows_per_leaf.get(leaf.leaf_id, 0) + delivered
        )
        return delivered

    def drain(self) -> int:
        """Pump until the backlog is empty."""
        total = 0
        while self.backlog > 0:
            sent = self.pump_once()
            if sent == 0:
                # Below both thresholds: force the time-based flush by
                # treating drain as a flush boundary.
                rows, new_cursor = self.scribe.read(
                    self.category, self._cursor, max_rows=self.batch_rows
                )
                if not rows:
                    break
                leaf = self.choose_leaf()
                sent = leaf.add_rows(self.table, rows)
                if self._mirror is not None:
                    self._mirror(leaf.leaf_id, self.table, rows)
                self._cursor = new_cursor
                self.stats.batches_sent += 1
                self.stats.rows_sent += sent
                self.stats.batches_per_leaf[leaf.leaf_id] = (
                    self.stats.batches_per_leaf.get(leaf.leaf_id, 0) + 1
                )
                self.stats.rows_per_leaf[leaf.leaf_id] = (
                    self.stats.rows_per_leaf.get(leaf.leaf_id, 0) + sent
                )
            total += sent
        return total
