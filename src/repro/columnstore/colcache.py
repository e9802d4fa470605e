"""The decoded-column cache: (row block, column) → :class:`DecodedColumn`.

Dashboard traffic is repetitive — the same handful of queries over the
same recent blocks, refreshed every few seconds.  Without a cache every
refresh re-decompresses the same RBC buffers; with one, a sealed block's
column is decoded once and every later query that names it gets the
arrays back in a dict lookup.

Design constraints, in paper order:

- **Byte-capped, oldest data out first.**  Decoded arrays are the
  *uncompressed* data, so an unbounded cache would silently undo the 30x
  compression win.  The victim is the lowest rank ``(block.max_time,
  block.uid, name)``, not the least recently used entry: a grouped query
  scans every block, and an LRU smaller than that scan evicts each entry
  just before its reuse.  Ranked by age, a cyclic scan keeps the newest
  blocks, which dashboards re-read and expiry takes last.  A candidate
  that could only make room by evicting newer data is refused.
- **Charged to the leaf's** :class:`~repro.util.memtrack.MemoryTracker`
  (region ``"cache"``), so the Section 4.4 footprint claim stays
  checkable: the cache's bytes are visible next to heap and shm, and the
  restart engine drops them before the copy loop starts.
- **Keyed by block uid, not identity.**  Row blocks are immutable, so an
  entry can never go stale — but blocks *leave* (expiry, size limits,
  ``take_blocks`` during shutdown, restore fallbacks), and their entries
  must leave with them or the bytes linger forever.  Tables call
  :meth:`invalidate_blocks` at every point a block exits.
- **Lock-guarded.**  Queries may run concurrently with expiry and with
  lifecycle transitions on other threads; every attribute is touched
  only under ``self._lock`` (the ``pytest --reprosan`` lockset checks
  this at runtime).
  Decoding itself happens *outside* the lock so concurrent queries
  don't serialize on decompression.

A query reads through one entry point, :meth:`DecodedColumnCache.get_many`:
one column of a whole run of blocks per call, one lock round for the
lookups and one for the inserts.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.compression.decoded import DecodedColumn

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (rowblock ← rbc)
    from repro.columnstore.rowblock import RowBlock
    from repro.util.memtrack import MemoryTracker

#: Default cap: a few dozen decoded columns at test scale while staying
#: far below a leaf's data size (a production leaf would size this as a
#: fraction of its 10-15 GB capacity).
DEFAULT_CACHE_BYTES = 32 << 20

#: The MemoryTracker region decoded columns are charged to.
CACHE_REGION = "cache"


@dataclass(frozen=True)
class CacheStats:
    """A consistent snapshot of the cache's counters."""

    entries: int
    nbytes: int
    capacity_bytes: int
    hits: int
    misses: int
    evictions: int
    invalidations: int
    #: Admissions declined: fitting would have evicted newer data.
    refused: int
    #: Lifetime lookups per column name — the demand signal the lazy
    #: restore's background sweep orders its fault-ins by.
    column_lookups: dict[str, int] = dataclass_field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class DecodedColumnCache:
    """Byte-capped cache of decoded row block columns; evicts the oldest data."""

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_CACHE_BYTES,
        tracker: "MemoryTracker | None" = None,
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"cache capacity must be non-negative, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._tracker = tracker
        self._lock = threading.RLock()
        self._entries: dict[tuple[int, str], DecodedColumn] = {}
        #: One rank ``(max_time, uid, name)`` per entry, ascending: the
        #: eviction order.  ``rank[1:]`` is the entry's key.
        self._ranks: list[tuple[int, int, str]] = []
        self._nbytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._refused = 0
        #: Lookups per column *name* (not per block): the heat signal.
        #: Deliberately not reset by clear() — restores empty the cache,
        #: but what was hot before the restart is exactly what the lazy
        #: restore's sweep wants to fault in first.
        self._column_lookups: dict[str, int] = {}

    def get(self, block: "RowBlock", name: str) -> DecodedColumn | None:
        """The cached decode of ``block``'s column ``name``, or None."""
        with self._lock:
            self._column_lookups[name] = self._column_lookups.get(name, 0) + 1
            entry = self._entries.get((block.uid, name))
            self._hits += entry is not None
            self._misses += entry is None
            return entry

    def get_many(self, blocks: Sequence["RowBlock"], name: str) -> list[DecodedColumn]:
        """Column ``name`` of each of ``blocks``, decoding the misses.

        The one lookup entry point of a query: one lock round looks every
        block up, counted as that many :meth:`get` calls would count.  The
        misses decode outside the lock and go in newest first, so when the
        cap binds it is the oldest of them that is refused, not a newer
        one that is evicted.  Two threads missing on the same key may both
        decode; the second insert is dropped — wasted work, never a wrong
        answer.
        """
        with self._lock:
            self._column_lookups[name] = self._column_lookups.get(name, 0) + len(blocks)
            found = [self._entries.get((block.uid, name)) for block in blocks]
            missing = [i for i, entry in enumerate(found) if entry is None]
            self._hits += len(found) - len(missing)
            self._misses += len(missing)
        for i in missing:
            found[i] = blocks[i].decoded_column(name)
        if missing:
            missing.sort(key=lambda i: (blocks[i].max_time, blocks[i].uid), reverse=True)
            with self._lock:
                for i in missing:
                    self._admit(blocks[i], name, found[i])
        return found

    def invalidate_blocks(self, uids: Iterable[int]) -> int:
        """Drop every entry of the given block uids; returns bytes freed.

        Called by tables whenever blocks exit (expiry, size limits,
        ``take_blocks``, ``replace_blocks``) — the cache must never hold
        decoded data for blocks the store no longer owns.
        """
        gone = set(uids)
        with self._lock:
            kept, freed = [], 0
            for rank in self._ranks:
                if rank[1] in gone:
                    freed += self._entries.pop(rank[1:]).nbytes
                    self._invalidations += 1
                else:
                    kept.append(rank)
            self._ranks = kept
            if freed:
                self._nbytes -= freed
                self._discharge(freed)
            return freed

    def clear(self) -> int:
        """Drop everything; returns bytes freed.

        The restart engine calls this before the Figure-6 copy loop so
        the only bytes in flight during shutdown are heap + shm — the
        footprint invariant the paper's Section 4.4 argues for.
        """
        with self._lock:
            freed = self._nbytes
            self._invalidations += len(self._entries)
            self._entries.clear()
            self._ranks.clear()
            self._nbytes = 0
            if freed:
                self._discharge(freed)
            return freed

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._nbytes

    def column_heat(self) -> dict[str, int]:
        """Lifetime lookups per column name (a copy; hottest = largest)."""
        with self._lock:
            return dict(self._column_lookups)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                entries=len(self._entries),
                nbytes=self._nbytes,
                capacity_bytes=self.capacity_bytes,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                refused=self._refused,
                column_lookups=dict(self._column_lookups),
            )

    # ------------------------------------------------------------------
    # Internals (lock already held by every caller)
    # ------------------------------------------------------------------

    def _admit(self, block: "RowBlock", name: str, decoded: DecodedColumn) -> None:
        """Insert a decode result, evicting the oldest data past the cap.
        An entry larger than the whole cap is not cached at all."""
        nbytes = decoded.nbytes
        if nbytes > self.capacity_bytes:
            return
        key = (block.uid, name)
        if key in self._entries:
            return
        rank = (block.max_time, *key)
        if not self._make_room(rank, nbytes):
            self._refused += 1
            return
        self._entries[key] = decoded
        bisect.insort(self._ranks, rank)
        self._nbytes += nbytes
        self._charge(nbytes)

    def _make_room(self, rank: tuple[int, int, str], nbytes: int) -> bool:
        """Evict the oldest entries until ``nbytes`` more fit.  False, with
        nothing evicted, when that would evict data newer than ``rank``."""
        excess = self._nbytes + nbytes - self.capacity_bytes
        victims = 0
        while excess > 0:  # stays in range: evicting all frees >= nbytes
            if self._ranks[victims] > rank:
                return False
            excess -= self._entries[self._ranks[victims][1:]].nbytes
            victims += 1
        if victims:
            freed = sum(self._entries.pop(old[1:]).nbytes for old in self._ranks[:victims])
            del self._ranks[:victims]
            self._evictions += victims
            self._nbytes -= freed
            self._discharge(freed)
        return True

    def _charge(self, nbytes: int) -> None:
        if self._tracker is not None:
            self._tracker.allocate(CACHE_REGION, nbytes)

    def _discharge(self, nbytes: int) -> None:
        if self._tracker is not None:
            self._tracker.free(CACHE_REGION, nbytes)


__all__ = ["CacheStats", "DecodedColumnCache", "DEFAULT_CACHE_BYTES", "CACHE_REGION"]
