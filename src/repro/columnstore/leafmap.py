"""The leaf map: the root of a leaf server's heap data (paper, Figure 2).

"There is a leaf map containing a vector of pointers, one pointer to each
table."  Here it is a name-keyed mapping of :class:`Table` objects plus
the aggregate accounting the tailer's routing decisions need (free memory
= capacity minus total bytes).
"""

from __future__ import annotations

from typing import Iterator

from repro.columnstore.colcache import DecodedColumnCache
from repro.columnstore.rowblock import RowBlock
from repro.columnstore.table import Table
from repro.errors import SchemaError
from repro.util.clock import Clock, SystemClock


class LeafMap:
    """All tables of one leaf server."""

    def __init__(
        self,
        clock: Clock | None = None,
        rows_per_block: int | None = None,
        column_cache: DecodedColumnCache | None = None,
    ) -> None:
        self._clock = clock or SystemClock()
        self._rows_per_block = rows_per_block
        #: The leaf-wide decoded-column cache every table reads through.
        #: One cache per leaf (not per table) so the byte cap is a leaf
        #: budget and the restart engine has a single thing to drop.
        self.column_cache = column_cache
        self._tables: dict[str, Table] = {}
        #: The in-progress lazy restore, when one is serving this map.
        #: Set by :class:`~repro.core.lazyrestore.RestoreDriver` at
        #: directory-publish time and cleared when every block is in (or
        #: the restore fell back to disk); ``execute_on_leaf`` checks it
        #: to fault in the blocks a query touches.
        self.restorer = None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    @property
    def table_names(self) -> list[str]:
        return list(self._tables)

    def create_table(self, name: str) -> Table:
        """Create an empty table; refuses to overwrite an existing one."""
        if name in self._tables:
            raise SchemaError(f"table '{name}' already exists")
        kwargs = {}
        if self._rows_per_block is not None:
            kwargs["rows_per_block"] = self._rows_per_block
        table = Table(name, clock=self._clock, cache=self.column_cache, **kwargs)
        self._tables[name] = table
        return table

    def get_table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"no such table '{name}'") from None

    def get_or_create(self, name: str) -> Table:
        table = self._tables.get(name)
        if table is None:
            table = self.create_table(name)
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise SchemaError(f"no such table '{name}'")
        table = self._tables.pop(name)
        if self.column_cache is not None:
            self.column_cache.invalidate_blocks(
                block.uid for block in table.blocks
            )

    def empty_like(self) -> "LeafMap":
        """An empty map whose tables seal as this one's do, and without a
        cache: a table moved here by :meth:`adopt_table` takes this one's."""
        return LeafMap(self._clock, self._rows_per_block)

    def adopt_table(self, table: Table) -> None:
        """Install a recovered table object (restore path)."""
        if table.name in self._tables:
            raise SchemaError(f"table '{table.name}' already exists")
        table.set_cache(self.column_cache)
        self._tables[table.name] = table

    def drop_column_cache(self) -> int:
        """Empty the decoded-column cache; returns bytes freed.

        The restart engine calls this before the shutdown copy loop and
        before any restore, so cached decodes never count against the
        restart footprint and a restored leaf always starts cold.
        """
        if self.column_cache is None:
            return 0
        return self.column_cache.clear()

    @property
    def nbytes(self) -> int:
        """Total bytes across every table (sealed plus buffered)."""
        return sum(table.nbytes for table in self._tables.values())

    @property
    def row_count(self) -> int:
        return sum(table.row_count for table in self._tables.values())

    def seal_all(self) -> None:
        """Seal every table's write buffer (shutdown prepare step)."""
        for table in self._tables.values():
            table.seal_buffer()

    def snapshot_rows(self) -> dict[str, list[dict]]:
        """table name → all rows; used to assert restart equivalence."""
        return {name: table.to_rows() for name, table in self._tables.items()}


#: name -> (sealed blocks, total_rows_ingested, total_rows_expired)
TableSnapshot = dict[str, tuple[list[RowBlock], int, int]]


def snapshot_leafmap(leafmap: LeafMap) -> TableSnapshot:
    """A point-in-time view of every table's sealed blocks.

    Blocks are immutable once sealed and the lists are copies, so the
    returned snapshot stays consistent while the source keeps ingesting
    or expiring.
    """
    return {
        table.name: (
            table.blocks,
            table.total_rows_ingested,
            table.total_rows_expired,
        )
        for table in leafmap
    }
