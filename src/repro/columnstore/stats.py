"""Table statistics: the operator's view of a leaf's storage.

Answers the questions an engineer asks before and after a restart: how
many row blocks, how compressed is each column, what would this table's
shared memory segment cost, which time range does it span.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.columnstore.table import Table
from repro.types import ColumnType


@dataclass(frozen=True)
class ColumnStats:
    """One column across every sealed row block of a table."""

    name: str
    ctype: ColumnType
    compressed_bytes: int
    raw_bytes_estimate: int

    @property
    def compression_ratio(self) -> float:
        if self.compressed_bytes == 0:
            return 1.0
        return self.raw_bytes_estimate / self.compressed_bytes


@dataclass
class TableStats:
    """A table's storage summary."""

    name: str
    row_count: int
    buffered_rows: int
    block_count: int
    compressed_bytes: int
    raw_bytes_estimate: int
    min_time: int | None
    max_time: int | None
    columns: list[ColumnStats] = field(default_factory=list)

    @property
    def compression_ratio(self) -> float:
        if self.compressed_bytes == 0:
            return 1.0
        return self.raw_bytes_estimate / self.compressed_bytes


def _raw_column_estimate(ctype: ColumnType, values) -> int:
    if ctype in (ColumnType.INT64, ColumnType.FLOAT64):
        return 8 * len(values)
    if ctype is ColumnType.STRING:
        return sum(len(v.encode()) + 4 for v in values)
    return sum(sum(len(s.encode()) + 4 for s in v) + 4 for v in values)


def table_stats(table: Table) -> TableStats:
    """Compute storage statistics for one table.

    Raw sizes are estimates (the uncompressed in-memory representation
    never exists as one buffer); decoding each column once is the price
    of the per-column ratio, so this is an operator tool, not a hot
    path.
    """
    blocks = table.blocks
    per_column: dict[str, list[int]] = {}  # name -> [compressed, raw]
    column_types: dict[str, ColumnType] = {}
    for block in blocks:
        for name in block.schema.names:
            ctype = block.schema.type_of(name)
            column_types[name] = ctype
            compressed = len(block.rbc_buffer(name))
            raw = _raw_column_estimate(ctype, block.column_values(name))
            entry = per_column.setdefault(name, [0, 0])
            entry[0] += compressed
            entry[1] += raw
    columns = [
        ColumnStats(name, column_types[name], compressed, raw)
        for name, (compressed, raw) in sorted(per_column.items())
    ]
    buffer_estimate = 0 if blocks else table.nbytes - table.sealed_nbytes
    return TableStats(
        name=table.name,
        row_count=table.row_count,
        buffered_rows=table.buffered_row_count,
        block_count=table.block_count,
        compressed_bytes=table.sealed_nbytes,
        raw_bytes_estimate=sum(entry[1] for entry in per_column.values())
        + buffer_estimate,
        min_time=min((block.min_time for block in blocks), default=None),
        max_time=max((block.max_time for block in blocks), default=None),
        columns=columns,
    )


def format_table_stats(stats: TableStats) -> str:
    """Human-readable report."""
    lines = [
        f"table {stats.name!r}: {stats.row_count:,} rows "
        f"({stats.buffered_rows} buffered), {stats.block_count} row blocks",
        f"  compressed {stats.compressed_bytes:,} B from "
        f"~{stats.raw_bytes_estimate:,} B ({stats.compression_ratio:.1f}x)",
    ]
    if stats.min_time is not None:
        lines.append(f"  time range [{stats.min_time}, {stats.max_time}]")
    for column in stats.columns:
        lines.append(
            f"  {column.name:>20s} {column.ctype.name:<13s} "
            f"{column.compressed_bytes:>10,} B  {column.compression_ratio:>6.1f}x"
        )
    return "\n".join(lines)
