"""The heap-format column store (paper, Section 2.1 and Figure 2).

A leaf server's data lives in a :class:`LeafMap` of :class:`Table` objects.
Each table holds a vector of sealed :class:`RowBlock` objects (up to 65,536
rows each) plus an open write buffer; each row block holds one serialized
:class:`RowBlockColumn` buffer per column, in which *every internal pointer
is an offset from the buffer's base address* so the whole column moves
between heap, shared memory, and disk with a single copy.
"""

from repro.columnstore.leafmap import LeafMap
from repro.columnstore.rbc import RBC_VERSION, RowBlockColumn, build_rbc
from repro.columnstore.rowblock import ROWS_PER_BLOCK, RowBlock
from repro.columnstore.schema import Schema, infer_column_type
from repro.columnstore.stats import (
    ColumnStats,
    TableStats,
    format_table_stats,
    table_stats,
)
from repro.compression.base import MAX_ROWBLOCK_BYTES

__all__ = [
    "ColumnStats",
    "LeafMap",
    "MAX_ROWBLOCK_BYTES",
    "RBC_VERSION",
    "ROWS_PER_BLOCK",
    "RowBlock",
    "RowBlockColumn",
    "Schema",
    "Table",
    "TableStats",
    "format_table_stats",
    "table_stats",
    "build_rbc",
    "infer_column_type",
]

from repro.columnstore.table import Table  # noqa: E402  (avoid import cycle)
