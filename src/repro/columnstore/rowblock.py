"""Row blocks (paper, Figure 2).

A row block holds all the data for a set of up to 65,536 consecutively
arrived rows: a header (size, row count, min/max timestamps, creation
timestamp), a schema, and one row block column per schema column.

In heap format the RBC buffers are separate allocations referenced by a
vector (one level of indirection).  ``pack``/``unpack`` convert to and from
the *contiguous* layout of Figure 4, where the header, schema, column
offset table, and all RBC payloads occupy a single buffer — the form used
inside shared memory segments and by the shm-format disk files of
experiment E12.

Live ingest and legacy replay both seal through
:meth:`RowBlock.from_columns`; :meth:`RowBlock.from_rows`, the same seal
over row dicts, is the reference the tests hold them to.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
from typing import Iterable, Mapping

from repro.columnstore.rbc import (
    RowBlockColumn,
    build_rbc,
    rbc_extent,
    rbc_stored_crc,
)
from repro.columnstore.schema import Schema
from repro.compression.decoded import DecodedColumn
from repro.errors import CapacityError, CorruptionError, LayoutVersionError, SchemaError
from repro.types import TIME_COLUMN, ColumnValue
from repro.util.binary import BufferReader, BufferWriter

#: Paper: "Each row block contains 65,536 rows that arrived consecutively."
ROWS_PER_BLOCK = 65536

ROWBLOCK_MAGIC = 0x4B4C4252  # "RBLK"
ROWBLOCK_VERSION = 1

PACK_HEADER = struct.Struct("<IHHQQqqd")  # magic, ver, pad, total, rows, min, max, created

_KEY_HEADER = struct.Struct("<Qqqd")  # rows, min, max, created
_KEY_COLUMN = struct.Struct("<QI")  # RBC length, stored footer CRC

#: Process-unique row block ids, handed out at construction.  The
#: decoded-column cache keys on them: a uid is never reused, so a cache
#: entry can never be served for a different block that happens to land
#: at the same address (the failure mode of keying on ``id(block)``).
_BLOCK_UIDS = itertools.count(1)


class TimeRange:
    """Min/max-timestamp pruning, for anything with ``min_time`` and
    ``max_time``: a sealed row block, and the write buffer's view."""

    min_time: int
    max_time: int

    def overlaps(self, start_time: int | None, end_time: int | None) -> bool:
        """Whether any row's timestamp could fall in ``[start, end)``.

        This is the min/max pruning the paper describes: "the minimum and
        maximum timestamps are used to decide whether to even look at a
        row block when processing a query."
        """
        if start_time is not None and self.max_time < start_time:
            return False
        if end_time is not None and self.min_time >= end_time:
            return False
        return True

    def within(self, start_time: int | None, end_time: int | None) -> bool:
        """Whether every row's timestamp falls in ``[start, end)`` (an
        open bound is satisfied): the other answer the header's min/max
        gives, which lets a query skip the block's time column entirely.
        """
        return (start_time is None or start_time <= self.min_time) and (
            end_time is None or self.max_time < end_time
        )


class RowBlock(TimeRange):
    """An immutable sealed row block in heap format."""

    def __init__(
        self,
        schema: Schema,
        rbcs: dict[str, bytes],
        row_count: int,
        min_time: int,
        max_time: int,
        created_at: float,
    ) -> None:
        if set(rbcs) != set(schema.names):
            raise SchemaError("row block columns do not match the schema")
        self.schema = schema
        self._rbcs = rbcs
        self.row_count = row_count
        self.min_time = min_time
        self.max_time = max_time
        self.created_at = created_at
        self.uid = next(_BLOCK_UIDS)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        rows: list[Mapping[str, ColumnValue]],
        created_at: float,
        schema: Schema | None = None,
    ) -> "RowBlock":
        """Seal ``rows`` into a compressed row block: each column is
        extracted, then :meth:`from_columns` runs the expensive
        "translate to in-memory format" step.
        """
        if not rows:
            raise ValueError("a row block must contain at least one row")
        if schema is None:
            schema = Schema.from_rows(rows)
        columns = {name: schema.column_values(name, rows) for name in schema.names}
        return cls.from_columns(schema, columns, created_at)

    @classmethod
    def from_columns(
        cls,
        schema: Schema,
        columns: Mapping[str, list[ColumnValue]],
        created_at: float,
    ) -> "RowBlock":
        """Seal one value list per ``schema`` column into a row block.

        Each list holds every row's value, of the column's type, a value
        a row lacked already filled with the default: what a table's
        open block gathers from its column runs, live or replayed, and
        what :meth:`from_rows` extracts from rows.
        """
        times = columns[TIME_COLUMN]
        if not times:
            raise ValueError("a row block must contain at least one row")
        if len(times) > ROWS_PER_BLOCK:
            raise CapacityError(f"{len(times)} rows exceed the {ROWS_PER_BLOCK}-row block cap")
        rbcs = {name: build_rbc(ctype, columns[name]) for name, ctype in schema.items()}
        return cls(
            schema,
            rbcs,
            row_count=len(times),
            min_time=min(times),
            max_time=max(times),
            created_at=created_at,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Compressed size: the sum of the RBC buffers."""
        return sum(len(buf) for buf in self._rbcs.values())

    @property
    def column_names(self) -> list[str]:
        return self.schema.names

    def rbc_buffer(self, name: str) -> bytes:
        """The raw RBC buffer for one column (the unit of copying)."""
        try:
            return self._rbcs[name]
        except KeyError:
            raise SchemaError(f"row block has no column '{name}'") from None

    def rbc_buffers(self) -> Iterable[tuple[str, bytes]]:
        """(name, buffer) pairs in schema order — the shutdown copy loop."""
        for name in self.schema.names:
            yield name, self._rbcs[name]

    def content_key(self) -> str:
        """A restart-stable identity for this block's sealed bytes.

        Built only from what the block already stores — the header
        fields and, per column, the RBC's name, length and the payload
        CRC its footer carries — so it costs O(columns) and never a pass
        over payload bytes.  Any route that hands back the same sealed
        bytes (shared memory, a replica, a disk snapshot) reproduces the
        key; a legacy replay re-seals with a new ``created_at`` and so
        does not.  The incremental snapshot chain matches blocks by it,
        where ``uid`` would change with every process.
        """
        digest = hashlib.blake2b(
            _KEY_HEADER.pack(
                self.row_count, self.min_time, self.max_time, self.created_at
            ),
            digest_size=16,
        )
        for name, buf in self.rbc_buffers():
            digest.update(name.encode("utf-8"))
            digest.update(_KEY_COLUMN.pack(len(buf), rbc_stored_crc(buf)))
        return digest.hexdigest()

    def column_values(self, name: str) -> list[ColumnValue]:
        """Decode one column back to Python values."""
        column = RowBlockColumn(self._rbcs[name])
        values = column.values(self.schema.type_of(name))
        if len(values) != self.row_count:
            raise CorruptionError(
                f"column '{name}' decodes to {len(values)} values; row block "
                f"header says {self.row_count} rows"
            )
        return values

    def decoded_column(self, name: str) -> DecodedColumn:
        """Decode one column to its array form (the vectorized read path).

        Unlike :meth:`to_rows` this touches only the named column's RBC
        buffer — a query that references three of twelve columns pays
        for three decodes.  Returns a cache-safe :class:`DecodedColumn`
        whose arrays are fresh heap copies.
        """
        column = RowBlockColumn(self._rbcs[name])
        decoded = column.decoded(self.schema.type_of(name))
        if len(decoded) != self.row_count:
            raise CorruptionError(
                f"column '{name}' decodes to {len(decoded)} values; row block "
                f"header says {self.row_count} rows"
            )
        return decoded

    def to_rows(self) -> list[dict[str, ColumnValue]]:
        """Materialize all rows (column defaults included — lossy only in
        that a row that omitted a column comes back with the default)."""
        columns = {name: self.column_values(name) for name in self.schema.names}
        return [
            {name: columns[name][i] for name in self.schema.names}
            for i in range(self.row_count)
        ]

    def release_column(self, name: str) -> int:
        """Drop one column's heap buffer, returning its size.

        Used only by the restart engine's shutdown loop: after an RBC has
        been copied into shared memory its heap bytes are freed
        immediately (paper, Figure 6).  The block is unusable for queries
        afterwards.
        """
        try:
            buf = self._rbcs.pop(name)
        except KeyError:
            raise SchemaError(f"row block has no column '{name}'") from None
        return len(buf)

    def verify(self) -> None:
        """Checksum-verify every column buffer."""
        for name in self.schema.names:
            RowBlockColumn(self._rbcs[name]).verify()

    # ------------------------------------------------------------------
    # Contiguous (shared memory / new disk) layout
    # ------------------------------------------------------------------

    def pack(self) -> bytes:
        """Serialize to the contiguous Figure-4 layout.

        ``header | schema | column offset table | RBC0 .. RBCk`` — the
        offset table replaces the heap's per-column pointer vector, which
        is the "one level of indirection" the shared memory layout loses.
        """
        writer = BufferWriter()
        writer.write_bytes(b"\x00" * PACK_HEADER.size)  # patched below
        self.schema.serialize(writer)
        names = self.schema.names
        writer.write_varint(len(names))
        offset_slots = [writer.reserve_u64() for _ in names]
        for slot, name in zip(offset_slots, names):
            writer.patch_u64(slot, writer.offset)
            writer.write_bytes(self._rbcs[name])
        buf = bytearray(writer.getvalue())
        PACK_HEADER.pack_into(
            buf,
            0,
            ROWBLOCK_MAGIC,
            ROWBLOCK_VERSION,
            0,
            len(buf),
            self.row_count,
            self.min_time,
            self.max_time,
            self.created_at,
        )
        return bytes(buf)

    @classmethod
    def unpack(cls, buf: bytes | memoryview, copy: bool = True) -> "RowBlock":
        """Parse a contiguous row block back into heap format.

        This is the restore hot path, so it stays deliberately thin: each
        RBC is located from its header's size field and materialized with
        **one bulk ``bytes()``** — no intermediate
        :class:`~repro.columnstore.rbc.RowBlockColumn` is constructed and
        no section is re-copied.  Structural and checksum validation is
        the job of :meth:`verify` (the restart engine calls it on every
        restored block) and of the decoders at query time.

        With ``copy=False`` the column buffers are ``memoryview`` slices
        over ``buf`` — a zero-copy *attach* rather than a materialization.
        The caller then owns the lifetime problem: the views (and any
        block built from them) die with the underlying buffer, so this
        form is for transient reads (inspection, re-serialization) — not
        for blocks that must outlive a shared memory segment.
        """
        if len(buf) < PACK_HEADER.size:
            raise CorruptionError("packed row block shorter than its header")
        view = memoryview(buf)
        magic, version, _, total, row_count, min_time, max_time, created_at = (
            PACK_HEADER.unpack(view[: PACK_HEADER.size])
        )
        if magic != ROWBLOCK_MAGIC:
            raise CorruptionError(f"bad row block magic 0x{magic:08x}")
        if version != ROWBLOCK_VERSION:
            raise LayoutVersionError(
                f"row block layout version {version} not readable by this build"
            )
        if total != len(view):
            raise CorruptionError(
                f"packed row block claims {total} bytes but buffer holds {len(view)}"
            )
        reader = BufferReader(view, offset=PACK_HEADER.size)
        schema = Schema.deserialize(reader)
        n_columns = reader.read_varint()
        if n_columns != len(schema):
            raise CorruptionError(
                f"offset table has {n_columns} entries for a {len(schema)}-column schema"
            )
        offsets = [reader.read_u64() for _ in range(n_columns)]
        rbcs: dict[str, bytes] = {}
        for name, offset in zip(schema.names, offsets):
            if not PACK_HEADER.size <= offset < total:
                raise CorruptionError(f"column '{name}' offset {offset} out of bounds")
            size = rbc_extent(view, offset)
            if offset + size > total:
                raise CorruptionError(
                    f"column '{name}' extent {offset}+{size} overruns the "
                    f"{total}-byte packed row block"
                )
            sliced = view[offset : offset + size]
            rbcs[name] = bytes(sliced) if copy else sliced
        return cls(schema, rbcs, row_count, min_time, max_time, created_at)
