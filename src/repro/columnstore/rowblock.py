"""Row blocks (paper, Figure 2).

A row block holds all the data for a set of up to 65,536 consecutively
arrived rows: a header (size, row count, min/max timestamps, creation
timestamp), a schema, and one row block column per schema column.

In heap format the RBC buffers are separate allocations referenced by a
vector (one level of indirection).  ``pack``/``unpack`` convert to and from
the *contiguous* layout of Figure 4, where the header, schema, column
offset table, and all RBC payloads occupy a single buffer — the form used
inside shared memory segments, by the shm-format disk files of experiment
E12 and on the replica wire.  This module is where that layout is encoded
(:meth:`RowBlock.packed_preamble`) and where its header is checked
(:func:`check_packed_header`, and :func:`read_packed_header` with the
schema, whose :class:`PackedHeader` the body read starts from).

Live ingest and legacy replay both seal through
:meth:`RowBlock.from_columns`; :meth:`RowBlock.from_rows`, the same seal
over row dicts, is the reference the tests hold them to.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
from typing import Iterable, Mapping, NamedTuple

from repro.columnstore.rbc import (
    FOOTER_SIZE as RBC_FOOTER_SIZE,
    HEADER_SIZE as RBC_HEADER_SIZE,
    RBC_EXTENT,
    RBC_MAGIC,
    RowBlockColumn,
    build_rbc,
    rbc_stored_crc,
    verify_rbc,
)
from repro.columnstore.schema import Schema
from repro.compression.decoded import DecodedColumn
from repro.errors import CapacityError, CorruptionError, LayoutVersionError, SchemaError
from repro.types import TIME_COLUMN, ColumnValue
from repro.util.binary import BufferReader, decode_varint, encode_varint

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
    ``max_time``: a sealed row block, the write buffer's view, and a
    restore directory's entries (a segment's extents, a wire catalog's
    blocks)."""

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
        if rbcs.keys() != schema.keys():
            raise SchemaError("row block columns do not match the schema")
        self.schema = schema
        self._rbcs = rbcs
        #: Compressed size: the sum of the RBC buffers, which never change.
        self.nbytes = sum(map(len, rbcs.values()))
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

    def rbc_buffer(self, name: str) -> bytes:
        """The raw RBC buffer for one column (the unit of copying)."""
        try:
            return self._rbcs[name]
        except KeyError:
            raise SchemaError(f"row block has no column '{name}'") from None

    def rbc_buffers(self) -> Iterable[tuple[str, bytes]]:
        """(name, buffer) pairs in schema order — the packed layout's RBC order."""
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

    def verify(self) -> None:
        """Checksum-verify every column buffer."""
        rbcs = self._rbcs
        for name in self.schema.names:
            verify_rbc(rbcs[name])

    # ------------------------------------------------------------------
    # Contiguous (shared memory / new disk) layout
    # ------------------------------------------------------------------

    @property
    def packed_size(self) -> int:
        """``len(self.pack())``, from what the block already knows: the
        header, the schema's wire length, 8 bytes per column and the RBC
        sizes — nothing is encoded."""
        n_columns = len(self.schema)
        return (
            PACK_HEADER.size
            + len(self.schema.wire)
            + len(encode_varint(n_columns))
            + 8 * n_columns
            + self.nbytes
        )

    def packed_preamble(self) -> bytes:
        """The bytes of the contiguous Figure-4 layout before the RBCs:
        ``header | schema | column offset table``.

        The header's size field and the offset table already count the
        block's RBCs, which follow in schema order (:meth:`packed_chunks`).
        The offset table replaces the heap's per-column pointer vector,
        which is the "one level of indirection" the shared memory layout
        loses.  This is the only encoder of the layout: the shm copy-out,
        the snapshot file and the replica wire all start from it.
        """
        names = self.schema.names
        head = self.schema.wire + encode_varint(len(names))
        first = PACK_HEADER.size + len(head) + 8 * len(names)
        offsets = list(itertools.accumulate((len(self._rbcs[name]) for name in names), initial=first))
        header = PACK_HEADER.pack(
            ROWBLOCK_MAGIC,
            ROWBLOCK_VERSION,
            0,
            offsets.pop(),
            self.row_count,
            self.min_time,
            self.max_time,
            self.created_at,
        )
        return header + head + struct.pack(f"<{len(names)}Q", *offsets)

    def packed_chunks(self) -> list[bytes]:
        """:meth:`pack` as chunks: the preamble, then the block's own RBC
        buffers — no payload byte is copied to build them."""
        return [self.packed_preamble(), *(self._rbcs[name] for name in self.schema.names)]

    def pack(self) -> bytes:
        """Serialize to the contiguous Figure-4 layout:
        ``header | schema | column offset table | RBC0 .. RBCk``."""
        return b"".join(self.packed_chunks())

    @classmethod
    def unpack(cls, buf: bytes | memoryview, header: PackedHeader | None = None) -> "RowBlock":
        """Parse a contiguous row block back into heap format.

        This is the restore hot path, so it stays deliberately thin: the
        header read (:func:`read_packed_header`), then the body: each RBC
        is located from the column offset table and its own header's
        size field and materialized with **one bulk ``bytes()``** — no
        intermediate :class:`~repro.columnstore.rbc.RowBlockColumn` is
        constructed and no section is re-copied, so the block owns its
        bytes and outlives the buffer it came from (a segment, a file, a
        frame).  Structural and checksum validation is the job of
        :meth:`verify` (the restart engine calls it on every restored
        block) and of the decoders at query time.

        ``header``, when given, is these same bytes' header as a reader
        already checked it — a segment directory's
        :class:`~repro.shm.layout.BlockExtent` carries its fields — and
        only the body is read.
        """
        view = memoryview(buf)
        if header is None:
            header = read_packed_header(view)
        schema = header.schema
        total = len(view)
        n_columns, at = decode_varint(view, header.table_at)
        if n_columns != len(schema):
            raise CorruptionError(
                f"offset table has {n_columns} entries for a {len(schema)}-column schema"
            )
        if at + 8 * n_columns > total:
            raise CorruptionError(
                f"{n_columns}-entry offset table at {at} overruns the "
                f"{total}-byte packed row block"
            )
        offsets = struct.unpack_from(f"<{n_columns}Q", view, at)
        first, last = PACK_HEADER.size, total - RBC_EXTENT.size
        smallest = RBC_HEADER_SIZE + RBC_FOOTER_SIZE
        extent = RBC_EXTENT.unpack_from
        rbcs: dict[str, bytes] = {}
        for name, offset in zip(schema.names, offsets):
            if not first <= offset <= last:
                raise CorruptionError(f"column '{name}' offset {offset} out of bounds")
            magic, size = extent(view, offset)
            end = offset + size
            if magic != RBC_MAGIC:
                raise CorruptionError(f"bad RBC magic 0x{magic:08x}")
            if size < smallest or end > total:
                raise CorruptionError(
                    f"column '{name}' extent {offset}+{size} does not fit the "
                    f"{total}-byte packed row block"
                )
            rbcs[name] = bytes(view[offset:end])
        return cls(
            schema, rbcs, header.row_count, header.min_time, header.max_time, header.created_at
        )


def check_packed_header(view: memoryview) -> tuple[int, int, int, float]:
    """Check a packed row block's header against its extent: the one
    reader of ``PACK_HEADER``.

    ``view`` spans exactly one packed block — its extent in a segment or
    a snapshot body, or a BLOCK frame's payload.  Returns the header's
    row count, min/max timestamps and creation time.  A short view, a
    bad magic or a size field that disagrees with the extent raises
    :class:`CorruptionError`; another layout version raises
    :class:`LayoutVersionError`.
    """
    if len(view) < PACK_HEADER.size:
        raise CorruptionError(
            f"packed row block extent of {len(view)} bytes is shorter than its header"
        )
    magic, version, _, total, row_count, min_time, max_time, created_at = (
        PACK_HEADER.unpack_from(view)
    )
    if magic != ROWBLOCK_MAGIC:
        raise CorruptionError(f"bad row block magic 0x{magic:08x}")
    if version != ROWBLOCK_VERSION:
        raise LayoutVersionError(
            f"row block layout version {version}; this build reads {ROWBLOCK_VERSION}"
        )
    if total != len(view):
        raise CorruptionError(
            f"packed row block claims {total} bytes; its extent holds {len(view)}"
        )
    return row_count, min_time, max_time, created_at


class PackedHeader(NamedTuple):
    """A packed row block's header as :func:`read_packed_header` reads
    it: what the body read (:meth:`RowBlock.unpack`) starts from."""

    row_count: int
    min_time: int
    max_time: int
    created_at: float
    schema: Schema
    #: Offset of the column offset table (its entry count) in the block.
    table_at: int


def read_packed_header(view: memoryview) -> PackedHeader:
    """:func:`check_packed_header`, then parse the block's schema."""
    row_count, min_time, max_time, created_at = check_packed_header(view)
    reader = BufferReader(view, offset=PACK_HEADER.size)
    schema = Schema.deserialize(reader)
    return PackedHeader(row_count, min_time, max_time, created_at, schema, reader.offset)
