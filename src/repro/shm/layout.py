"""The contiguous table layout inside shared memory (paper, Figure 4).

One shared memory segment per table.  Because the full set of row blocks
and row block columns — and their sizes — is known when the segment is
allocated, row blocks are laid out contiguously, losing one level of
indirection relative to the heap layout::

    u32 magic "STBL"
    u16 layout version
    u16 reserved
    u64 used bytes (content length; the segment may be larger)
    str table name
    varint n row blocks
    u64 block offset  x n   (from segment base)
    u64 block size    x n
    packed row blocks, back to back (RowBlock.pack layout)

Writing is *streamed one row block column at a time* so the shutdown path
can free each heap RBC right after copying it (paper, Section 4.4) — the
:class:`TableSegmentWriter` yields a :class:`CopyEvent` per RBC and the
restart engine interleaves its heap frees with the iteration.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

from repro.columnstore.rowblock import (
    PACK_HEADER,
    ROWBLOCK_MAGIC,
    ROWBLOCK_VERSION,
    RowBlock,
)
from repro.columnstore.schema import Schema
from repro.errors import CorruptionError, LayoutVersionError, ShmError
from repro.shm.segment import ShmSegment
from repro.util.binary import BufferReader, BufferWriter

#: Version of the shared memory data layout.  Independent of the heap
#: format: bump this only when the bytes written here change shape —
#: including the RBC payloads inside them (2: raw deflate, ``RBC_VERSION``
#: 2), so an old build's segments fail the valid-bit check, not a decode.
SHM_LAYOUT_VERSION = 2

TABLE_SEGMENT_MAGIC = 0x4C425453  # "STBL"
_SEG_FIXED = struct.Struct("<IHHQ")


def _block_preamble(block: RowBlock) -> tuple[bytes, list[bytes]]:
    """The packed-row-block bytes that precede the RBC payloads.

    Returns ``(preamble, rbc_buffers)`` where the preamble already has
    its header and column offset table patched for a block that starts
    at offset 0; the block is position-independent, so a nonzero start
    needs no fixup (offsets are block-relative... they are absolute
    within the packed block buffer, which itself is addressed by the
    segment's block offset table).
    """
    writer = BufferWriter()
    writer.write_bytes(b"\x00" * PACK_HEADER.size)
    block.schema.serialize(writer)
    names = block.schema.names
    writer.write_varint(len(names))
    offset_slots = [writer.reserve_u64() for _ in names]
    rbcs = [block.rbc_buffer(name) for name in names]
    cursor = writer.offset
    for slot, rbc in zip(offset_slots, rbcs):
        writer.patch_u64(slot, cursor)
        cursor += len(rbc)
    total = cursor
    preamble = bytearray(writer.getvalue())
    PACK_HEADER.pack_into(
        preamble,
        0,
        ROWBLOCK_MAGIC,
        ROWBLOCK_VERSION,
        0,
        total,
        block.row_count,
        block.min_time,
        block.max_time,
        block.created_at,
    )
    return bytes(preamble), rbcs


def packed_block_chunks(block: RowBlock) -> list[bytes]:
    """``block.pack()`` as zero-copy chunks: preamble + raw RBC buffers.

    Concatenating the chunks reproduces the contiguous packed-block
    image byte for byte, so a receiver can hand the joined payload to
    :meth:`RowBlock.unpack`.  The RBC chunks are the block's own encoded
    buffers (``to_encoded(copy=False)``), which is what lets the replica
    wire path serve sealed blocks without re-encoding them.
    """
    preamble, rbcs = _block_preamble(block)
    return [preamble, *rbcs]


def packed_block_size(block: RowBlock) -> int:
    """Exact size of ``block`` in the contiguous layout, without packing."""
    writer = BufferWriter()
    block.schema.serialize(writer)
    schema_bytes = writer.offset
    n = len(block.schema)
    writer2 = BufferWriter()
    writer2.write_varint(n)
    return (
        PACK_HEADER.size
        + schema_bytes
        + writer2.offset
        + 8 * n
        + sum(len(buf) for _, buf in block.rbc_buffers())
    )


def _segment_preamble(table_name: str, blocks: list[RowBlock]) -> tuple[bytes, list[int], list[int]]:
    """Header + offset/size tables; returns (bytes, offsets, sizes)."""
    sizes = [packed_block_size(block) for block in blocks]
    writer = BufferWriter()
    writer.write_bytes(b"\x00" * _SEG_FIXED.size)
    writer.write_str(table_name)
    writer.write_varint(len(blocks))
    offset_slots = [writer.reserve_u64() for _ in blocks]
    size_slots = [writer.reserve_u64() for _ in blocks]
    cursor = writer.offset
    offsets = []
    for slot, size_slot, size in zip(offset_slots, size_slots, sizes):
        writer.patch_u64(slot, cursor)
        writer.patch_u64(size_slot, size)
        offsets.append(cursor)
        cursor += size
    preamble = bytearray(writer.getvalue())
    _SEG_FIXED.pack_into(
        preamble, 0, TABLE_SEGMENT_MAGIC, SHM_LAYOUT_VERSION, 0, cursor
    )
    return bytes(preamble), offsets, sizes


def table_segment_size(table_name: str, blocks: list[RowBlock]) -> int:
    """Exact content size a table segment needs for ``blocks``."""
    preamble, _, sizes = _segment_preamble(table_name, blocks)
    return len(preamble) + sum(sizes)


@dataclass(frozen=True)
class CopyEvent:
    """One row-block-column copy completed by :class:`TableSegmentWriter`."""

    block_index: int
    column_name: str
    nbytes: int
    #: Bytes this step put in the segment: the RBC plus any preamble
    #: (the table's, a block's) written just before it.  Summed over a
    #: table's events this is its ``used_bytes``.
    landed: int
    last_in_block: bool


class TableSegmentWriter:
    """Streams a table into a segment, one RBC ``memcpy`` at a time."""

    def __init__(
        self, segment: ShmSegment, table_name: str, blocks: list[RowBlock]
    ) -> None:
        self._segment = segment
        self._table_name = table_name
        self._blocks = blocks
        self.used_bytes = 0

    def write_rbc(self, offset: int, rbc: bytes | bytearray | memoryview) -> int:
        """Bulk-write one row block column straight from its heap buffer.

        One buffer-protocol ``memcpy`` into the segment, no staging copy:
        the source may be the heap ``bytes`` object itself or a
        ``memoryview`` over it.  Returns the offset past the write.
        """
        return self._segment.write_at(offset, rbc)

    def copy_events(self) -> Iterator[CopyEvent]:
        """Write everything; yield after each RBC so the caller can free
        the corresponding heap buffer before the next copy."""
        preamble, offsets, sizes = _segment_preamble(self._table_name, self._blocks)
        self.used_bytes = len(preamble) + sum(sizes)
        if self.used_bytes > self._segment.size:
            raise ShmError(
                f"table '{self._table_name}' needs {self.used_bytes} bytes; "
                f"segment '{self._segment.name}' holds {self._segment.size}"
            )
        self._segment.write_at(0, preamble)
        yielded = 0  # bytes already reported; blocks follow the preamble back to back
        for index, (block, block_offset) in enumerate(zip(self._blocks, offsets)):
            block_preamble, rbcs = _block_preamble(block)
            cursor = self._segment.write_at(block_offset, block_preamble)
            names = block.schema.names
            for col_index, (name, rbc) in enumerate(zip(names, rbcs)):
                cursor = self.write_rbc(cursor, rbc)
                landed, yielded = cursor - yielded, cursor
                yield CopyEvent(
                    block_index=index,
                    column_name=name,
                    nbytes=len(rbc),
                    landed=landed,
                    last_in_block=col_index == len(names) - 1,
                )
            if cursor != block_offset + sizes[index]:
                raise ShmError(
                    f"block {index} of table '{self._table_name}' wrote "
                    f"{cursor - block_offset} bytes; expected {sizes[index]}"
                )

    def copy_all(self) -> int:
        """Non-streaming convenience: run the whole copy, return used bytes."""
        for _ in self.copy_events():
            pass
        return self.used_bytes


def write_table_to_segment(
    segment: ShmSegment, table_name: str, blocks: list[RowBlock]
) -> int:
    """Copy ``blocks`` into ``segment``; returns the content length."""
    return TableSegmentWriter(segment, table_name, blocks).copy_all()


def read_segment_header(view: memoryview) -> tuple[str, list[tuple[int, int]]]:
    """Parse a table segment's preamble.

    Returns ``(table_name, [(offset, size), ...])``.  Raises
    :class:`LayoutVersionError` if the segment was written by a build with
    a different shared memory layout — the condition that forces disk
    recovery.
    """
    if len(view) < _SEG_FIXED.size:
        raise CorruptionError("table segment smaller than its fixed header")
    magic, version, _, used = _SEG_FIXED.unpack(view[: _SEG_FIXED.size])
    if magic != TABLE_SEGMENT_MAGIC:
        raise CorruptionError(f"bad table segment magic 0x{magic:08x}")
    if version != SHM_LAYOUT_VERSION:
        raise LayoutVersionError(
            f"table segment layout version {version}; this build reads "
            f"{SHM_LAYOUT_VERSION}"
        )
    if used > len(view):
        raise CorruptionError(
            f"table segment claims {used} used bytes; view holds {len(view)}"
        )
    reader = BufferReader(view, offset=_SEG_FIXED.size)
    table_name = reader.read_str()
    n_blocks = reader.read_varint()
    entries = []
    for _ in range(n_blocks):
        entries.append(reader.read_u64())
    sizes = [reader.read_u64() for _ in range(n_blocks)]
    pairs = list(zip(entries, sizes))
    for offset, size in pairs:
        if offset + size > used:
            raise CorruptionError("row block extent outside the segment's used bytes")
    return table_name, pairs


@dataclass(frozen=True)
class BlockExtent:
    """One sealed block's location and header facts inside a segment:
    what a restore's block directory holds before the block is read."""

    table: str
    index: int  # position in the segment's block order
    offset: int
    size: int  # packed bytes inside the segment
    row_count: int
    min_time: int
    max_time: int
    created_at: float
    columns: tuple[str, ...]

    def overlaps(self, start: int | None, end: int | None) -> bool:
        if start is not None and self.max_time < start:
            return False
        if end is not None and self.min_time >= end:
            return False
        return True


def read_block_headers(view: memoryview) -> tuple[str, list[BlockExtent]]:
    """Parse a segment's preamble plus each block's packed header.

    The cheap directory read of a restore: per block only the
    ``PACK_HEADER`` struct and the serialized schema are touched — no
    RBC payload is copied or decoded — so publishing a directory over a
    large segment costs a header scan, not a restore.  Header corruption
    surfaces here, before the leaf starts serving against the directory;
    payload corruption still surfaces at fault-in time
    (``RowBlock.verify``).
    """
    table_name, pairs = read_segment_header(view)
    extents: list[BlockExtent] = []
    schema = columns = None
    for index, (offset, size) in enumerate(pairs):
        if size < PACK_HEADER.size:
            raise CorruptionError("row block extent smaller than its header")
        magic, version, _, total, row_count, min_time, max_time, created_at = (
            PACK_HEADER.unpack_from(view, offset)
        )
        if magic != ROWBLOCK_MAGIC:
            raise CorruptionError(f"bad row block magic 0x{magic:08x}")
        if version != ROWBLOCK_VERSION:
            raise LayoutVersionError(
                f"row block version {version}; this build reads "
                f"{ROWBLOCK_VERSION}"
            )
        if total != size:
            raise CorruptionError(
                f"row block header claims {total} bytes; the segment's "
                f"offset table says {size}"
            )
        reader = BufferReader(view[offset : offset + size], offset=PACK_HEADER.size)
        parsed = Schema.deserialize(reader)
        if parsed is not schema:  # neighbours share one parsed schema
            schema, columns = parsed, tuple(parsed.names)
        extents.append(
            BlockExtent(
                table=table_name,
                index=index,
                offset=offset,
                size=size,
                row_count=row_count,
                min_time=min_time,
                max_time=max_time,
                created_at=created_at,
                columns=columns,
            )
        )
    return table_name, extents


def iter_blocks_from_segment(
    view: memoryview, copy: bool = True
) -> Iterator[tuple[str, RowBlock]]:
    """Yield ``(table_name, row_block)`` pairs (the restore direction).

    Each block is materialized by ``RowBlock.unpack``'s fast path: the
    block region is sliced as a ``memoryview`` (no copy) and every RBC
    leaves the segment with exactly one bulk ``bytes()``.  With
    ``copy=False`` even that copy is skipped and the blocks *attach* to
    the segment — valid only while ``view`` stays alive, and the views
    must be dropped before the segment can be closed or unlinked.
    """
    table_name, pairs = read_segment_header(view)
    for offset, size in pairs:
        yield table_name, RowBlock.unpack(view[offset : offset + size], copy=copy)


def read_table_from_segment(
    segment: ShmSegment, used_bytes: int | None = None
) -> tuple[str, list[RowBlock]]:
    """Read a whole table segment back into heap row blocks."""
    view = segment.buf if used_bytes is None else segment.read_at(0, used_bytes)
    try:
        blocks = []
        table_name = ""
        for table_name, block in iter_blocks_from_segment(view):
            blocks.append(block)
        if not blocks:
            table_name = read_segment_header(view)[0]
        return table_name, blocks
    finally:
        view.release()
