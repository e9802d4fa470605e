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

:func:`table_segment_image` is the one encoder of this layout: it returns
the segment preamble and each block's packed preamble
(:meth:`RowBlock.packed_preamble`), and the RBCs follow from the blocks
themselves.  The shm copy-out here and the snapshot file of
:mod:`repro.disk.shmformat` both write that image, so a snapshot body is
byte for byte the used bytes of a segment.  Reading goes through
:func:`read_segment_header` and, per block,
:func:`~repro.columnstore.rowblock.read_packed_header` — once: a
restore's directory (:func:`read_block_headers`) keeps each block's
parsed header for its fault-in.

The copy-out is *streamed one row block at a time* so the shutdown path
can free each heap block right after copying it (paper, Section 4.4):
the :class:`TableSegmentWriter` writes a block's preamble and then its
RBCs back to back — each RBC still one ``memcpy`` straight from its heap
buffer, as §4.4 words it — and yields one :class:`CopyEvent` per block.
The restart engine charges the block's landed bytes to shared memory and
frees its heap bytes once per event, so the tracked footprint never
exceeds the data plus one block plus the preambles written so far.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.columnstore.rowblock import RowBlock, TimeRange, read_packed_header
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


class TableImage(NamedTuple):
    """A table segment's bytes, save the RBC payloads: the segment
    preamble, then per block its packed preamble, which its RBCs follow
    in schema order.  ``size`` is the segment's used bytes."""

    preamble: bytes
    block_preambles: list[bytes]
    size: int


def table_segment_image(table_name: str, blocks: list[RowBlock]) -> TableImage:
    """The one encoder of a table segment's layout.

    It holds no RBC buffer, so a copy-out that takes each RBC from its
    block as it copies it can free that RBC right after (Section 4.4).
    """
    block_preambles = [block.packed_preamble() for block in blocks]
    sizes = [len(pre) + block.nbytes for pre, block in zip(block_preambles, blocks)]
    writer = BufferWriter()
    writer.write_str(table_name)
    writer.write_varint(len(blocks))
    cursor = _SEG_FIXED.size + writer.offset + 16 * len(blocks)
    for size in sizes:
        writer.write_u64(cursor)
        cursor += size
    for size in sizes:
        writer.write_u64(size)
    fixed = _SEG_FIXED.pack(TABLE_SEGMENT_MAGIC, SHM_LAYOUT_VERSION, 0, cursor)
    return TableImage(fixed + writer.getvalue(), block_preambles, cursor)


def table_segment_size(table_name: str, blocks: list[RowBlock]) -> int:
    """Exact content size a table segment needs for ``blocks``."""
    return table_segment_image(table_name, blocks).size


class CopyEvent(NamedTuple):
    """One row block copied by :class:`TableSegmentWriter`."""

    block_index: int
    #: The block's RBC bytes, each copied with one ``write_rbc``.
    nbytes: int
    #: Bytes this step put in the segment: the block's RBCs plus the
    #: preambles (the table's, the block's) written just before them.
    #: Summed over a table's events this is its ``used_bytes``.
    landed: int


class TableSegmentWriter:
    """Streams a table into a segment, one row block per step and one
    RBC ``memcpy`` at a time."""

    def __init__(
        self,
        segment: ShmSegment,
        table_name: str,
        blocks: list[RowBlock],
        image: TableImage | None = None,
    ) -> None:
        self._segment = segment
        self._table_name = table_name
        self._blocks = blocks
        #: ``blocks``' image, unless the caller already built it to size
        #: the segment.
        self._image = table_segment_image(table_name, blocks) if image is None else image
        self.used_bytes = self._image.size

    def write_rbc(self, offset: int, rbc: bytes | bytearray | memoryview) -> int:
        """Bulk-write one row block column straight from its heap buffer.

        One buffer-protocol ``memcpy`` into the segment, no staging copy:
        the source may be the heap ``bytes`` object itself or a
        ``memoryview`` over it.  Returns the offset past the write.
        """
        return self._segment.write_at(offset, rbc)

    def copy_events(self) -> Iterator[CopyEvent]:
        """Write everything; yield after each row block so the caller can
        free that block's heap buffers before the next one is copied.
        Each block is taken from the list only as it is copied, and
        nothing here holds it once its step is yielded."""
        image = self._image
        if self.used_bytes > self._segment.size:
            raise ShmError(
                f"table '{self._table_name}' needs {self.used_bytes} bytes; "
                f"segment '{self._segment.name}' holds {self._segment.size}"
            )
        cursor = self._segment.write_at(0, image.preamble)
        yielded = 0  # bytes already reported; blocks follow the preamble back to back
        for index, block_preamble in enumerate(image.block_preambles):
            start = self._segment.write_at(cursor, block_preamble)
            cursor = self._write_rbcs(start, self._blocks[index])
            landed, yielded = cursor - yielded, cursor
            yield CopyEvent(index, cursor - start, landed)

    def _write_rbcs(self, cursor: int, block: RowBlock) -> int:
        """Write ``block``'s RBCs from ``cursor`` in schema order, one
        :meth:`write_rbc` each; returns the offset past the last.  A
        frame of its own, so the suspended generator holds no reference
        to a block its caller is about to free."""
        for _, rbc in block.rbc_buffers():
            cursor = self.write_rbc(cursor, rbc)
        return cursor


def write_table_to_segment(
    segment: ShmSegment, table_name: str, blocks: list[RowBlock]
) -> int:
    """Copy ``blocks`` into ``segment``, freeing nothing; returns the
    content length."""
    writer = TableSegmentWriter(segment, table_name, blocks)
    for _ in writer.copy_events():
        pass
    return writer.used_bytes


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
    at = reader.offset
    if at + 16 * n_blocks > len(view):
        raise CorruptionError(f"{n_blocks}-block extent table overruns the segment")
    table = struct.unpack_from(f"<{2 * n_blocks}Q", view, at)
    pairs = list(zip(table[:n_blocks], table[n_blocks:]))
    for offset, size in pairs:
        if offset + size > used:
            raise CorruptionError("row block extent outside the segment's used bytes")
    return table_name, pairs


@dataclass(slots=True)
class BlockExtent(TimeRange):
    """One sealed block's location and header facts inside a segment:
    what a restore's block directory holds before the block is read.

    It carries every :class:`~repro.columnstore.rowblock.PackedHeader`
    field, so ``RowBlock.unpack(payload, extent)`` reads only the body
    of a block whose header the directory already checked.

    Nothing changes one once the directory is read.  It is not a frozen
    dataclass because a directory builds one per block and a frozen
    ``__init__`` costs several times a plain one."""

    table: str
    index: int  # position in the segment's block order
    offset: int
    size: int  # packed bytes inside the segment
    row_count: int
    min_time: int
    max_time: int
    created_at: float
    schema: Schema
    table_at: int  # the column offset table's offset inside the block
    columns: tuple[str, ...]


def read_block_headers(view: memoryview) -> tuple[str, list[BlockExtent]]:
    """Parse a segment's preamble plus each block's packed header.

    The cheap directory read of a restore: per block only the
    ``PACK_HEADER`` struct and the serialized schema are touched — no
    RBC payload is copied or decoded — so publishing a directory over a
    large segment costs a header scan, not a restore.  Header corruption
    surfaces here, before the leaf starts serving against the directory;
    payload corruption still surfaces at fault-in time (the body read of
    ``RowBlock.unpack`` and ``RowBlock.verify``).  This is the one read
    of a segment block's header: its fault-in hands the extent to the
    unpack.
    """
    table_name, pairs = read_segment_header(view)
    extents: list[BlockExtent] = []
    schema = columns = None
    for index, (offset, size) in enumerate(pairs):
        row_count, min_time, max_time, created_at, parsed, table_at = read_packed_header(
            view[offset : offset + size]
        )
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
                schema=schema,
                table_at=table_at,
                columns=columns,
            )
        )
    return table_name, extents


def iter_blocks_from_segment(view: memoryview) -> Iterator[tuple[str, RowBlock]]:
    """Yield ``(table_name, row_block)`` pairs (the restore direction).

    Each block is materialized by ``RowBlock.unpack``'s fast path: the
    block region is sliced as a ``memoryview`` (no copy) and every RBC
    leaves the segment with exactly one bulk ``bytes()``.
    """
    table_name, pairs = read_segment_header(view)
    for offset, size in pairs:
        yield table_name, RowBlock.unpack(view[offset : offset + size])
