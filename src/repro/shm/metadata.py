"""Per-leaf shared memory metadata (paper, Section 4.2 and Figure 4).

"Each leaf has a unique hard coded location in shared memory for its
metadata.  In that location, the leaf stores a valid bit, a layout version
number, and pointers to any shared memory segments it has allocated.
There is one segment per table."

Here the "hard coded location" is a segment whose *name* is a pure
function of the leaf id (and a namespace prefix so concurrent test runs
cannot collide).  Layout of the metadata segment::

    u32 magic        "SLMD"
    u16 meta version (layout of this metadata block itself)
    u16 data layout version (layout of the table segments)
    u8  valid bit    <-- patched in place by set_valid()
    u8[7] reserved
    u64 payload length
    payload: varint table count, then per table:
        str table name
        str segment name
        u64 used bytes (content length inside the segment)
        u64 rows ingested (monotone counter, re-aligns disk sync points)
        u64 rows expired

The valid bit lives at a fixed offset so it can be flipped atomically
(one byte) after all table segments are fully written — the commit point
of the shutdown protocol.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import CorruptionError, LayoutVersionError, ShmError
from repro.shm.segment import ShmSegment, segment_exists
from repro.util.binary import BufferReader, BufferWriter

METADATA_MAGIC = 0x444D4C53  # "SLMD"
METADATA_VERSION = 1
_FIXED = struct.Struct("<IHHB7xQ")
_VALID_OFFSET = 8  # byte offset of the valid bit within the segment

#: Generous fixed size for the metadata segment: it is created once at
#: shutdown and must hold the table list (hundreds of tables fit easily).
METADATA_SEGMENT_SIZE = 1 << 20


def metadata_segment_name(namespace: str, leaf_id: str) -> str:
    """The leaf's unique, derivable metadata location."""
    return f"{namespace}-leaf-{leaf_id}-meta"


@dataclass(frozen=True)
class TableSegmentRecord:
    """One table's entry in the leaf metadata."""

    table_name: str
    segment_name: str
    used_bytes: int
    rows_ingested: int = 0
    rows_expired: int = 0


class LeafMetadata:
    """Read/write access to a leaf's metadata segment."""

    def __init__(self, segment: ShmSegment) -> None:
        self._segment = segment

    # ------------------------------------------------------------------
    # Creation (shutdown path)
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls, namespace: str, leaf_id: str, layout_version: int
    ) -> "LeafMetadata":
        """Create the metadata segment with valid=False and no tables."""
        name = metadata_segment_name(namespace, leaf_id)
        segment = ShmSegment.create(name, METADATA_SEGMENT_SIZE)
        meta = cls(segment)
        meta._write(layout_version, valid=False, records=[])
        return meta

    @classmethod
    def attach(cls, namespace: str, leaf_id: str) -> "LeafMetadata":
        """Attach to an existing metadata segment; raises if absent."""
        return cls(ShmSegment.attach(metadata_segment_name(namespace, leaf_id)))

    @classmethod
    def exists(cls, namespace: str, leaf_id: str) -> bool:
        return segment_exists(metadata_segment_name(namespace, leaf_id))

    # ------------------------------------------------------------------
    # Fields
    # ------------------------------------------------------------------

    def _write(
        self, layout_version: int, valid: bool, records: list[TableSegmentRecord]
    ) -> None:
        writer = BufferWriter()
        writer.write_varint(len(records))
        for record in records:
            writer.write_str(record.table_name)
            writer.write_str(record.segment_name)
            writer.write_u64(record.used_bytes)
            writer.write_u64(record.rows_ingested)
            writer.write_u64(record.rows_expired)
        payload = writer.getvalue()
        fixed = _FIXED.pack(
            METADATA_MAGIC,
            METADATA_VERSION,
            layout_version,
            1 if valid else 0,
            len(payload),
        )
        if len(fixed) + len(payload) > self._segment.size:
            raise ShmError(
                f"leaf metadata of {len(payload)} bytes exceeds the "
                f"{self._segment.size}-byte metadata segment"
            )
        self._segment.write_at(0, fixed)
        self._segment.write_at(len(fixed), payload)

    def _read_fixed(self) -> tuple[int, bool, int]:
        # Parse errors below must not carry a live view in their traceback:
        # the caller's fallback unlinks this segment, and an exported
        # pointer makes the unmap fail.
        with self._segment.read_at(0, _FIXED.size) as view:
            magic, meta_version, layout_version, valid, payload_len = _FIXED.unpack(view)
        if magic != METADATA_MAGIC:
            raise CorruptionError(f"bad leaf metadata magic 0x{magic:08x}")
        if meta_version != METADATA_VERSION:
            raise LayoutVersionError(
                f"leaf metadata version {meta_version} not readable by this build"
            )
        return layout_version, bool(valid), payload_len

    @property
    def layout_version(self) -> int:
        return self._read_fixed()[0]

    @property
    def valid(self) -> bool:
        """The valid bit: True only between a completed backup and the
        beginning of the next restore."""
        return self._read_fixed()[1]

    def set_valid(self, valid: bool) -> None:
        """Flip the valid bit in place (single-byte store)."""
        self._segment.write_at(_VALID_OFFSET, bytes([1 if valid else 0]))

    def set_records(self, records: list[TableSegmentRecord]) -> None:
        """Rewrite the table segment list, preserving the current valid
        bit and layout version."""
        layout_version, valid, _ = self._read_fixed()
        self._write(layout_version, valid, records)

    @property
    def records(self) -> list[TableSegmentRecord]:
        _, __, payload_len = self._read_fixed()
        if _FIXED.size + payload_len > self._segment.size:
            raise CorruptionError("leaf metadata payload length out of bounds")
        reader = BufferReader(bytes(self._segment.read_at(_FIXED.size, payload_len)))
        count = reader.read_varint()
        records = []
        for _ in range(count):
            table_name = reader.read_str()
            segment_name = reader.read_str()
            used = reader.read_u64()
            ingested = reader.read_u64()
            expired = reader.read_u64()
            records.append(
                TableSegmentRecord(table_name, segment_name, used, ingested, expired)
            )
        return records

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        self._segment.close()

    def unlink(self) -> None:
        self._segment.unlink()

