"""Shared-memory layout as the *disk* format (paper, Section 6).

"One large overhead in Scuba's disk recovery is translating from the disk
format to the heap memory format. [...] We are planning to use the shared
memory format described in this paper as the disk format, instead."

This module implements that future-work plan: a table is written to disk
as exactly the contiguous buffer that would go into its shared memory
segment (header, schema, column offset table, raw RBC payloads).  The
body is written from the same image the shm copy-out writes
(:func:`~repro.shm.layout.table_segment_image`, then each block's own
RBCs), chunk by chunk, so no whole table is ever joined in memory.
Recovery is then a read plus per-column buffer copies — no row-by-row
re-translation — and experiment E12 measures the speedup.

File layout::

    u32 magic "SMDF"
    u16 format version
    u16 flags                 (bit 0: file is a delta, not a base snapshot)
    u32 crc32 of body
    u64 body length
    u64 snapshot generation   (matches the manifest's watermark when fresh)
    u64 rows ingested         (table watermark at snapshot time)
    u64 rows expired          (table watermark at snapshot time)
    body = the exact table-segment bytes (Figure 4 preamble + packed blocks)

The generation number and the two watermarks make a snapshot
self-describing: the recovery ladder can check it against the backup
manifest (stale → route down to legacy replay) and restore the table's
monotone counters so post-recovery incremental syncs line up.

The flags word (formerly reserved, always written as zero — so every
pre-delta file reads back as a base) marks *delta* files: the same
envelope and body layout, but the body holds only the blocks sealed
since the previous chain generation.  A delta is meaningful only through
its manifest chain link; the chain reader cross-checks the flag against
the link's declared kind so a base can never be silently consumed as a
delta or vice versa.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

from repro.columnstore.rowblock import RowBlock, check_packed_header
from repro.errors import CorruptionError, LayoutVersionError
from repro.shm.layout import read_segment_header, table_segment_image  # format reuse, not shm I/O
from repro.util.checksum import crc32_of, verify_crc32

SHMDISK_MAGIC = 0x4644_4D53  # "SMDF"
#: Version of the snapshot *file envelope* (header below).  Independent of
#: ``SHM_LAYOUT_VERSION``, which governs the body bytes and is validated by
#: :func:`read_segment_header` when the body is parsed.
SHMDISK_FORMAT_VERSION = 2
_FILE_HEADER = struct.Struct("<IHHIQQQQ")
# magic, format version, flags, crc of body, body length,
# snapshot generation, rows ingested, rows expired

#: Envelope flag bit: the file is a per-block delta, not a base snapshot.
SNAPSHOT_FLAG_DELTA = 0x0001
_KNOWN_FLAGS = SNAPSHOT_FLAG_DELTA


@dataclass(frozen=True)
class ShmSnapshot:
    """One table's shm-format disk snapshot (or delta), decoded.

    ``blocks`` are the blocks past the ``skipped_blocks`` leading ones
    the reader was told are dead (see :func:`read_table_snapshot`).
    """

    table_name: str
    blocks: list[RowBlock]
    generation: int
    rows_ingested: int
    rows_expired: int
    flags: int = 0
    skipped_blocks: int = 0

    @property
    def is_delta(self) -> bool:
        return bool(self.flags & SNAPSHOT_FLAG_DELTA)

    @property
    def row_count(self) -> int:
        return sum(block.row_count for block in self.blocks)


def safe_table_stem(name: str) -> str:
    """A filesystem-safe file stem for a table (hex-escapes odd chars)."""
    return "".join(
        ch if ch.isalnum() or ch in "-_." else f"%{ord(ch):02x}" for ch in name
    )


def snapshot_filename(name: str) -> str:
    """The filesystem-safe snapshot file name for a table."""
    return f"{safe_table_stem(name)}.shmdisk"


def delta_filename(name: str, generation: int) -> str:
    """The filesystem-safe delta file name for one chain generation."""
    return f"{safe_table_stem(name)}.d{generation}.shmdisk"


def fsync_directory(directory: str | Path) -> None:
    """fsync a directory so a just-renamed file survives a crash.

    ``os.replace`` makes the rename atomic but not durable: until the
    containing directory's metadata reaches disk, a crash can roll the
    directory entry back and lose a file the manifest already vouches
    for.  POSIX requires an fsync on the directory fd itself.
    """
    fd = os.open(str(directory), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_table_shm_format(
    directory: str | Path,
    table_name: str,
    blocks: list[RowBlock],
    *,
    generation: int = 0,
    rows_ingested: int | None = None,
    rows_expired: int = 0,
    flags: int = 0,
    filename: str | None = None,
) -> Path:
    """Write one table's shm-format disk file; returns its path.

    The write is atomic (tmp + ``os.replace``) and the file is fsynced —
    a torn write can only ever leave the *previous* snapshot in place
    (which the generation check routes around).  The rename is not yet
    durable: the caller owes one :func:`fsync_directory` of ``directory``
    before anything vouches for the file, so a crash cannot un-land it.

    ``filename`` overrides the default base-snapshot name — delta files
    live in the same directory under their chain-generation names — and
    ``flags`` lands in the envelope (``SNAPSHOT_FLAG_DELTA`` marks a
    delta body).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if rows_ingested is None:
        rows_ingested = rows_expired + sum(block.row_count for block in blocks)
    image = table_segment_image(table_name, blocks)
    body = [image.preamble]
    for block, block_preamble in zip(blocks, image.block_preambles):
        body.append(block_preamble)
        body.extend(buf for _, buf in block.rbc_buffers())
    path = directory / (filename or snapshot_filename(table_name))
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as fh:
        fh.write(
            _FILE_HEADER.pack(
                SHMDISK_MAGIC,
                SHMDISK_FORMAT_VERSION,
                flags,
                crc32_of(*body),
                image.size,
                generation,
                rows_ingested,
                rows_expired,
            )
        )
        fh.writelines(body)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def read_table_snapshot(path: str | Path, skip_rows: int = 0) -> ShmSnapshot:
    """Read and validate one shm-format file (CRC, versions, bounds).

    Raises :class:`CorruptionError` for torn/truncated files and
    :class:`LayoutVersionError` when either the file envelope or the
    embedded segment layout was written by an incompatible build.

    ``skip_rows`` is how many of the file's leading rows the caller
    already knows are dead (the table expired them): the whole file is
    still read and checksummed, but the leading blocks that hold them
    are only counted, by their headers, never unpacked.  A count that
    does not end on a block boundary raises :class:`CorruptionError`.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _FILE_HEADER.size:
        raise CorruptionError("shm-format disk file shorter than its header")
    (
        magic,
        version,
        flags,
        crc,
        body_len,
        generation,
        rows_ingested,
        rows_expired,
    ) = _FILE_HEADER.unpack(raw[: _FILE_HEADER.size])
    if magic != SHMDISK_MAGIC:
        raise CorruptionError(f"bad shm-format disk magic 0x{magic:08x}")
    if version != SHMDISK_FORMAT_VERSION:
        raise LayoutVersionError(
            f"shm-format disk file version {version}; this build reads "
            f"{SHMDISK_FORMAT_VERSION}"
        )
    if flags & ~_KNOWN_FLAGS:
        raise LayoutVersionError(
            f"shm-format disk file carries unknown flags 0x{flags:04x}"
        )
    body = memoryview(raw)[_FILE_HEADER.size : _FILE_HEADER.size + body_len]
    if len(body) < body_len:
        raise CorruptionError("shm-format disk file truncated")
    verify_crc32(crc, body)
    # The body is byte-identical to a table segment, so the shared
    # preamble parser defines every offset — including the empty-table
    # case — and validates the embedded layout version for free.
    table_name, pairs = read_segment_header(body)
    skipped = 0
    blocks = []
    for offset, size in pairs:
        view = body[offset : offset + size]
        if skipped < skip_rows:
            skipped += check_packed_header(view)[0]
        else:
            blocks.append(RowBlock.unpack(view))
    if skipped != skip_rows:
        raise CorruptionError(
            f"{skip_rows} expired rows do not end on a block boundary of "
            f"snapshot file '{Path(path).name}'"
        )
    return ShmSnapshot(
        table_name=table_name,
        blocks=blocks,
        generation=generation,
        rows_ingested=rows_ingested,
        rows_expired=rows_expired,
        flags=flags,
        skipped_blocks=len(pairs) - len(blocks),
    )
