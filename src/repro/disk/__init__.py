"""Disk backup substrate (paper, Section 4.1).

Scuba stores a backup of all incoming data on local disk, so recovery is
always possible even after a crash.  The backup's *legacy format* is
row-oriented and deliberately different from the in-memory column layout:
recovery must re-read every row and re-translate it into compressed row
block columns, which is the step the paper measures at 2.5–3 hours per
machine ("translating it to its in-memory format", 4 orders of magnitude
above query latency).

This package also implements the paper's Section 6 future-work idea as
:mod:`repro.disk.shmformat`: writing the shared-memory (contiguous
column) layout to disk instead, which turns recovery into a near-copy
and is benchmarked as experiment E12.
"""

from repro.disk.backup import DiskBackup
from repro.disk.format import (
    read_table_chunks,
    write_chunk,
    write_file_header,
)
from repro.disk.recovery import (
    recover_leafmap,
    recover_table_runs,
)
from repro.disk.shmformat import (
    ShmSnapshot,
    read_table_snapshot,
    write_table_shm_format,
)

__all__ = [
    "DiskBackup",
    "ShmSnapshot",
    "read_table_chunks",
    "read_table_snapshot",
    "recover_leafmap",
    "recover_table_runs",
    "write_chunk",
    "write_file_header",
    "write_table_shm_format",
]
