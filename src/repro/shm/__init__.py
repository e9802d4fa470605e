"""Shared memory substrate (paper, Sections 3 and 4.2).

Shared memory lets a Scuba process communicate with its replacement even
though their lifetimes do not overlap.  This package wraps POSIX shared
memory (``shm_open`` plus :class:`mmap.mmap`, the Python analogue of the
paper's Boost::Interprocess mmap API) and defines:

- :class:`ShmSegment` — a named segment whose lifetime *we* manage: no
  helper process is told of it, since outliving the creating process is
  the whole point,
- :class:`LeafMetadata` — the per-leaf metadata block at a fixed,
  derivable name: valid bit, layout version, and the table segment names,
- the contiguous table layout of Figure 4 (:mod:`repro.shm.layout`),
- a first-fit shared-memory allocator (:mod:`repro.shm.allocator`) that
  exists only to measure the fragmentation of the design alternative the
  paper rejected.
"""

from repro.shm.inspect import LeafShmInfo, format_leaf_info, inspect_leaf
from repro.shm.layout import (
    SHM_LAYOUT_VERSION,
    table_segment_size,
    write_table_to_segment,
)
from repro.shm.metadata import LeafMetadata, TableSegmentRecord, metadata_segment_name
from repro.shm.segment import ShmSegment, segment_exists

__all__ = [
    "LeafMetadata",
    "LeafShmInfo",
    "format_leaf_info",
    "inspect_leaf",
    "SHM_LAYOUT_VERSION",
    "ShmSegment",
    "TableSegmentRecord",
    "metadata_segment_name",
    "segment_exists",
    "table_segment_size",
    "write_table_to_segment",
]
