"""Shared compression types: the flag word and the encoded-column record.

A row block column stores a 16-bit *compression code* in its header
(paper, Figure 3).  Here that code is a bitmask of the methods that were
applied, so a decoder can mechanically invert the pipeline without any
out-of-band knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntFlag

#: Paper: "The row block is capped at 1 GB, pre-compression."  So is any
#: one section of it: the bound a dictionary or raw string section, whose
#: inflated size no header records, is inflated under.
MAX_ROWBLOCK_BYTES = 1 << 30


class CompressionFlags(IntFlag):
    """Methods applied to a column payload, composable as a bitmask.

    ``RAW`` (value 0) means the data section holds the values' natural
    serialization untouched.
    """

    RAW = 0
    DICT = 1  # data holds dictionary ids; dictionary section holds values
    DELTA = 2  # consecutive differences stored instead of absolute values
    ZIGZAG = 4  # signed->unsigned fold so small magnitudes pack small
    BITPACK = 8  # minimal-width dense bit packing
    LZ = 16  # raw deflate (zlib level 1) of the data section
    SHUFFLE = 32  # byte transposition (groups co-varying bytes before LZ)
    DICT_LZ = 64  # raw deflate of the dictionary section


@dataclass(frozen=True)
class EncodedColumn:
    """The output of encoding one column of values.

    The three byte fields map one-to-one onto the row block column layout
    in Figure 3: ``dictionary`` becomes the dictionary section, ``data``
    the data section, and ``flags``/``n_items``/``n_dict_items`` land in
    the header.
    """

    flags: CompressionFlags
    n_items: int
    n_dict_items: int
    dictionary: bytes
    data: bytes

    @property
    def payload_size(self) -> int:
        """Total encoded bytes (dictionary plus data sections)."""
        return len(self.dictionary) + len(self.data)
