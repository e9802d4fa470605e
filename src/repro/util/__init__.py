"""Low-level helpers shared by every other subpackage.

Nothing in here knows about Scuba, tables, or restarts: these are plain
binary-encoding, checksum, bit-packing, clock, accounting, and
admission-control utilities.
"""

from repro.util.binary import (
    BufferReader,
    BufferWriter,
    decode_varint,
    encode_varint,
)
from repro.util.bits import pack_uints, required_bit_width, unpack_uints
from repro.util.budget import FootprintBudget
from repro.util.checksum import crc32_of, verify_crc32
from repro.util.clock import Clock, ManualClock, SystemClock
from repro.util.memtrack import MemoryTracker

__all__ = [
    "BufferReader",
    "BufferWriter",
    "Clock",
    "FootprintBudget",
    "ManualClock",
    "MemoryTracker",
    "SystemClock",
    "crc32_of",
    "decode_varint",
    "encode_varint",
    "pack_uints",
    "required_bit_width",
    "unpack_uints",
    "verify_crc32",
]
