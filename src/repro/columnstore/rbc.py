"""Row block columns (paper, Figure 3).

A row block column (RBC) is one column's values for every row in a row
block, serialized into a **single contiguous buffer**:

```
+--------+-------------+----------+--------+
| header | dictionary  |   data   | footer |
+--------+-------------+----------+--------+
```

The header starts at a base address and *all other addresses are offsets
from that base* (paper: "Using offsets enables us to copy the entire row
block column between heap and shared memory in one memory copy
operation").  Only the pointer to the RBC itself lives outside the buffer.

Header layout (56 bytes, little-endian)::

    u32 magic            "RBC1"
    u16 version          layout version of this structure
    u16 compression code :class:`CompressionFlags` bitmask
    u64 total bytes      size of the whole buffer, header..footer inclusive
    u64 n items          number of values in the column
    u64 n dict items     entries in the dictionary section (0 if none)
    u64 dictionary offset
    u64 data offset
    u64 footer offset

Footer layout (8 bytes)::

    u32 crc32 over bytes [0, footer offset)
    u32 end magic        "1CBR"
"""

from __future__ import annotations

import struct

from repro.compression import (
    CompressionFlags,
    DecodedColumn,
    EncodedColumn,
    decode_column,
    decode_column_arrays,
    encode_column,
)
from repro.errors import CorruptionError, LayoutVersionError
from repro.types import ColumnType, ColumnValue
from repro.util.checksum import crc32_of, verify_crc32

RBC_MAGIC = 0x31434252  # "RBC1" little-endian
RBC_END_MAGIC = 0x52424331  # "1CBR" little-endian
#: 2: compressed sections are raw deflate (1 was a from-scratch LZ).
RBC_VERSION = 2
HEADER_SIZE = 56
FOOTER_SIZE = 8

_HEADER = struct.Struct("<IHHQQQQQQ")
_FOOTER = struct.Struct("<II")


def build_rbc(ctype: ColumnType, values: list[ColumnValue]) -> bytes:
    """Encode ``values`` into a freshly-built RBC buffer."""
    encoded = encode_column(ctype, values)
    return build_rbc_from_encoded(encoded)


def build_rbc_from_encoded(encoded: EncodedColumn) -> bytes:
    """Assemble the Figure-3 buffer around an already-encoded column."""
    dict_offset = HEADER_SIZE
    data_offset = dict_offset + len(encoded.dictionary)
    footer_offset = data_offset + len(encoded.data)
    total = footer_offset + FOOTER_SIZE
    header = _HEADER.pack(
        RBC_MAGIC,
        RBC_VERSION,
        int(encoded.flags),
        total,
        encoded.n_items,
        encoded.n_dict_items,
        dict_offset,
        data_offset,
        footer_offset,
    )
    body = header + encoded.dictionary + encoded.data
    footer = _FOOTER.pack(crc32_of(body), RBC_END_MAGIC)
    return body + footer


class RowBlockColumn:
    """A read-only view over an RBC buffer.

    The class never copies the payload: it can wrap heap ``bytes``, a
    ``memoryview`` into a shared memory segment, or an ``mmap`` slice —
    which is exactly the position-independence property the restart path
    relies on.
    """

    __slots__ = (
        "_buf",
        "flags",
        "n_items",
        "n_dict_items",
        "_dict_offset",
        "_data_offset",
        "_footer_offset",
    )

    def __init__(self, buf: bytes | bytearray | memoryview) -> None:
        if len(buf) < HEADER_SIZE + FOOTER_SIZE:
            raise CorruptionError(
                f"buffer of {len(buf)} bytes is smaller than an empty RBC"
            )
        view = memoryview(buf)
        (
            magic,
            version,
            flags,
            total,
            n_items,
            n_dict,
            dict_offset,
            data_offset,
            footer_offset,
        ) = _HEADER.unpack(view[:HEADER_SIZE])
        if magic != RBC_MAGIC:
            raise CorruptionError(f"bad RBC magic 0x{magic:08x}")
        if version != RBC_VERSION:
            raise LayoutVersionError(
                f"RBC layout version {version} not readable by this build "
                f"(expects {RBC_VERSION})"
            )
        if total != len(view):
            raise CorruptionError(
                f"RBC header claims {total} bytes but buffer holds {len(view)}"
            )
        if not HEADER_SIZE <= dict_offset <= data_offset <= footer_offset <= total - FOOTER_SIZE:
            raise CorruptionError("RBC section offsets out of order or out of bounds")
        if footer_offset + FOOTER_SIZE != total:
            raise CorruptionError("RBC footer is not at the end of the buffer")
        self._buf = view
        self.flags = CompressionFlags(flags)
        self.n_items = n_items
        self.n_dict_items = n_dict
        self._dict_offset = dict_offset
        self._data_offset = data_offset
        self._footer_offset = footer_offset

    @property
    def buffer(self) -> memoryview:
        """The whole underlying buffer (the thing one ``memcpy`` moves)."""
        return self._buf

    @property
    def dictionary(self) -> memoryview:
        return self._buf[self._dict_offset : self._data_offset]

    @property
    def data(self) -> memoryview:
        return self._buf[self._data_offset : self._footer_offset]

    def verify(self) -> None:
        """Check end magic and checksum; raise on any mismatch."""
        crc, end_magic = _FOOTER.unpack(self._buf[self._footer_offset :])
        if end_magic != RBC_END_MAGIC:
            raise CorruptionError(f"bad RBC end magic 0x{end_magic:08x}")
        verify_crc32(crc, self._buf[: self._footer_offset])

    def to_encoded(self, copy: bool = True) -> EncodedColumn:
        """Reconstruct the :class:`EncodedColumn` this buffer was built from.

        With ``copy=False`` the dictionary and data fields are
        ``memoryview`` sections over this buffer instead of detached
        ``bytes`` — no copy at all.  Every decoder accepts views, so the
        zero-copy form is safe whenever the caller consumes the encoded
        column before the underlying buffer goes away (the decode path
        does exactly that).
        """
        return EncodedColumn(
            self.flags,
            self.n_items,
            self.n_dict_items,
            bytes(self.dictionary) if copy else self.dictionary,
            bytes(self.data) if copy else self.data,
        )

    def values(self, ctype: ColumnType) -> list[ColumnValue]:
        """Decode the column back to Python values."""
        # The encoded sections are consumed inside decode_column, so the
        # zero-copy form avoids two throwaway buffer copies per decode.
        return decode_column(ctype, self.to_encoded(copy=False))

    def decoded(self, ctype: ColumnType) -> DecodedColumn:
        """Decode straight to the array form the vectorized kernels use.

        The result's arrays are fresh heap copies — safe to cache past
        the lifetime of this buffer (e.g. an shm view).
        """
        return decode_column_arrays(ctype, self.to_encoded(copy=False))

    def copy_bytes(self) -> bytes:
        """A detached copy of the buffer (e.g. heap copy of an shm view)."""
        return bytes(self._buf)


def rbc_stored_crc(buf: bytes | memoryview) -> int:
    """The payload CRC an RBC buffer's footer stores, read without
    touching (or re-checksumming) the payload."""
    if len(buf) < HEADER_SIZE + FOOTER_SIZE:
        raise CorruptionError(
            f"buffer of {len(buf)} bytes is smaller than an empty RBC"
        )
    return _FOOTER.unpack_from(buf, len(buf) - FOOTER_SIZE)[0]


def rbc_extent(view: memoryview, offset: int) -> int:
    """Total size of the RBC starting at ``offset``, from its header.

    This is the only field the restore fast path needs to slice an RBC
    out of a packed block without constructing a :class:`RowBlockColumn`
    (full validation happens later, in ``verify``/decode).
    """
    if offset + 16 > len(view):
        raise CorruptionError("RBC header overruns its enclosing buffer")
    magic = struct.unpack_from("<I", view, offset)[0]
    if magic != RBC_MAGIC:
        raise CorruptionError(f"bad RBC magic 0x{magic:08x}")
    total = struct.unpack_from("<Q", view, offset + 8)[0]
    if total < HEADER_SIZE + FOOTER_SIZE:
        raise CorruptionError(f"RBC claims impossible total size {total}")
    return total
