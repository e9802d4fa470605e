"""Binary encoding primitives: little-endian struct helpers, varints,
the string wire form (:func:`len_prefixed_many`
writes it, :func:`read_len_prefixed_many` walks a run of it), and
cursor-style buffer reader/writer classes.

All multi-byte integers in the repro on-disk / in-shared-memory formats are
little-endian, matching the x86 servers the paper ran on.  Every pointer
stored *inside* a serialized structure is an offset from the structure's
base address (paper, Section 2.1), which is what makes single-``memcpy``
relocation possible; the reader/writer here only ever deal in offsets.
"""

from __future__ import annotations

import struct
from typing import Iterable

from repro.errors import CorruptionError

_U8 = struct.Struct("<B")
_U64 = struct.Struct("<Q")
#: Public: the row-format chunk encoder packs these two directly.
I64 = struct.Struct("<q")
F64 = struct.Struct("<d")


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a LEB128 varint."""
    if value < 0:
        raise ValueError(f"varint requires a non-negative value, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


#: The varint of a length below 128 is that one byte.
_ONE_BYTE_LENGTHS = [bytes((n,)) for n in range(128)]


def len_prefixed_many(texts: Iterable[str]) -> list[bytes]:
    """Each of ``texts`` in its wire form: the UTF-8 bytes behind their
    varint byte length.  The one definition of how every string is
    written — schema names, dictionary entries, raw string columns and
    the row log — built in one comprehension, since at a few hundred
    values a block a call per value was most of the cost."""
    return [
        (_ONE_BYTE_LENGTHS[len(raw)] if len(raw) < 128 else encode_varint(len(raw))) + raw
        for raw in map(str.encode, texts)
    ]


def len_prefixed(text: str) -> bytes:
    """One string in its wire form (see :func:`len_prefixed_many`)."""
    return len_prefixed_many((text,))[0]


def read_len_prefixed_many(buf: bytes | memoryview, n: int, cells: bool = False) -> list:
    """The read twin of :func:`len_prefixed_many`: the ``n`` strings that
    fill ``buf`` end to end, as ``str`` values or, with ``cells``, as
    their wire-form ``bytes`` slices (length prefix included).

    One local loop: a length below 128 is its one byte, and
    :func:`decode_varint` runs only for longer ones.  Raises
    :class:`CorruptionError` on a truncated length or value, on bytes
    left after the ``n``-th string and on invalid UTF-8; a value that
    overruns the buffer leaves the walk past its end.  An ASCII
    buffer is decoded once and sliced.  Cells are checked by one decode
    of the whole buffer when every length was one byte: each byte
    outside a value is then ASCII, and no multi-byte sequence holds an
    ASCII byte.  A longer length's bytes can complete a value's
    truncated sequence, so then each value is checked on its own.
    """
    buf = bytes(buf)
    end = len(buf)
    source = buf.decode("ascii") if not cells and buf.isascii() else buf
    out: list = []
    append = out.append
    pos, one_byte = 0, True
    try:
        for _ in range(n):
            start, length = pos, buf[pos]
            pos += 1
            if length >= 0x80:
                length, pos = decode_varint(buf, start)
                one_byte = False
            stop = pos + length
            append(source[start if cells else pos : stop])
            pos = stop
    except IndexError as exc:
        raise CorruptionError(f"{n} strings overrun {end} bytes") from exc
    if pos != end:  # past it: a slice overran (and came back short)
        raise CorruptionError(f"{n} strings take {pos} bytes; the buffer holds {end}")
    try:
        if source is not buf:
            return out
        if not cells:
            return list(map(bytes.decode, out))
        if one_byte:
            buf.decode("utf-8")
        else:
            for cell in out:
                cell[decode_varint(cell)[1] :].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptionError(f"invalid UTF-8 in string field: {exc}") from exc
    return out


def decode_varint(buf: bytes | memoryview, offset: int = 0) -> tuple[int, int]:
    """Decode a LEB128 varint.

    Returns ``(value, next_offset)``.  Raises :class:`CorruptionError` if
    the buffer ends mid-varint or the varint is pathologically long.
    """
    value = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(buf):
            raise CorruptionError("varint truncated at end of buffer")
        if shift > 63:
            raise CorruptionError("varint longer than 64 bits")
        byte = buf[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


class BufferWriter:
    """An append-only binary writer."""

    def __init__(self) -> None:
        self._buf = bytearray()

    @property
    def offset(self) -> int:
        """Current write position (== number of bytes written so far)."""
        return len(self._buf)

    def write_bytes(self, data: bytes | bytearray | memoryview) -> None:
        self._buf += data

    def write_u8(self, value: int) -> None:
        self._buf += _U8.pack(value)

    def write_u64(self, value: int) -> None:
        self._buf += _U64.pack(value)

    def write_i64(self, value: int) -> None:
        self._buf += I64.pack(value)

    def write_f64(self, value: float) -> None:
        self._buf += F64.pack(value)

    def write_varint(self, value: int) -> None:
        self._buf += encode_varint(value)

    def write_len_prefixed(self, data: bytes) -> None:
        """Write a varint length followed by the raw bytes."""
        self.write_varint(len(data))
        self.write_bytes(data)

    def write_str(self, text: str) -> None:
        """Write a UTF-8 string with a varint byte-length prefix."""
        self._buf += len_prefixed(text)

    def getvalue(self) -> bytes:
        return bytes(self._buf)


class BufferReader:
    """A cursor over a read-only buffer with bounds-checked accessors.

    Every read past the end raises :class:`CorruptionError` rather than
    ``struct.error`` so that callers decoding untrusted bytes (a disk file,
    a shared memory segment left by an older process) get a uniform error.
    """

    def __init__(self, buf: bytes | bytearray | memoryview, offset: int = 0) -> None:
        self._buf = memoryview(buf)
        self._pos = offset

    @property
    def offset(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return len(self._buf) - self._pos

    def seek(self, offset: int) -> None:
        if not 0 <= offset <= len(self._buf):
            raise CorruptionError(
                f"seek to {offset} outside buffer of {len(self._buf)} bytes"
            )
        self._pos = offset

    def _take(self, count: int) -> memoryview:
        if count < 0 or self._pos + count > len(self._buf):
            raise CorruptionError(
                f"read of {count} bytes at offset {self._pos} overruns "
                f"buffer of {len(self._buf)} bytes"
            )
        view = self._buf[self._pos : self._pos + count]
        self._pos += count
        return view

    def read_bytes(self, count: int) -> bytes:
        return bytes(self._take(count))

    def read_view(self, count: int) -> memoryview:
        """Zero-copy read; the view aliases the underlying buffer."""
        return self._take(count)

    def read_u8(self) -> int:
        return _U8.unpack(self._take(1))[0]

    def read_u64(self) -> int:
        return _U64.unpack(self._take(8))[0]

    def read_i64(self) -> int:
        return I64.unpack(self._take(8))[0]

    def read_f64(self) -> float:
        return F64.unpack(self._take(8))[0]

    def read_varint(self) -> int:
        value, self._pos = decode_varint(self._buf, self._pos)
        return value

    def read_len_prefixed(self) -> bytes:
        return self.read_bytes(self.read_varint())

    def read_str(self) -> str:
        raw = self.read_len_prefixed()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptionError(f"invalid UTF-8 in string field: {exc}") from exc
