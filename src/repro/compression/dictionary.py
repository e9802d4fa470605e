"""Dictionary encoding for string columns.

Scuba's dominant string compression: the distinct values go into a
dictionary section and the data section holds bit-packed ids.  Monitoring
data is extremely repetitive (host names, endpoints, severity labels), so
cardinality is usually tiny relative to the row count.

The dictionary section is the concatenation of varint-length-prefixed
UTF-8 entries, in first-appearance order so encoding is deterministic.
The id stream is a one-byte bit width followed by the packed ids.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CorruptionError
from repro.util.binary import BufferWriter, decode_varint
from repro.util.bits import pack_uints, required_bit_width, unpack_uints


def dictionary_encode(values: list[str]) -> tuple[bytes, bytes, int]:
    """Encode ``values`` as ``(dictionary_bytes, id_bytes, n_dict_items)``."""
    ids = np.empty(len(values), dtype=np.uint64)
    index: dict[str, int] = {}
    writer = BufferWriter()
    for i, value in enumerate(values):
        slot = index.get(value)
        if slot is None:
            slot = len(index)
            index[value] = slot
            writer.write_str(value)
        ids[i] = slot
    n_dict = len(index)
    if len(values) == 0:
        return b"", b"", 0
    width = required_bit_width(max(0, n_dict - 1))
    id_bytes = bytes([width]) + pack_uints(ids, width)
    return writer.getvalue(), id_bytes, n_dict


def decode_dictionary_entries(dictionary: bytes | memoryview, n_dict: int) -> list[str]:
    """Parse the dictionary section back into its entries, in one pass."""
    buf = bytes(dictionary)
    entries, pos = [], 0
    try:
        for _ in range(n_dict):
            length, pos = decode_varint(buf, pos)
            end = pos + length
            if end > len(buf):
                raise CorruptionError(
                    f"dictionary entry of {length} bytes at offset {pos} overruns "
                    f"the {len(buf)}-byte section"
                )
            entries.append(buf[pos:end].decode("utf-8"))
            pos = end
    except UnicodeDecodeError as exc:
        raise CorruptionError(f"invalid UTF-8 in string field: {exc}") from exc
    if pos != len(buf):
        raise CorruptionError(
            f"{len(buf) - pos} trailing bytes after {n_dict} dictionary entries"
        )
    return entries


def dictionary_decode(
    dictionary: bytes | memoryview,
    id_bytes: bytes | memoryview,
    n_dict: int,
    n_items: int,
) -> list[str]:
    """Invert :func:`dictionary_encode`."""
    if n_items == 0:
        return []
    entries = decode_dictionary_entries(dictionary, n_dict)
    id_view = memoryview(id_bytes)
    if len(id_view) < 1:
        raise CorruptionError("dictionary id stream missing its width byte")
    width = id_view[0]
    ids = unpack_uints(id_view[1:], width, n_items)
    if n_dict == 0 or int(ids.max(initial=0)) >= n_dict:
        raise CorruptionError(
            f"dictionary id out of range (dictionary has {n_dict} entries)"
        )
    return [entries[i] for i in ids]
