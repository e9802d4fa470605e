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
from repro.util.binary import len_prefixed_many, read_len_prefixed_many
from repro.util.bits import pack_uints, required_bit_width, unpack_uints


def dictionary_encode(values: list[str]) -> tuple[bytes, bytes, int]:
    """Encode ``values`` as ``(dictionary_bytes, id_bytes, n_dict_items)``."""
    if not values:
        return b"", b"", 0
    index: dict[str, int] = {}
    ids = np.array([index.setdefault(value, len(index)) for value in values], dtype=np.uint64)
    width = required_bit_width(len(index) - 1)
    return b"".join(len_prefixed_many(index)), bytes([width]) + pack_uints(ids, width), len(index)


def dictionary_decode(
    dictionary: bytes | memoryview,
    id_bytes: bytes | memoryview,
    n_dict: int,
    n_items: int,
) -> list[str]:
    """Invert :func:`dictionary_encode`."""
    if n_items == 0:
        return []
    entries = read_len_prefixed_many(dictionary, n_dict)
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
