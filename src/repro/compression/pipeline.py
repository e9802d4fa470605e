"""Per-type compression pipelines.

``encode_column`` turns a homogeneous list of values into an
:class:`~repro.compression.base.EncodedColumn`; ``decode_column`` inverts
it given only the information a row block column header carries (type,
flags, item counts).  Method selection follows Scuba's combination rules
(paper, Section 2.1 — "at least two methods applied to each column"):

- INT64    → zigzag + bitpack, with delta added when it narrows the width
- FLOAT64  → byte shuffle + deflate, raw fallback when incompressible
- STRING   → dictionary + bitpacked ids (deflated dictionary when it
             pays); raw + deflate fallback for near-unique columns
- VECTOR   → bitpacked per-row lengths + flattened dictionary encoding
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import MAX_ROWBLOCK_BYTES, CompressionFlags, EncodedColumn
from repro.compression.decoded import DecodedColumn
from repro.compression.dictionary import dictionary_encode
from repro.compression.floatcodec import (
    decode_float64_payload,
    encode_float64_payload,
)
from repro.compression.intcodec import decode_int64_payload, encode_int64_payload
from repro.compression.lzs import lz_compress, lz_decompress
from repro.errors import CorruptionError
from repro.types import ColumnType, ColumnValue
from repro.util.binary import BufferReader, BufferWriter, len_prefixed_many, read_len_prefixed_many
from repro.util.bits import pack_uints, required_bit_width, unpack_uints

#: A string column whose distinct/total ratio exceeds this is stored raw
#: (near-unique request ids gain nothing from a dictionary).
_DICT_CARDINALITY_CUTOFF = 0.9


def _maybe_lz_dictionary(dictionary: bytes) -> tuple[CompressionFlags, bytes]:
    """Deflate the dictionary section when that actually shrinks it."""
    if len(dictionary) < 64:
        return CompressionFlags.RAW, dictionary
    compressed = lz_compress(dictionary)
    if len(compressed) < len(dictionary):
        return CompressionFlags.DICT_LZ, compressed
    return CompressionFlags.RAW, dictionary


def _encode_strings(values: list[str]) -> EncodedColumn:
    n = len(values)
    distinct = len(set(values)) if n else 0
    if n and distinct / n > _DICT_CARDINALITY_CUTOFF:
        raw = b"".join(len_prefixed_many(values))
        compressed = lz_compress(raw)
        if len(compressed) < len(raw):
            return EncodedColumn(CompressionFlags.LZ, n, 0, b"", compressed)
        return EncodedColumn(CompressionFlags.RAW, n, 0, b"", raw)
    dictionary, ids, n_dict = dictionary_encode(values)
    dict_flag, dictionary = _maybe_lz_dictionary(dictionary)
    flags = CompressionFlags.DICT | CompressionFlags.BITPACK | dict_flag
    return EncodedColumn(flags, n, n_dict, dictionary, ids)


def _parse_dict_strings(encoded: EncodedColumn) -> tuple[list[str], np.ndarray]:
    """Dictionary-encoded string sections as ``(entries, ids)``."""
    dictionary = encoded.dictionary
    if CompressionFlags.DICT_LZ in encoded.flags:
        dictionary = lz_decompress(dictionary, MAX_ROWBLOCK_BYTES)
    entries = read_len_prefixed_many(dictionary, encoded.n_dict_items)
    if encoded.n_items == 0:
        return entries, np.empty(0, dtype=np.uint64)
    data = memoryview(encoded.data)
    if len(data) < 1:
        raise CorruptionError("string id stream missing its width byte")
    ids = unpack_uints(data[1:], data[0], encoded.n_items)
    if encoded.n_dict_items == 0 or int(ids.max(initial=0)) >= encoded.n_dict_items:
        raise CorruptionError("string dictionary id out of range")
    return entries, ids


def raw_string_payload(encoded: EncodedColumn) -> bytes | memoryview:
    """A non-dictionary string column's values, len-prefixed, end to end."""
    if CompressionFlags.LZ in encoded.flags:
        return lz_decompress(encoded.data, MAX_ROWBLOCK_BYTES)
    if encoded.flags != CompressionFlags.RAW:
        raise CorruptionError(f"unsupported string flag combination: {encoded.flags!r}")
    return encoded.data


def _decode_raw_strings(encoded: EncodedColumn) -> list[str]:
    return read_len_prefixed_many(raw_string_payload(encoded), encoded.n_items)


def _decode_strings(encoded: EncodedColumn) -> list[str]:
    if CompressionFlags.DICT in encoded.flags:
        entries, ids = _parse_dict_strings(encoded)
        return [entries[i] for i in ids]
    return _decode_raw_strings(encoded)


def _encode_string_vectors(values: list[list[str]]) -> EncodedColumn:
    lengths = np.fromiter((len(v) for v in values), dtype=np.uint64, count=len(values))
    flat: list[str] = [item for vector in values for item in vector]
    dictionary, ids, n_dict = dictionary_encode(flat)
    dict_flag, dictionary = _maybe_lz_dictionary(dictionary)
    writer = BufferWriter()
    if len(values):
        length_width = required_bit_width(int(lengths.max(initial=0)))
        writer.write_u8(length_width)
        writer.write_varint(len(flat))
        packed = pack_uints(lengths, length_width)
        writer.write_varint(len(packed))
        writer.write_bytes(packed)
        writer.write_bytes(ids)
    flags = CompressionFlags.DICT | CompressionFlags.BITPACK | dict_flag
    return EncodedColumn(flags, len(values), n_dict, dictionary, writer.getvalue())


def _parse_string_vectors(
    encoded: EncodedColumn,
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """String-vector sections as ``(entries, per-row lengths, flat ids)``."""
    dictionary = encoded.dictionary
    if CompressionFlags.DICT_LZ in encoded.flags:
        dictionary = lz_decompress(dictionary, MAX_ROWBLOCK_BYTES)
    entries = read_len_prefixed_many(dictionary, encoded.n_dict_items)
    if encoded.n_items == 0:
        empty = np.empty(0, dtype=np.uint64)
        return entries, empty, empty
    reader = BufferReader(encoded.data)
    length_width = reader.read_u8()
    n_flat = reader.read_varint()
    packed_lengths = reader.read_len_prefixed()
    lengths = unpack_uints(packed_lengths, length_width, encoded.n_items)
    if int(lengths.sum()) != n_flat:
        raise CorruptionError(
            f"vector lengths sum to {int(lengths.sum())} but payload claims "
            f"{n_flat} flattened items"
        )
    if n_flat == 0:
        return entries, lengths, np.empty(0, dtype=np.uint64)
    id_view = reader.read_view(reader.remaining)
    if len(id_view) < 1:
        raise CorruptionError("vector id stream missing its width byte")
    ids = unpack_uints(id_view[1:], id_view[0], n_flat)
    if encoded.n_dict_items == 0 or int(ids.max(initial=0)) >= encoded.n_dict_items:
        raise CorruptionError("vector dictionary id out of range")
    return entries, lengths, ids


def _decode_string_vectors(encoded: EncodedColumn) -> list[list[str]]:
    if encoded.n_items == 0:
        return []
    entries, lengths, ids = _parse_string_vectors(encoded)
    flat = [entries[i] for i in ids]
    out: list[list[str]] = []
    cursor = 0
    for length in lengths:
        out.append(flat[cursor : cursor + int(length)])
        cursor += int(length)
    return out


def encode_column(ctype: ColumnType, values: list[ColumnValue]) -> EncodedColumn:
    """Compress one column of ``values`` of type ``ctype``."""
    if ctype is ColumnType.INT64:
        flags, payload = encode_int64_payload(np.asarray(values, dtype=np.int64))
        return EncodedColumn(flags, len(values), 0, b"", payload)
    if ctype is ColumnType.FLOAT64:
        flags, payload = encode_float64_payload(np.asarray(values, dtype=np.float64))
        return EncodedColumn(flags, len(values), 0, b"", payload)
    if ctype is ColumnType.STRING:
        return _encode_strings(values)
    if ctype is ColumnType.STRING_VECTOR:
        return _encode_string_vectors(values)
    raise TypeError(f"unknown column type: {ctype!r}")


def decode_column(ctype: ColumnType, encoded: EncodedColumn) -> list[ColumnValue]:
    """Invert :func:`encode_column`, returning plain Python values."""
    if ctype is ColumnType.INT64:
        return decode_int64_payload(
            encoded.flags, encoded.data, encoded.n_items
        ).tolist()
    if ctype is ColumnType.FLOAT64:
        return decode_float64_payload(
            encoded.flags, encoded.data, encoded.n_items
        ).tolist()
    if ctype is ColumnType.STRING:
        return _decode_strings(encoded)
    if ctype is ColumnType.STRING_VECTOR:
        return _decode_string_vectors(encoded)
    raise TypeError(f"unknown column type: {ctype!r}")


def _code_dtype(n_entries: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every id of ``n_entries``."""
    return np.min_scalar_type(max(n_entries - 1, 0))


def _factorize_strings(values: list[str]) -> tuple[np.ndarray, list[str]]:
    """Assign first-appearance ids to ``values`` (raw string columns)."""
    index: dict[str, int] = {}
    codes = [index.setdefault(value, len(index)) for value in values]
    return np.array(codes, dtype=_code_dtype(len(index))), list(index)


def decode_column_arrays(ctype: ColumnType, encoded: EncodedColumn) -> DecodedColumn:
    """Decode one column straight to its array form (no Python rows).

    The vectorized read path: numeric columns stay as the numpy arrays
    their codecs already produce, and string columns keep their id space
    (dictionary-encoded ids verbatim; raw columns factorized here) so
    predicates compare against the dictionary once instead of per row.
    Ids come in the narrowest unsigned dtype that holds the dictionary
    (one byte per row for up to 256 entries), so a cached column is
    charged what it needs, not eight bytes a row.
    Every array is a fresh heap copy — nothing aliases the encoded
    buffer, so the result may outlive its row block (cache-safe).
    """
    if ctype is ColumnType.INT64:
        return DecodedColumn.numeric(
            decode_int64_payload(encoded.flags, encoded.data, encoded.n_items)
        )
    if ctype is ColumnType.FLOAT64:
        return DecodedColumn.numeric(
            decode_float64_payload(encoded.flags, encoded.data, encoded.n_items)
        )
    if ctype is ColumnType.STRING:
        if CompressionFlags.DICT in encoded.flags:
            entries, ids = _parse_dict_strings(encoded)
            return DecodedColumn.dictionary(ids.astype(_code_dtype(len(entries))), entries)
        return DecodedColumn.dictionary(*_factorize_strings(_decode_raw_strings(encoded)))
    if ctype is ColumnType.STRING_VECTOR:
        entries, lengths, ids = _parse_string_vectors(encoded)
        offsets = np.zeros(encoded.n_items + 1, dtype=np.int64)
        np.cumsum(lengths.astype(np.int64), out=offsets[1:])
        return DecodedColumn.vector(ids.astype(_code_dtype(len(entries))), offsets, entries)
    raise TypeError(f"unknown column type: {ctype!r}")


def column_arrays(ctype: ColumnType, values: list[ColumnValue]) -> DecodedColumn:
    """``decode_column_arrays(ctype, encode_column(ctype, values))``
    without the round trip: the array form of values not yet sealed.

    Same kinds and code dtypes; strings get first-appearance ids, which
    is what the dictionary encoder assigns too.  Every array is fresh.
    """
    if ctype is ColumnType.INT64:
        return DecodedColumn.numeric(np.array(values, dtype=np.int64))
    if ctype is ColumnType.FLOAT64:
        return DecodedColumn.numeric(np.array(values, dtype=np.float64))
    if ctype is ColumnType.STRING:
        return DecodedColumn.dictionary(*_factorize_strings(values))
    if ctype is ColumnType.STRING_VECTOR:
        codes, entries = _factorize_strings([item for vector in values for item in vector])
        offsets = np.zeros(len(values) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, values), np.int64, len(values)), out=offsets[1:])
        return DecodedColumn.vector(codes, offsets, entries)
    raise TypeError(f"unknown column type: {ctype!r}")
