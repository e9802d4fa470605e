"""Column compression.

Scuba compresses every column with *at least two* of: dictionary encoding,
bit packing, delta encoding, and lz4 (paper, Section 2.1), shrinking row
block columns by roughly 30x on production data.  This package implements
each of those methods from scratch and a :mod:`pipeline
<repro.compression.pipeline>` that picks a combination per column type,
recording the choice as a flag word so the decoder is self-describing.
"""

from repro.compression.base import CompressionFlags, EncodedColumn
from repro.compression.decoded import DecodedColumn, DecodedKind
from repro.compression.dictionary import dictionary_decode, dictionary_encode
from repro.compression.intcodec import decode_int64_payload, encode_int64_payload
from repro.compression.lzs import lz_compress, lz_decompress
from repro.compression.pipeline import (
    decode_column,
    decode_column_arrays,
    encode_column,
)

__all__ = [
    "CompressionFlags",
    "DecodedColumn",
    "DecodedKind",
    "EncodedColumn",
    "decode_column",
    "decode_column_arrays",
    "decode_int64_payload",
    "dictionary_decode",
    "dictionary_encode",
    "encode_column",
    "encode_int64_payload",
    "lz_compress",
    "lz_decompress",
]
