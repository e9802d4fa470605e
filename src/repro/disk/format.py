"""The legacy row-oriented disk format.

One file per table, holding a file header followed by *sync chunks*.
Each chunk is the batch of rows written at one synchronization point
(paper, Section 4.1: "only the sections of data that have changed since
the last synchronization point need to be updated").

File layout::

    u32 magic "SDSK"  | u16 version | u16 reserved
    chunk*

Chunk layout::

    u32 magic "CHNZ"
    u32 row count
    u64 stored length
    u32 crc32 of the stored bytes
    u64 payload length        (the stored bytes, inflated)
    stored bytes: the payload as one raw deflate stream
    payload: rows, each = varint n_cols + (name str, type u8, value)*

Value encodings: INT64 → i64, FLOAT64 → f64, STRING → len-prefixed UTF-8,
STRING_VECTOR → varint count + strings.

Files an older build wrote hold ``"CHNK"`` chunks — the same header
without the payload length, the payload stored as is.  They are read,
never written, and a file may hold both kinds: an upgraded leaf appends
``CHNZ`` chunks after its predecessor's ``CHNK`` ones.

The CRC covers the stored bytes, so a truncated or checksum-failing
trailing chunk is *skipped* before anything is inflated, not fatal:
after a crash the last asynchronous write may be torn, and Scuba accepts
losing a tiny amount of data in exchange for a simple recovery path.
Stored bytes whose CRC holds but which do not inflate to exactly the
header's payload length are corruption, and raise.

Two encoders write the same payload bytes, compared before deflating:
:func:`encode_chunk_rows` from row dicts and :func:`encode_chunk_block`
from a sealed row block, column by column — a sync point's source, so it
never rebuilds rows to persist them.  The one decoder,
:func:`decode_chunk_columns`, reads a payload back column by column too:
as runs of rows whose columns agree on type (the
:class:`~repro.columnstore.table.RunBuilder` live ingest reads rows
with), which replay seals without building a row.  A chunk whose rows
all repeat the first row's name-and-type bytes — every chunk a sync
writes from sealed blocks — is read a column at a time in numpy; any
other goes to one loop over the payload bytes, which is also the only
reader that reports damage.  :func:`decode_chunk_rows` materializes
those runs.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterable, Iterator, Mapping

import numpy as np

from repro.columnstore.rbc import RowBlockColumn
from repro.columnstore.rowblock import RowBlock
from repro.columnstore.table import ColumnRun, RunBuilder
from repro.compression.base import CompressionFlags
from repro.compression.lzs import lz_compress, lz_decompress
from repro.compression.pipeline import raw_string_payload
from repro.errors import CorruptionError
from repro.types import ColumnType, ColumnValue
from repro.util.binary import (
    F64,
    I64,
    decode_varint,
    encode_varint,
    len_prefixed,
    len_prefixed_many,
    read_len_prefixed_many,
)
from repro.util.checksum import crc32_of

DISK_MAGIC = 0x4B534453  # "SDSK"
DISK_FORMAT_VERSION = 1
_FILE_HEADER = struct.Struct("<IHH")
DEFLATED_CHUNK_MAGIC = 0x5A4E4843  # "CHNZ": the payload stored deflated
CHUNK_MAGIC = 0x4B4E4843  # "CHNK": the payload stored as is (read, never written)
_CHUNK_HEADER = struct.Struct("<IIQI")  # magic, rows, stored length, crc
_PAYLOAD_LENGTH = struct.Struct("<Q")  # CHNZ only: the inflated length

#: Upper bound on one sync chunk, stored or inflated: corrupt length
#: fields beyond this are rejected instead of driving a multi-gigabyte
#: read or inflate (row blocks are capped at 1 GB pre-compression, so no
#: legitimate chunk approaches it).
MAX_CHUNK_BYTES = 1 << 31

# The type codes as plain ints, for the chunk decoder's per-field branch.
_INT64, _FLOAT64 = int(ColumnType.INT64), int(ColumnType.FLOAT64)
_STRING, _STRING_VECTOR = int(ColumnType.STRING), int(ColumnType.STRING_VECTOR)
_COLUMN_TYPES = {int(ctype): ctype for ctype in ColumnType}
_NUMERIC_DTYPES = {ColumnType.INT64: "<i8", ColumnType.FLOAT64: "<f8"}


def write_file_header(fh: BinaryIO) -> None:
    fh.write(_FILE_HEADER.pack(DISK_MAGIC, DISK_FORMAT_VERSION, 0))


def read_file_header(fh: BinaryIO) -> None:
    raw = fh.read(_FILE_HEADER.size)
    if len(raw) < _FILE_HEADER.size:
        raise CorruptionError("disk file shorter than its header")
    magic, version, _ = _FILE_HEADER.unpack(raw)
    if magic != DISK_MAGIC:
        raise CorruptionError(f"bad disk file magic 0x{magic:08x}")
    if version != DISK_FORMAT_VERSION:
        raise CorruptionError(f"unreadable disk format version {version}")


def encode_chunk_rows(rows: Iterable[Mapping[str, ColumnValue]]) -> tuple[int, bytes]:
    """Encode rows as one chunk payload; returns ``(row count, payload)``.

    Byte for byte the payload layout above, row after row, built fast:
    a chunk repeats a handful of column names on every row and, in real
    tables, a small set of string values, so each distinct name prefix
    (name + type code) and each distinct string is encoded once per
    chunk, and the payload is one join of the pieces.  The caches only
    ever hold non-empty byte strings, which is what lets ``get(...) or``
    stand for "missing".
    """
    pieces: list[bytes] = []
    append = pieces.append
    # Per column type: column name -> encoded name + type byte.
    ints: dict[str, bytes] = {}
    floats: dict[str, bytes] = {}
    strs: dict[str, bytes] = {}
    vectors: dict[str, bytes] = {}
    strings: dict[str, bytes] = {}
    counts: dict[int, bytes] = {}

    def name_prefix(cache: dict[str, bytes], ctype: ColumnType, name: str) -> bytes:
        prefix = cache[name] = len_prefixed(name) + bytes((int(ctype),))
        return prefix

    def string(text: str) -> bytes:
        encoded = strings[text] = len_prefixed(text)
        return encoded

    def count(n: int) -> bytes:
        encoded = counts[n] = encode_varint(n)
        return encoded

    n_rows = 0
    for row in rows:
        n_rows += 1
        append(counts.get(len(row)) or count(len(row)))
        for name, value in row.items():
            if isinstance(value, bool):
                raise CorruptionError("boolean values cannot be persisted")
            if isinstance(value, int):
                append(ints.get(name) or name_prefix(ints, ColumnType.INT64, name))
                append(I64.pack(value))
            elif isinstance(value, float):
                append(floats.get(name) or name_prefix(floats, ColumnType.FLOAT64, name))
                append(F64.pack(value))
            elif isinstance(value, str):
                append(strs.get(name) or name_prefix(strs, ColumnType.STRING, name))
                append(strings.get(value) or string(value))
            elif isinstance(value, list):
                append(
                    vectors.get(name)
                    or name_prefix(vectors, ColumnType.STRING_VECTOR, name)
                )
                append(counts.get(len(value)) or count(len(value)))
                for item in value:
                    append(strings.get(item) or string(item))
            else:
                raise CorruptionError(
                    f"unsupported value type {type(value).__name__} for column '{name}'"
                )
    return n_rows, b"".join(pieces)


def _raw_string_cells(column: RowBlockColumn) -> list[bytes]:
    """A raw/LZ string column's values as the len-prefixed slices its
    payload already holds, checked as ``decode_column`` checks them (one
    walker, :func:`~repro.util.binary.read_len_prefixed_many`, reads both)."""
    payload = raw_string_payload(column.to_encoded())
    return read_len_prefixed_many(payload, column.n_items, cells=True)


def encode_chunk_block(block: RowBlock, skip: int = 0) -> tuple[int, bytes]:
    """Encode ``block.to_rows()[skip:]`` as one chunk payload without
    building the rows; returns ``(row count, payload)``.

    Byte for byte what :func:`encode_chunk_rows` writes for those dicts
    (schema order, defaults included — the tests hold the two together),
    built a *column* at a time into one flat list of ``1 + 2k`` slots a
    row: the field count, then each column's name prefix and value.  A
    column's prefixes and values each fill their slots with one strided
    slice assignment, and one join writes the payload; no cell is
    concatenated.  Numbers are one ``astype`` viewed as 8-byte items, a
    dictionary entry is encoded once and indexed by the stored ids,
    raw string cells are the payload's own slices, and a vector row is
    its count joined to its items.  Columns are decoded past the
    decoded-column cache (a sync must not evict what queries keep hot).
    """
    n_rows = max(0, block.row_count - skip)
    width = 1 + 2 * len(block.schema)
    flat = [encode_varint(len(block.schema))] * (width * n_rows)
    for slot, (name, ctype) in enumerate(block.schema.items(), start=1):
        column = RowBlockColumn(block.rbc_buffer(name))
        if ctype is ColumnType.STRING and CompressionFlags.DICT not in column.flags:
            values = _raw_string_cells(column)
        elif ctype in _NUMERIC_DTYPES:
            numbers = block.decoded_column(name).values.astype(_NUMERIC_DTYPES[ctype])
            values = numbers.view("V8").tolist()
        else:
            decoded = block.decoded_column(name)
            entries = len_prefixed_many(decoded.entries)
            values = list(map(entries.__getitem__, decoded.codes.tolist()))
            if decoded.offsets is not None:  # CSR: count + items per row
                spans = decoded.offsets.tolist()
                spans = list(zip(spans, spans[1:]))
                counts = {n: encode_varint(n) for n in {b - a for a, b in spans}}
                values = [counts[b - a] + b"".join(values[a:b]) for a, b in spans]
        if len(values) != block.row_count:
            raise CorruptionError(
                f"column '{name}' decodes to {len(values)} values; row block "
                f"header says {block.row_count} rows"
            )
        flat[2 * slot - 1 :: width] = [len_prefixed(name) + bytes((int(ctype),))] * n_rows
        flat[2 * slot :: width] = values[skip:]
    return n_rows, b"".join(flat)


def write_chunk_payload(fh: BinaryIO, count: int, payload: bytes) -> int:
    """Append an encoded payload of ``count`` rows as one sync chunk."""
    stored = lz_compress(payload)
    fh.write(_CHUNK_HEADER.pack(DEFLATED_CHUNK_MAGIC, count, len(stored), crc32_of(stored)))
    fh.write(_PAYLOAD_LENGTH.pack(len(payload)))
    fh.write(stored)
    return count


def write_chunk(fh: BinaryIO, rows: Iterable[Mapping[str, ColumnValue]]) -> int:
    """Append one sync chunk; returns the number of rows written."""
    return write_chunk_payload(fh, *encode_chunk_rows(rows))


def read_chunk_payloads(
    fh: BinaryIO, end: int | None = None
) -> Iterator[tuple[int, bytes]]:
    """Yield each intact chunk as ``(row_count, payload)``, rows undecoded
    and the payload inflated, whichever kind of chunk stored it.

    ``end`` is the file length the manifest vouches for (``log_bytes``):
    chunks starting at or past it were never published and are not read.

    The validity rules are the file's, independent of decoding: CRC
    verified on the stored bytes, silent stop at a torn tail, raise on
    mid-file corruption or on stored bytes that do not inflate to their
    header's length.  Parallel replay partitions on these payloads — row
    counts come from the chunk headers without paying the row decode —
    and the serial reader below decodes the same stream, so both see an
    identical chunk set.
    """
    read_file_header(fh)
    while end is None or fh.tell() < end:
        header = fh.read(_CHUNK_HEADER.size)
        if len(header) < _CHUNK_HEADER.size:
            return  # end of file, or a torn chunk header at EOF
        magic, n_rows, stored_len, crc = _CHUNK_HEADER.unpack(header)
        if magic == DEFLATED_CHUNK_MAGIC:
            extra = fh.read(_PAYLOAD_LENGTH.size)
            if len(extra) < _PAYLOAD_LENGTH.size:
                return  # torn chunk header at EOF
            (payload_len,) = _PAYLOAD_LENGTH.unpack(extra)
        elif magic == CHUNK_MAGIC:
            payload_len = stored_len
        else:
            raise CorruptionError(f"bad chunk magic 0x{magic:08x} mid-file")
        if max(stored_len, payload_len) > MAX_CHUNK_BYTES:
            raise CorruptionError(
                f"chunk claims {max(stored_len, payload_len)} bytes (cap {MAX_CHUNK_BYTES})"
            )
        stored = fh.read(stored_len)
        if len(stored) < stored_len:
            return  # torn payload at EOF
        if crc32_of(stored) != crc:
            if fh.read(1):
                raise CorruptionError("chunk checksum mismatch mid-file")
            return  # torn final chunk
        payload = stored if magic == CHUNK_MAGIC else lz_decompress(stored, payload_len)
        if len(payload) != payload_len:
            raise CorruptionError(
                f"chunk inflates to {len(payload)} bytes; its header says {payload_len}"
            )
        yield n_rows, payload


def _str_span(buf: bytes, pos: int, end: int) -> tuple[int, int]:
    """Where the varint-length-prefixed string at ``pos`` starts and stops."""
    length = buf[pos]
    pos += 1
    if length >= 0x80:
        length, pos = decode_varint(buf, pos - 1)
    if pos + length > end:
        raise CorruptionError(f"string of {length} bytes at offset {pos} overruns its chunk")
    return pos, pos + length


def _spans(arr: np.ndarray, pos: np.ndarray, end: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Where the one-byte-length strings at ``pos`` start and stop;
    ``None`` on a long length or an overrun."""
    if int(pos.max()) >= end or (lengths := arr[pos]).max() >= 0x80:
        return None
    lo = pos + 1
    hi = lo + lengths
    return None if int(hi.max()) > end else (lo, hi)


def _one_shape_runs(buf: bytes, n_rows: int, skip: int) -> list[ColumnRun] | None:
    """The chunk read a column at a time, when every row carries the
    first row's name-and-type bytes (a sync writes every chunk from one
    block's schema); ``None`` on anything else, for the row loop.

    Row starts are where the field count and the first name prefix
    occur, and there must be ``n_rows`` of them.  Each field is then one
    numpy step over every row's position: its prefix checked, a number
    gathered as 8 bytes, a string's or vector's one-byte length read.
    Each row must end where the next starts, so the walk is the row
    loop's, and only then are values built, for the live rows alone.  A
    string cell whose bytes are ASCII is a slice of the payload decoded
    once as latin-1.
    """
    end = len(buf)
    if n_rows < 1 or end < 3 or not 0 < buf[0] < 0x80 or buf[1] >= 0x80:
        return None
    key = buf[: buf[1] + 3]  # the field count and the first name prefix
    if len(key) < buf[1] + 3:
        return None
    arr = np.frombuffer(buf, np.uint8)
    starts = np.flatnonzero(arr[: end - len(key) + 1] == key[0])
    for j in range(1, len(key)):
        if len(starts) < n_rows:
            return None
        starts = starts[arr[starts + j] == key[j]]
    if len(starts) != n_rows or starts[0] != 0:
        return None
    # The walk: every field's positions on every row, before any value.
    pos = starts + 1
    fields: list[tuple[bytes, ColumnType, tuple[np.ndarray, ...]]] = []
    for _ in range(buf[0]):
        at = int(pos[0])
        if at >= end or buf[at] >= 0x80:
            return None
        prefix = buf[at : at + buf[at] + 2]
        if len(prefix) < buf[at] + 2 or int(pos.max()) + len(prefix) > end:
            return None
        row_prefixes = arr[pos[:, None] + np.arange(len(prefix))]
        if not (row_prefixes == np.frombuffer(prefix, np.uint8)).all():
            return None
        pos = pos + len(prefix)
        ctype = _COLUMN_TYPES.get(prefix[-1])
        if ctype in _NUMERIC_DTYPES:
            if int(pos.max()) + 8 > end:
                return None
            fields.append((prefix, ctype, (pos,)))
            pos = pos + 8
        elif ctype is ColumnType.STRING:
            if (span := _spans(arr, pos, end)) is None:
                return None
            fields.append((prefix, ctype, span))
            pos = span[1]
        elif ctype is ColumnType.STRING_VECTOR:
            if (span := _spans(arr, pos, end)) is None:  # the counts, as lengths
                return None
            counts, pos = span[1] - span[0], span[0]
            width = int(counts.max())
            los, his = np.zeros((2, n_rows, width), np.int64)
            for k in range(width):
                has = counts > k
                if (span := _spans(arr, pos[has], end)) is None:
                    return None
                los[has, k], his[has, k] = span
                pos[has] = span[1]
            fields.append((prefix, ctype, (counts, los, his)))
        else:
            return None
    if pos[-1] != end or not np.array_equal(pos[:-1], starts[1:]):
        return None

    # The build: the live rows' values, a column at a time.
    live = slice(max(skip, 0), None)
    n_live = len(starts[live])
    text, non_ascii = buf.decode("latin-1"), np.flatnonzero(arr >= 0x80)

    def cells(lo: np.ndarray, hi: np.ndarray) -> list[str]:
        lo_list, hi_list = lo.tolist(), hi.tolist()
        out = [text[a:b] for a, b in zip(lo_list, hi_list)]
        odd = non_ascii.searchsorted(lo) != non_ascii.searchsorted(hi)
        for j in np.flatnonzero(odd).tolist():  # a cell holding a byte >= 0x80
            out[j] = buf[lo_list[j] : hi_list[j]].decode("utf-8")
        return out

    columns: list[list[ColumnValue]] = []
    try:
        names = [prefix[1:-1].decode() for prefix, _, _ in fields]
        if len(set(names)) < len(names):
            return None
        for _, ctype, found in fields:
            if ctype in _NUMERIC_DTYPES:
                numbers = arr[found[0][live, None] + np.arange(8)]
                columns.append(numbers.view(_NUMERIC_DTYPES[ctype]).ravel().tolist())
            elif ctype is ColumnType.STRING:
                columns.append(cells(found[0][live], found[1][live]))
            else:
                counts, los, his = found
                mask = np.arange(los.shape[1]) < counts[live, None]
                items = cells(los[live][mask], his[live][mask])
                bounds = np.cumsum(counts[live]).tolist()
                columns.append([items[a:b] for a, b in zip([0, *bounds], bounds)])
    except UnicodeDecodeError:
        return None
    types = tuple(ctype for _, ctype, _ in fields)
    return [ColumnRun(tuple(names), types, columns, n_live)] if n_live else []


def decode_chunk_columns(payload: bytes, n_rows: int, skip: int = 0) -> list[ColumnRun]:
    """Decode one intact chunk payload, less its first ``skip`` rows, into
    the maximal runs of consecutive rows whose columns agree on type.

    A one-shape chunk is read a column at a time (:func:`_one_shape_runs`);
    otherwise, or if that pass finds anything odd, one loop over the
    payload bytes reads it, its damage reported as a per-row reader
    would report it.  A row is matched against the previous
    row's name-and-type bytes and read value by value: no name is
    decoded, no dict built.  From the first field that does not match,
    the row's own bytes are read, and its names are decoded once per run
    (the run caches its layout by those bytes).  The ``skip`` dead rows
    are read the same way — every length, count and type code checked —
    but none of their values is built.  A slice past the end would be silently short, so
    string ends are checked; any other overrun surfaces as
    ``IndexError`` / ``struct.error`` (or as trailing bytes) and is
    reported, like bad UTF-8, as the :class:`CorruptionError` it is.
    """
    buf = bytes(payload)
    runs = _one_shape_runs(buf, n_rows, skip)
    if runs is not None:
        return runs
    end = len(buf)
    pos = 0
    unpack_i64, unpack_f64, startswith = I64.unpack_from, F64.unpack_from, buf.startswith
    builder = RunBuilder()
    # The previous row's field count bytes and fields, and its layout.
    header: bytes | None = None
    fields: list[tuple[bytes, int, int]] = []
    layout: tuple[int, ...] | None = None
    try:
        for index in range(n_rows):
            live = index >= skip
            # ``shape`` stays None while the row matches the previous one.
            shape: list[bytes] | None = None
            if header is not None and startswith(header, pos):
                pos += len(header)
                n_cols = len(fields)
            else:
                start = pos
                n_cols = buf[pos]  # below 128, a length or count is one byte
                pos += 1
                if n_cols >= 0x80:
                    n_cols, pos = decode_varint(buf, pos - 1)
                shape = [buf[start:pos]]
            values: list[ColumnValue] = []
            for i in range(n_cols):
                if shape is None:
                    prefix, size, type_code = fields[i]
                    if startswith(prefix, pos):
                        pos += size
                    else:
                        shape = [header, *(f[0] for f in fields[:i])]
                if shape is not None:
                    start, length = pos, buf[pos]
                    pos += 1
                    if length >= 0x80:
                        length, pos = decode_varint(buf, pos - 1)
                    pos += length + 1
                    if pos > end:
                        raise CorruptionError(f"column name at offset {start} overruns its chunk")
                    type_code = buf[pos - 1]
                    shape.append(buf[start:pos])
                if type_code == _STRING:
                    length = buf[pos]
                    pos += 1
                    if length >= 0x80:
                        length, pos = decode_varint(buf, pos - 1)
                    stop = pos + length
                    if stop > end:
                        raise CorruptionError(f"string at offset {pos} overruns its chunk")
                    if live:
                        values.append(buf[pos:stop].decode("utf-8"))
                    pos = stop
                elif type_code == _INT64 or type_code == _FLOAT64:
                    if live:
                        unpack = unpack_i64 if type_code == _INT64 else unpack_f64
                        values.append(unpack(buf, pos)[0])
                    pos += 8
                elif type_code == _STRING_VECTOR:
                    count = buf[pos]
                    pos += 1
                    if count >= 0x80:
                        count, pos = decode_varint(buf, pos - 1)
                    items: list[str] = []
                    for _ in range(count):
                        start, pos = _str_span(buf, pos, end)
                        if live:
                            items.append(buf[start:pos].decode("utf-8"))
                    if live:
                        values.append(items)
                else:
                    raise CorruptionError(f"unknown column type code {type_code}")
            if shape is not None:  # another field sequence than the previous row's
                header, fields = shape[0], [(p, len(p), p[-1]) for p in shape[1:]]
                prefixes = tuple(shape[1:])
                layout = builder.layouts.get(prefixes)
                if layout is None:
                    names = [p[decode_varint(p)[1] : -1].decode() for p in prefixes]
                    types = [_COLUMN_TYPES[p[-1]] for p in prefixes]
                    layout = builder.place(prefixes, names, types)
            if live:
                builder.add(values, layout)
    except (IndexError, struct.error) as exc:
        raise CorruptionError(f"chunk payload truncated at offset {pos}") from exc
    except UnicodeDecodeError as exc:
        raise CorruptionError(f"invalid UTF-8 in string field: {exc}") from exc
    if pos != end:
        raise CorruptionError("trailing bytes inside a chunk payload")
    return builder.finish()


def decode_chunk_rows(payload: bytes, n_rows: int) -> list[dict[str, ColumnValue]]:
    """Decode one intact chunk payload into its rows: the runs of
    :func:`decode_chunk_columns`, materialized."""
    return [row for run in decode_chunk_columns(payload, n_rows) for row in run.rows()]


def read_table_chunks(fh: BinaryIO) -> Iterator[list[dict[str, ColumnValue]]]:
    """Yield each intact chunk's rows; stop silently at a torn tail.

    A corrupted chunk in the *middle* of the file (followed by more data)
    is a real corruption and raises; only the final chunk may be torn.
    """
    for n_rows, payload in read_chunk_payloads(fh):
        yield decode_chunk_rows(payload, n_rows)
