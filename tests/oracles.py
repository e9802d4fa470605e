"""Reference implementations the tests hold the fast paths to.

Each is the plain, row-at-a-time statement of a rule that ``src/``
implements faster: the row-log row codec (``disk.format``'s chunk
encoders and decoder), a run of len-prefixed strings read one
``read_str`` at a time (``util.binary.read_len_prefixed_many``), a
row's byte estimate, and live sealing built on ``Schema.from_rows`` and
``RowBlock.from_rows`` alone.
"""

from __future__ import annotations

from typing import Mapping

from repro.columnstore.rowblock import RowBlock
from repro.columnstore.schema import Schema
from repro.errors import CorruptionError, SchemaError
from repro.types import ColumnType, ColumnValue
from repro.util.binary import BufferReader, BufferWriter


def encode_row(writer: BufferWriter, row: Mapping[str, ColumnValue]) -> None:
    """One row in the row-log payload format."""
    writer.write_varint(len(row))
    for name, value in row.items():
        writer.write_str(name)
        if isinstance(value, bool):
            raise CorruptionError("boolean values cannot be persisted")
        if isinstance(value, int):
            writer.write_u8(int(ColumnType.INT64))
            writer.write_i64(value)
        elif isinstance(value, float):
            writer.write_u8(int(ColumnType.FLOAT64))
            writer.write_f64(value)
        elif isinstance(value, str):
            writer.write_u8(int(ColumnType.STRING))
            writer.write_str(value)
        elif isinstance(value, list):
            writer.write_u8(int(ColumnType.STRING_VECTOR))
            writer.write_varint(len(value))
            for item in value:
                writer.write_str(item)
        else:
            raise CorruptionError(
                f"unsupported value type {type(value).__name__} for column '{name}'"
            )


def decode_row(reader: BufferReader) -> dict[str, ColumnValue]:
    """One row read back from the row-log payload format."""
    n_cols = reader.read_varint()
    row: dict[str, ColumnValue] = {}
    for _ in range(n_cols):
        name = reader.read_str()
        type_code = reader.read_u8()
        try:
            ctype = ColumnType(type_code)
        except ValueError as exc:
            raise CorruptionError(
                f"unknown column type code {type_code} for column '{name}'"
            ) from exc
        if ctype is ColumnType.INT64:
            row[name] = reader.read_i64()
        elif ctype is ColumnType.FLOAT64:
            row[name] = reader.read_f64()
        elif ctype is ColumnType.STRING:
            row[name] = reader.read_str()
        else:
            count = reader.read_varint()
            row[name] = [reader.read_str() for _ in range(count)]
    return row


def read_strings(buf: bytes, n: int, cells: bool = False) -> list:
    """The ``n`` len-prefixed strings that fill ``buf``, read one
    ``read_str`` at a time: their values, or with ``cells`` the bytes
    each one was read from."""
    reader = BufferReader(buf)
    out = []
    for _ in range(n):
        start = reader.offset
        value = reader.read_str()
        out.append(bytes(buf[start : reader.offset]) if cells else value)
    if reader.remaining:
        raise CorruptionError(f"{reader.remaining} trailing bytes after {n} strings")
    return out


def estimate_row_bytes(row: Mapping[str, ColumnValue]) -> int:
    """Rough pre-compression size of one row, for the 1 GB block cap."""
    total = 0
    for name, value in row.items():
        total += len(name) + 8
        if isinstance(value, str):
            total += len(value)
        elif isinstance(value, list):
            total += sum(map(len, value)) + 4 * len(value)
        else:
            total += 8
    return total


def refusal(block: list[Mapping[str, ColumnValue]], row: Mapping[str, ColumnValue]):
    """The exception type a table whose open block holds ``block`` refuses
    ``row`` with, or ``None``: ``SchemaError`` when ``Schema.from_rows``
    of them all raises or the row has no integer ``time``; ``TypeError``
    when one of its vectors has an item that is not a string."""
    time = row.get("time")
    if not isinstance(time, int) or isinstance(time, bool):
        return SchemaError
    try:
        Schema.from_rows([*block, row])
    except SchemaError:
        return SchemaError
    vectors = [value for value in row.values() if isinstance(value, list)]
    if not all(isinstance(item, str) for vector in vectors for item in vector):
        return TypeError
    return None


class SealOracle:
    """Rows sealed as a table seals them, one at a time: a refused row
    (:func:`refusal`) is not added; a block seals at the row that brings
    it to ``rows_per_block`` rows or ``max_block_bytes`` estimated bytes
    (:func:`estimate_row_bytes`), through ``RowBlock.from_rows``."""

    def __init__(self, rows_per_block: int, max_block_bytes: int = 1 << 30, created_at=100.0):
        self.rows_per_block = rows_per_block
        self.max_block_bytes = max_block_bytes
        self.created_at = created_at
        self.blocks: list[RowBlock] = []
        self.pending: list[Mapping[str, ColumnValue]] = []

    def add(self, row: Mapping[str, ColumnValue]):
        """Add ``row``; returns the exception type that refuses it, if any."""
        refused = refusal(self.pending, row)
        if refused is None:
            self.pending.append(row)
            if (
                len(self.pending) >= self.rows_per_block
                or sum(map(estimate_row_bytes, self.pending)) >= self.max_block_bytes
            ):
                self.seal()
        return refused

    def seal(self) -> None:
        if self.pending:
            self.blocks.append(RowBlock.from_rows(self.pending, created_at=self.created_at))
            self.pending = []
