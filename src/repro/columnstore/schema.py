"""Row block schemas.

A schema is an ordered mapping of column name to :class:`ColumnType`.
Different row blocks of the same table may have different schemas (paper,
Section 2.1 — "they usually have a large overlap in their columns"), which
is why each row block serializes its own schema rather than the table
owning one.  Every schema contains the required ``time`` column.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, KeysView, Mapping

from repro.errors import CorruptionError, SchemaError
from repro.types import TIME_COLUMN, ColumnType, ColumnValue
from repro.util.binary import BufferReader, BufferWriter


def infer_column_type(value: ColumnValue) -> ColumnType:
    """Infer the column type of a single Python value.

    ``bool`` is rejected rather than silently treated as an integer —
    a monitoring pipeline logging booleans almost always meant 0/1 ints
    and should say so.
    """
    if isinstance(value, bool):
        raise SchemaError("boolean values are not a Scuba column type; use 0/1 ints")
    if isinstance(value, int):
        return ColumnType.INT64
    if isinstance(value, float):
        return ColumnType.FLOAT64
    if isinstance(value, str):
        return ColumnType.STRING
    if isinstance(value, list):
        return ColumnType.STRING_VECTOR
    raise SchemaError(f"unsupported column value type: {type(value).__name__}")


#: The exact Python type of an ordinary value of each scalar column
#: type.  Subclasses, bools and lists take the general, per-value path.
EXACT_TYPES = {int: ColumnType.INT64, float: ColumnType.FLOAT64, str: ColumnType.STRING}


def checked_column(ctype: ColumnType, values: list[ColumnValue]) -> list[ColumnValue]:
    """``values`` checked against ``ctype`` (:meth:`ColumnType.validate`),
    lists copied (never alias caller-owned lists) and FLOAT64 ints made
    floats; ``values`` itself when there is nothing to copy or convert."""
    kinds = set(map(type, values))
    if all(EXACT_TYPES.get(kind) is ctype for kind in kinds):
        return values
    if (
        ctype is ColumnType.STRING_VECTOR
        and kinds == {list}
        and set(map(type, chain.from_iterable(values))) <= {str}
    ):
        return list(map(list, values))
    out = []
    for value in values:
        value = list(value) if isinstance(value, list) else value
        ctype.validate(value)
        widen = ctype is ColumnType.FLOAT64 and isinstance(value, int)
        out.append(float(value) if widen else value)
    return out


class Schema:
    """An ordered, immutable name→type mapping with wire serialization."""

    def __init__(self, columns: Mapping[str, ColumnType] | Iterable[tuple[str, ColumnType]]):
        self._columns: dict[str, ColumnType] = dict(columns)
        if TIME_COLUMN not in self._columns:
            raise SchemaError(f"schema must contain the required '{TIME_COLUMN}' column")
        if self._columns[TIME_COLUMN] is not ColumnType.INT64:
            raise SchemaError(f"'{TIME_COLUMN}' column must be INT64")
        for name in self._columns:
            if not name:
                raise SchemaError("column names must be non-empty")

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping[str, ColumnValue]]) -> "Schema":
        """Derive a schema from the union of columns present in ``rows``.

        The first value seen for a column fixes its type; a later value of
        a conflicting type raises :class:`SchemaError`.
        """
        columns: dict[str, ColumnType] = {}
        for row in rows:
            for name, value in row.items():
                ctype = EXACT_TYPES.get(type(value)) or infer_column_type(value)
                known = columns.get(name)
                if known is None:
                    columns[name] = ctype
                elif known is not ctype:
                    raise SchemaError(
                        f"column '{name}' seen as both {known.name} and {ctype.name}"
                    )
        if TIME_COLUMN not in columns:
            raise SchemaError(
                f"rows must contain the required '{TIME_COLUMN}' column"
            )
        return cls(columns)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return list(self._columns.items()) == list(other._columns.items())

    def __hash__(self) -> int:
        return hash(tuple(self._columns.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}:{ctype.name}" for name, ctype in self._columns.items())
        return f"Schema({body})"

    @property
    def names(self) -> list[str]:
        return list(self._columns)

    def type_of(self, name: str) -> ColumnType:
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(f"unknown column '{name}'") from None

    def keys(self) -> KeysView[str]:
        """The column names as a set-like view (compares with a dict's
        keys without building a set)."""
        return self._columns.keys()

    def items(self) -> Iterable[tuple[str, ColumnType]]:
        return self._columns.items()

    def column_values(
        self, name: str, rows: Iterable[Mapping[str, ColumnValue]]
    ) -> list[ColumnValue]:
        """Extract one column from ``rows``, filling gaps with the type's
        default value (rows need not all carry every column), checked by
        :func:`checked_column`."""
        ctype = self.type_of(name)
        default = ctype.default()
        return checked_column(ctype, [row.get(name, default) for row in rows])

    @cached_property
    def wire(self) -> bytes:
        """The wire form: varint count then (name, type) pairs.  Built
        once: a schema is immutable, and every packed copy of a block
        (shared memory, snapshot file, wire frame, catalog size) needs it."""
        writer = BufferWriter()
        writer.write_varint(len(self._columns))
        for name, ctype in self._columns.items():
            writer.write_str(name)
            writer.write_u8(int(ctype))
        return writer.getvalue()

    #: ``(wire bytes, schema)`` of the last schema parsed.  A table's row
    #: blocks nearly always repeat their neighbour's schema, so a restore
    #: parses each distinct schema once and byte-compares the rest.  The
    #: wire form is self-delimiting: bytes equal to a parsed schema's
    #: parse to that schema, and any flipped byte misses and is parsed
    #: (and rejected) as before.  One tuple, swapped whole: thread-safe.
    _last_parsed: "tuple[bytes, Schema] | None" = None

    @classmethod
    def deserialize(cls, reader: BufferReader) -> "Schema":
        start = reader.offset
        last = cls._last_parsed
        if last is not None and reader.remaining >= len(last[0]):
            if reader.read_view(len(last[0])) == last[0]:
                return last[1]
            reader.seek(start)
        count = reader.read_varint()
        columns: dict[str, ColumnType] = {}
        for _ in range(count):
            name = reader.read_str()
            code = reader.read_u8()
            try:
                columns[name] = ColumnType(code)
            except ValueError as exc:
                raise CorruptionError(
                    f"unknown column type code {code} for column '{name}'"
                ) from exc
        schema = cls(columns)
        end = reader.offset
        reader.seek(start)
        cls._last_parsed = (reader.read_bytes(end - start), schema)
        return schema
