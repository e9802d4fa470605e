"""Decoded column arrays: the vectorized form of one row block column.

The row path materializes every row as a Python dict; the vectorized
query engine instead decodes each referenced column *once* into an
array-shaped :class:`DecodedColumn` and runs numpy kernels over it
(``repro.query.kernels``).  Three shapes cover the four column types:

- ``NUMERIC`` — INT64/FLOAT64 values as one contiguous numpy array.
- ``DICT`` — STRING values as ``codes`` (one id per row, in the
  narrowest unsigned dtype that indexes ``entries``: uint8 up to 256
  entries) plus the ``entries`` lookup table, in dictionary order.
  Dictionary-encoded columns keep their stored ids; raw/LZ string columns
  are factorized at decode time so every string column presents the same
  id-space shape.
- ``VECTOR`` — STRING_VECTOR values as flattened ``codes`` plus an
  ``offsets`` array of ``n_rows + 1`` row boundaries (CSR layout) and
  the shared ``entries`` table.

Predicates on strings then compare against the (tiny) ``entries`` table
once and broadcast the verdict through ``codes`` — the "decode the
dictionary once, not per row" trick — and group-by columns arrive
pre-factorized.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class DecodedKind(Enum):
    """Array shape of a decoded column."""

    NUMERIC = "numeric"
    DICT = "dict"
    VECTOR = "vector"


@dataclass(frozen=True)
class DecodedColumn:
    """One column of one row block, decoded to arrays.

    Instances are immutable and safe to share between queries — the
    decoded-column cache hands the same object to every reader.  The
    arrays are always fresh heap copies, never views into the encoded
    buffer, so a cached ``DecodedColumn`` outlives its row block.
    """

    kind: DecodedKind
    #: NUMERIC: the values (int64 or float64), length ``n_rows``.
    values: np.ndarray | None = None
    #: DICT: one entry id per row.  VECTOR: flattened entry ids.  Either
    #: way the narrowest unsigned dtype that holds ``len(entries) - 1``;
    #: kernels widen them to intp before indexing with them (numpy's own
    #: conversion of a uint8/uint16 index array costs more than the cast).
    codes: np.ndarray | None = None
    #: VECTOR only: ``n_rows + 1`` boundaries into ``codes`` (CSR).
    offsets: np.ndarray | None = None
    #: DICT/VECTOR: the distinct strings, indexed by code.
    entries: tuple[str, ...] = field(default=())

    @classmethod
    def numeric(cls, values: np.ndarray) -> "DecodedColumn":
        return cls(DecodedKind.NUMERIC, values=values)

    @classmethod
    def dictionary(
        cls, codes: np.ndarray, entries: list[str] | tuple[str, ...]
    ) -> "DecodedColumn":
        return cls(DecodedKind.DICT, codes=codes, entries=tuple(entries))

    @classmethod
    def vector(
        cls,
        codes: np.ndarray,
        offsets: np.ndarray,
        entries: list[str] | tuple[str, ...],
    ) -> "DecodedColumn":
        return cls(
            DecodedKind.VECTOR, codes=codes, offsets=offsets, entries=tuple(entries)
        )

    def __len__(self) -> int:
        if self.kind is DecodedKind.NUMERIC:
            return int(self.values.size)
        if self.kind is DecodedKind.DICT:
            return int(self.codes.size)
        return int(self.offsets.size) - 1

    @functools.cached_property
    def nbytes(self) -> int:
        """Heap footprint estimate — what the decoded-column cache charges
        (computed once: the instance is immutable)."""
        total = 0
        if self.values is not None:
            total += self.values.nbytes
        if self.codes is not None:
            total += self.codes.nbytes
        if self.offsets is not None:
            total += self.offsets.nbytes
        # Strings: payload plus ~50 bytes of CPython object overhead each.
        total += sum(len(entry) + 50 for entry in self.entries)
        return total

    def row_value(self, i: int):
        """The Python value of row ``i`` (row-path fallbacks and tests)."""
        if self.kind is DecodedKind.NUMERIC:
            return self.values[i].item()
        if self.kind is DecodedKind.DICT:
            return self.entries[int(self.codes[i])]
        start, end = int(self.offsets[i]), int(self.offsets[i + 1])
        return [self.entries[int(code)] for code in self.codes[start:end]]


__all__ = ["DecodedColumn", "DecodedKind"]
