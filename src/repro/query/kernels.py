"""Vectorized query kernels over :class:`DecodedColumn` arrays.

Every kernel here mirrors the row path (``Filter.matches`` plus the
per-row fold in ``execute.py``) exactly — same verdicts, same error
types, same error messages — just evaluated a *run* of same-schema
blocks at a time (a block at a time for filter predicates):

- Time-range and filter predicates produce boolean masks.  String
  predicates are evaluated once per *dictionary entry* (reusing
  ``Filter.matches`` on a one-key row, so semantics can't drift) and
  broadcast through the code array; an INT64 column is compared in
  integer space, as Python compares an int with a float.
- Group-by columns are factorized to small integer codes over the whole
  run (each block's dictionary remapped into one run-wide id space);
  multi-column keys combine by mixed radix (``code0 * n1 + code1``),
  made dense by counting the ids that occur (``np.unique`` when the
  radix dwarfs the rows), the key tuples decoded from those ids only.
- Grouped reductions share one stable sort by group per run.  Sums keep
  the rounding contract of ``execute.py``: each block's rows add up
  from zero in row order, the block sums fold into the running total in
  block order.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from repro.compression.decoded import DecodedColumn, DecodedKind
from repro.errors import QueryError
from repro.query.aggregate import canonical
from repro.query.query import Filter

_I64 = np.iinfo(np.int64)

#: The selection of a block every row of which is selected: indexing
#: with it is a view, where an index array would copy.
EVERY_ROW = slice(None)
_COMPARE = {op: getattr(operator, op) for op in ("eq", "ne", "lt", "le", "gt", "ge")}


# ----------------------------------------------------------------------
# Predicate masks
# ----------------------------------------------------------------------


def time_mask(times: np.ndarray, start_time: int | None, end_time: int | None) -> np.ndarray:
    """Boolean mask of rows whose timestamp lies in ``[start, end)``."""
    mask = np.ones(times.size, dtype=bool)
    if start_time is not None:
        mask &= times >= start_time
    if end_time is not None:
        mask &= times < end_time
    return mask


def filter_mask(filt: Filter, decoded: DecodedColumn | None, n_rows: int) -> np.ndarray:
    """Boolean mask of rows matching ``filt``.

    ``decoded`` is None when the block's schema lacks the column — the
    row path returns False for every operator then (including ``ne``),
    and so does this.
    """
    if decoded is None:
        return np.zeros(n_rows, dtype=bool)
    if decoded.kind is DecodedKind.NUMERIC:
        return _numeric_mask(filt, decoded.values)
    if decoded.kind is DecodedKind.DICT:
        return _dict_mask(filt, decoded)
    return _vector_mask(filt, decoded)


def _numeric_mask(filt: Filter, values: np.ndarray) -> np.ndarray:
    value, compare = filt.value, _COMPARE.get(filt.op)
    # An INT64 column is compared in integer space: numpy would cast it
    # to float64 against a float comparand and merge neighbours past
    # 2**53, where Python compares int with float exactly.
    integer = np.issubdtype(values.dtype, np.integer)
    if filt.op == "contains":
        raise QueryError(
            f"'contains' requires a STRING_VECTOR column, and "
            f"'{filt.column}' holds {'int' if integer else 'float'}"
        )
    if filt.op == "in":
        # Python's ``in`` would compare each candidate for equality; a
        # non-numeric candidate can never equal a number, so only the
        # numeric ones reach isin.  (A non-iterable value raises
        # TypeError here, as it does in the row path.)
        candidates = [c for c in value if isinstance(c, (int, float))]
        if integer:
            candidates = [c for c in map(_exact_int, candidates) if c is not None]
        if not candidates:
            return np.zeros(values.size, dtype=bool)
        return np.isin(values, candidates)
    if filt.op not in ("eq", "ne"):
        if not isinstance(value, (int, float)):
            # Ordering a number against a non-number raises in the row
            # path; reproduce the identical TypeError without a row loop.
            compare(0 if integer else 0.0, value)
        elif integer:
            if isinstance(value, float) and math.isfinite(value):
                value = math.ceil(value) if filt.op in ("lt", "ge") else math.floor(value)
            if not _I64.min <= value <= _I64.max:
                # Beyond every int64 (or inf, or NaN): one verdict for all.
                return np.full(values.size, compare(0, value), dtype=bool)
        return np.asarray(compare(values, value), dtype=bool)
    if not isinstance(value, (int, float)) or (
        integer and (value := _exact_int(value)) is None
    ):
        # eq/ne against something no value of this column can equal.
        return np.full(values.size, filt.op == "ne", dtype=bool)
    return np.asarray(compare(values, value), dtype=bool)


def _exact_int(value: int | float) -> int | None:
    """The int64 that ``value`` equals under Python's exact ``==``, if any
    (none for a fractional, infinite, NaN or out-of-range comparand)."""
    if isinstance(value, float):
        if not value.is_integer():
            return None
        value = int(value)
    return value if _I64.min <= value <= _I64.max else None


def _dict_mask(filt: Filter, decoded: DecodedColumn) -> np.ndarray:
    # Evaluate the predicate once per dictionary entry — via the row
    # path's own Filter.matches, so substring ``in``, TypeErrors on
    # cross-type ordering, and the ``contains`` QueryError all behave
    # identically — then broadcast the verdicts through the codes.
    if not decoded.entries:
        return np.zeros(len(decoded), dtype=bool)
    verdicts = [filt.matches({filt.column: entry}) for entry in decoded.entries]
    return np.array(verdicts, dtype=bool)[decoded.codes.astype(np.intp)]


def _vector_mask(filt: Filter, decoded: DecodedColumn) -> np.ndarray:
    n_rows = len(decoded)
    if filt.op == "contains" and isinstance(filt.value, str):
        try:
            target = decoded.entries.index(filt.value)
        except ValueError:
            return np.zeros(n_rows, dtype=bool)
        # CSR membership: count matches of the target id per row via a
        # cumulative sum over the flattened codes (safe for empty rows).
        hits = np.concatenate(([0], np.cumsum(decoded.codes == target)))
        per_row = hits[decoded.offsets[1:]] - hits[decoded.offsets[:-1]]
        return per_row > 0
    if filt.op == "contains":
        # A non-string can never be an element of a STRING_VECTOR.
        return np.zeros(n_rows, dtype=bool)
    # Other operators compare whole Python lists; rare enough that the
    # row path's semantics (list equality, list ordering, TypeErrors)
    # are reproduced by literally calling it per row.
    rows = (filt.matches({filt.column: decoded.row_value(i)}) for i in range(n_rows))
    return np.fromiter(rows, dtype=bool, count=n_rows)


# ----------------------------------------------------------------------
# Group-key factorization
# ----------------------------------------------------------------------


def factorize_values(values: np.ndarray) -> tuple[np.ndarray, list]:
    """``values`` → (small integer codes, label per code).

    Labels are Python scalars so group keys built from them compare
    equal to the row path's dict values; NaN (one label: ``np.unique``
    collapses NaNs) becomes the ``math.nan`` singleton, see
    :func:`~repro.query.aggregate.canonical`.
    """
    labels, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.int64, copy=False), [canonical(label) for label in labels.tolist()]


def factorize_column(
    columns: list[DecodedColumn | None], sels: list[np.ndarray | slice], n_selected: int
) -> tuple[np.ndarray, list]:
    """Factorize one group-by column over the selected rows of a run.

    ``columns[i]`` is the column in the run's i-th block and ``sels[i]``
    the selected row positions there (:data:`EVERY_ROW` for all of
    them), ``n_selected`` rows in all; every block of a run holds the
    column with the same presence and type.  A column missing from the
    schema groups every row under the key element ``None``, as
    ``row.get`` does in the row path.
    """
    first = columns[0]
    if first is None:
        return np.zeros(n_selected, dtype=np.int64), [None]
    if first.kind is DecodedKind.NUMERIC:
        return factorize_values(np.concatenate([c.values[sel] for c, sel in zip(columns, sels)]))
    if first.kind is DecodedKind.VECTOR:
        # What the row path raises building a key with a list in it.
        raise TypeError("unhashable type: 'list'")
    # Each block has its own dictionary: remap its entries into one
    # run-wide id space (first appearance order) and the codes through it.
    ids: dict[str, int] = {}
    parts = []
    for col, sel in zip(columns, sels):
        remap = [ids.setdefault(entry, len(ids)) for entry in col.entries]
        parts.append(np.array(remap, dtype=np.int64)[col.codes[sel].astype(np.intp)])
    return np.concatenate(parts), list(ids)


def combine_groups(
    factors: list[tuple[np.ndarray, list]], n_selected: int
) -> tuple[np.ndarray, list[tuple]]:
    """Combine per-column factorizations into one group id per row.

    Returns ``(gids, keys)`` where ``gids[i]`` indexes ``keys`` and
    every group id in ``range(len(keys))`` occurs at least once, keys in
    ascending mixed-radix order.  The ids are mixed-radix numbers over
    the factors' codes, made dense once at the end (and once more before
    a radix product that would overflow int64).
    """
    gids = np.zeros(n_selected, dtype=np.int64)
    keys: list[tuple] = [()]
    pending: list[list] = []
    radix = 1
    for codes, labels in factors:
        if radix * len(labels) > _I64.max:
            gids, keys = _densify(gids, keys, pending, radix)
            pending, radix = [], len(keys)
        gids = gids * len(labels) + codes
        radix *= len(labels)
        pending.append(labels)
    return _densify(gids, keys, pending, radix) if pending else (gids, keys)


def _densify(
    gids: np.ndarray, keys: list[tuple], pending: list[list], radix: int
) -> tuple[np.ndarray, list]:
    """Renumber mixed-radix ids below ``radix`` densely, decoding only the
    ids that occur: ``keys`` labels the most significant digit,
    ``pending`` the rest.  A radix no larger than the rows (or 2**16)
    counts which ids occur and renumbers by a cumulative sum — no sort,
    and nothing to do when every id occurs; a larger one takes
    ``np.unique``.  Both number the ids that occur in ascending order."""
    if radix <= max(gids.size, 1 << 16):
        occurs = np.bincount(gids, minlength=radix).astype(bool)
        uniq = np.flatnonzero(occurs)
        if uniq.size < radix:
            gids = (np.cumsum(occurs) - 1)[gids]
    else:
        uniq, gids = np.unique(gids, return_inverse=True)
    digits = []
    for labels in reversed(pending):
        uniq, codes = np.divmod(uniq, len(labels))
        digits.append([labels[code] for code in codes.tolist()])
    digits.append([keys[base] for base in uniq.tolist()])
    return gids, [head + tuple(rest) for head, *rest in zip(*reversed(digits))]


# ----------------------------------------------------------------------
# Grouped reductions
# ----------------------------------------------------------------------


def grouped_reduce(
    gids: np.ndarray,
    counts: np.ndarray,
    block_of: np.ndarray,
    columns: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]]:
    """Per-group sum/min/max of each column over a run's selected rows.

    Row ``i`` is in group ``gids[i]`` (``counts[g]`` rows each, none
    empty — ``reduceat`` is undefined on empty segments) and in the
    run's ``block_of[i]``-th block (non-decreasing).  Each column is
    ``(values, carry)``: a float64 per row, and per group the total
    before this run.  Returns ``(starts, [(sums, mins, maxs,
    sorted_values), ...])``: one stable sort by group id is shared by
    every column, so group ``g``'s values start at
    ``sorted_values[starts[g]]`` in block-then-row order — how
    percentile samples are sliced out.  ``sums[g]`` is ``carry[g]`` plus
    each block's sum in block order, each block's sum its rows added up
    from zero in row order (``np.bincount`` adds in input order), so no
    answer depends on how blocks were gathered into runs.
    """
    # numpy's stable sort is a radix sort on 16-bit keys, timsort beyond.
    narrow = gids.astype(np.uint16) if counts.size <= 1 << 16 else gids
    order = np.argsort(narrow, kind="stable")
    sorted_gids, sorted_blocks = gids[order], block_of[order]
    new_pair = np.ones(order.size, dtype=bool)  # first row of each (group, block) pair
    new_pair[1:] = (sorted_gids[1:] != sorted_gids[:-1]) | (sorted_blocks[1:] != sorted_blocks[:-1])
    pair_of = np.cumsum(new_pair) - 1
    fold_into = np.concatenate((np.arange(counts.size), sorted_gids[new_pair]))
    starts = np.cumsum(counts) - counts
    reduced = []
    for values, carry in columns:
        sorted_values = values[order]
        pair_sums = np.bincount(pair_of, weights=sorted_values)
        sums = np.bincount(fold_into, weights=np.concatenate((carry, pair_sums)))
        mins = np.minimum.reduceat(sorted_values, starts)
        maxs = np.maximum.reduceat(sorted_values, starts)
        reduced.append((sums, mins, maxs, sorted_values))
    return starts, reduced


__all__ = [
    "combine_groups",
    "factorize_column",
    "factorize_values",
    "filter_mask",
    "grouped_reduce",
    "time_mask",
]
