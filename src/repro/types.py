"""Column value types.

Scuba columns hold integers, floats, strings, and vectors of strings
(tags).  Every table additionally has a required ``time`` column of unix
timestamps (paper, Section 2.1).  The enum values are stable wire codes:
they are persisted inside schemas on disk and in shared memory, so they
must never be renumbered.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Union

ColumnValue = Union[int, float, str, list[str]]

#: Name of the column every Scuba row must carry (unix timestamp of the
#: row-generating event).
TIME_COLUMN = "time"


class ColumnType(IntEnum):
    """Wire-stable type codes for column values."""

    INT64 = 1
    FLOAT64 = 2
    STRING = 3
    STRING_VECTOR = 4

    def validate(self, value: ColumnValue) -> None:
        """Raise ``TypeError`` unless ``value`` is valid for this type."""
        if self is ColumnType.INT64:
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"INT64 column requires int, got {type(value).__name__}")
        elif self is ColumnType.FLOAT64:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(
                    f"FLOAT64 column requires float, got {type(value).__name__}"
                )
        elif self is ColumnType.STRING:
            if not isinstance(value, str):
                raise TypeError(f"STRING column requires str, got {type(value).__name__}")
        elif self is ColumnType.STRING_VECTOR:
            if not isinstance(value, list) or not all(
                isinstance(item, str) for item in value
            ):
                raise TypeError("STRING_VECTOR column requires a list of str")

    def default(self) -> ColumnValue:
        """The fill value used when a row lacks this column."""
        if self is ColumnType.INT64:
            return 0
        if self is ColumnType.FLOAT64:
            return 0.0
        if self is ColumnType.STRING:
            return ""
        return []
