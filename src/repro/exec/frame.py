"""The in-memory data frame of the reference execution backend.

Backends exchange data with the harness in one canonical currency:
*columns* -- an ordered ``{name: [values...]}`` mapping of plain Python
scalars (``int``, ``float``, ``str``, ``bool`` or ``None``).  The local
backend also uses that representation internally (as a list of row
dictionaries); a native backend would convert at the frame boundary and
keep its own structures in between.

The module also owns the *normalization* rules: :func:`canonical_rows`
reduces any backend's output to a sorted, dtype-normalized list of row
tuples, and :func:`frame_bytes` digests it for the byte-identity
assertions of the property tests.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping


def normalize_value(value: Any) -> Any:
    """Reduce a backend cell value to a plain Python scalar.

    ``None``/NaN collapse to ``None``; numpy scalars (and anything else
    exposing ``item()``) are unwrapped; booleans stay booleans (checked
    before the integer test -- ``bool`` subclasses ``int``).
    """
    if value is None:
        return None
    item = getattr(value, "item", None)
    if item is not None and not isinstance(value, (int, float, str, bytes, bool)):
        value = item()
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return None
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, bytes):
        return value.hex()
    return str(value)


def _sort_token(value: Any) -> tuple:
    """A total order over normalized cell values (None first, then by type)."""
    if value is None:
        return (0, "", "")
    if isinstance(value, bool):
        return (1, "", str(int(value)))
    if isinstance(value, (int, float)):
        return (2, "", repr(float(value)))
    return (3, type(value).__name__, str(value))


def canonical_rows(columns: Mapping[str, list]) -> list[tuple]:
    """Rows of a column mapping as sorted, normalized tuples.

    The comparison currency of execution results: two runs agree on a
    result iff their canonical rows (and column names) are equal.
    Rows are sorted because backends are free to reorder rows wherever an
    operator does not prescribe an order (hash joins, group-bys).
    """
    names = list(columns)
    length = max((len(columns[n]) for n in names), default=0)
    rows = []
    for i in range(length):
        rows.append(
            tuple(
                normalize_value(columns[n][i]) if i < len(columns[n]) else None
                for n in names
            )
        )
    rows.sort(key=lambda row: tuple(_sort_token(v) for v in row))
    return rows


def frame_bytes(columns: Mapping[str, list]) -> str:
    """A deterministic digest of a column mapping (column names + rows).

    Two executions of the same compiled flow must produce the same digest
    -- the determinism property the compile-execute tests assert on.
    """
    payload = json.dumps(
        {"columns": list(columns), "rows": canonical_rows(columns)},
        sort_keys=False,
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class Frame:
    """The local backend's columnar frame: ordered columns, dict rows.

    ``columns`` fixes the column order; every row dictionary holds one
    value per column.  Rows may carry extra keys transiently while an
    operator is deriving new columns -- :meth:`to_columns` only reads the
    declared ones.
    """

    columns: list[str] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)

    @classmethod
    def from_columns(cls, columns: Mapping[str, list]) -> "Frame":
        names = list(columns)
        length = max((len(columns[n]) for n in names), default=0)
        rows = [
            {n: (columns[n][i] if i < len(columns[n]) else None) for n in names}
            for i in range(length)
        ]
        return cls(columns=names, rows=rows)

    def to_columns(self) -> dict[str, list]:
        return {
            name: [normalize_value(row.get(name)) for row in self.rows]
            for name in self.columns
        }

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def replace_rows(self, rows: list[dict]) -> "Frame":
        """A new frame with the same columns and different rows."""
        return Frame(columns=list(self.columns), rows=rows)

    def copy(self) -> "Frame":
        return Frame(columns=list(self.columns), rows=[dict(r) for r in self.rows])
