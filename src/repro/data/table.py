"""A small in-memory column-store table.

This is the storage substrate for the relational (RA) part of hybrid queries
— the role SparkSQL / Parquet plays in the paper.  Every column is a NumPy
array, rows aligned positionally: numeric columns keep their dtype (lists of
numbers become ``float64``) and string columns are NumPy unicode arrays, so
row selection, comparisons and substring search run vectorised.  A column's
dtype kind, not its Python type, says whether it is numeric.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.exceptions import CatalogError, TypeMismatchError

#: dtype kinds of numeric columns, which ``to_matrix`` casts: bool, signed,
#: unsigned, float.
_NUMERIC_KINDS = "biuf"


def _column(values) -> np.ndarray:
    """A column as stored: numeric arrays as given, anything else as numbers
    (``float64``) when its first value is a number, else as unicode strings."""
    if isinstance(values, np.ndarray) and values.dtype.kind in _NUMERIC_KINDS + "U":
        return values
    values = list(values)
    if values and isinstance(values[0], (int, float, np.integer, np.floating)):
        return np.asarray(values, dtype=np.float64)
    return np.asarray(values, dtype=np.str_)


class Table:
    """An immutable named collection of equal-length columns."""

    def __init__(self, name: str, columns: Dict[str, Iterable]):
        if not columns:
            raise CatalogError(f"table {name!r} needs at least one column")
        normalized = {col_name: _column(values) for col_name, values in columns.items()}
        lengths = {len(values) for values in normalized.values()}
        if len(lengths) != 1:
            raise CatalogError(f"table {name!r} has columns of different lengths: {lengths}")
        self.name = name
        self._columns = normalized
        self._n_rows = lengths.pop()

    # -- accessors ----------------------------------------------------------
    @property
    def columns(self) -> Tuple[str, ...]:
        return tuple(self._columns.keys())

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_cols(self) -> int:
        return len(self._columns)

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError as exc:
            raise TypeMismatchError(
                f"table {self.name!r} has no column {name!r} (has {self.columns})"
            ) from exc

    def __len__(self) -> int:
        return self._n_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Table({self.name!r}, rows={self.n_rows}, cols={list(self.columns)})"

    # -- row-level helpers (used by the relational engine) --------------------
    def take(self, indices: Sequence[int], name: str = None) -> "Table":
        """Return a new table with the rows at ``indices`` (in that order)."""
        indices = np.asarray(indices, dtype=np.int64)
        return Table(
            name or self.name,
            {col_name: values[indices] for col_name, values in self._columns.items()},
        )

    def select_columns(self, columns: Iterable[str], name: str = None) -> "Table":
        """Return a new table restricted to the given columns (projection)."""
        new_columns = {col: self.column(col) for col in columns}
        return Table(name or self.name, new_columns)

    def to_matrix(self, columns: Sequence[str]) -> np.ndarray:
        """Materialize the given numeric columns as a dense ``float64`` matrix."""
        if not columns:
            raise TypeMismatchError("to_matrix needs at least one column")
        out = np.empty((self._n_rows, len(columns)), dtype=np.float64)
        for position, col in enumerate(columns):
            values = self.column(col)
            if values.dtype.kind not in _NUMERIC_KINDS:
                raise TypeMismatchError(
                    f"column {col!r} of table {self.name!r} is not numeric; "
                    "cannot cast to matrix"
                )
            out[:, position] = values
        return out

    @classmethod
    def from_matrix(cls, name: str, values: np.ndarray, columns: Sequence[str]) -> "Table":
        """Build a table from a dense matrix and a list of column names."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != len(columns):
            raise CatalogError(
                "from_matrix needs a 2-D array whose column count matches the column names"
            )
        return cls(name, {col: values[:, idx] for idx, col in enumerate(columns)})
