"""A small in-memory column-store table.

This is the storage substrate for the relational (RA) part of hybrid queries
— the role SparkSQL / Parquet plays in the paper.  Columns are NumPy arrays
(numeric) or Python lists (strings); rows are aligned positionally.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import CatalogError, TypeMismatchError

ColumnValues = Union[np.ndarray, List]


class Table:
    """An immutable named collection of equal-length columns."""

    def __init__(self, name: str, columns: Dict[str, ColumnValues]):
        if not columns:
            raise CatalogError(f"table {name!r} needs at least one column")
        lengths = set()
        normalized: Dict[str, ColumnValues] = {}
        for col_name, values in columns.items():
            if isinstance(values, np.ndarray):
                normalized[col_name] = values
            else:
                values = list(values)
                if values and isinstance(values[0], (int, float, np.integer, np.floating)):
                    normalized[col_name] = np.asarray(values, dtype=np.float64)
                else:
                    normalized[col_name] = values
            lengths.add(len(normalized[col_name]))
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

    def column(self, name: str) -> ColumnValues:
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
        new_columns: Dict[str, ColumnValues] = {}
        for col_name, values in self._columns.items():
            if isinstance(values, np.ndarray):
                new_columns[col_name] = values[indices]
            else:
                new_columns[col_name] = [values[i] for i in indices]
        return Table(name or self.name, new_columns)

    def select_columns(self, columns: Iterable[str], name: str = None) -> "Table":
        """Return a new table restricted to the given columns (projection)."""
        new_columns = {col: self.column(col) for col in columns}
        return Table(name or self.name, new_columns)

    def to_matrix(self, columns: Sequence[str]) -> np.ndarray:
        """Materialize the given numeric columns as a dense matrix."""
        arrays = []
        for col in columns:
            values = self.column(col)
            if not isinstance(values, np.ndarray):
                raise TypeMismatchError(
                    f"column {col!r} of table {self.name!r} is not numeric; "
                    "cannot cast to matrix"
                )
            arrays.append(values.astype(np.float64))
        if not arrays:
            raise TypeMismatchError("to_matrix needs at least one column")
        return np.column_stack(arrays)

    @classmethod
    def from_matrix(cls, name: str, values: np.ndarray, columns: Sequence[str]) -> "Table":
        """Build a table from a dense matrix and a list of column names."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != len(columns):
            raise CatalogError(
                "from_matrix needs a 2-D array whose column count matches the column names"
            )
        return cls(name, {col: values[:, idx] for idx, col in enumerate(columns)})
