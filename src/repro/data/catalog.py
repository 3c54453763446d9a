"""The catalog: name → matrix / table / view registry.

The catalog is the single source of truth shared by the optimizer (which only
needs metadata), the estimators (which may also use MNC histograms), and the
execution backends (which need the actual values).

It stores three kinds of objects:

* **matrices** — :class:`~repro.data.matrix.MatrixData`, keyed by storage name;
* **tables** — :class:`~repro.data.table.Table`, for the relational substrate;
* **scalars** — named numeric constants (the ``s1``/``s2`` of the pipelines).

Materialized LA views are simply matrices whose name is the view's storage
name; the *definition* of a view lives in :class:`repro.constraints.views.LAView`
and only references the catalog by name.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.data.matrix import MatrixData, MatrixMeta, MatrixType
from repro.data.table import Table
from repro.exceptions import CatalogError, UnknownMatrixError, UnknownTableError


class Catalog:
    """Registry of named matrices, tables and scalars."""

    def __init__(self):
        self._matrices: Dict[str, MatrixData] = {}
        self._metadata_only: Dict[str, MatrixMeta] = {}
        self._tables: Dict[str, Table] = {}
        self._scalars: Dict[str, float] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic counter, bumped on every registration or drop.

        Rewrite caches key their entries on this counter, so any catalog
        change (new matrices, updated metadata, new tables or scalars)
        implicitly invalidates plans computed against the old contents.
        """
        return self._version

    # -- matrices -------------------------------------------------------------
    def register_matrix(self, data: MatrixData, overwrite: bool = False) -> MatrixData:
        """Register a matrix value (and its metadata) under its name."""
        name = data.meta.name
        if not overwrite and name in self._matrices:
            raise CatalogError(f"matrix {name!r} is already registered")
        self._matrices[name] = data
        self._metadata_only.pop(name, None)
        self._version += 1
        return data

    def register_dense(
        self,
        name: str,
        values: np.ndarray,
        matrix_type: str = MatrixType.GENERAL,
        overwrite: bool = False,
    ) -> MatrixData:
        """Convenience wrapper: register a dense ndarray."""
        return self.register_matrix(
            MatrixData.from_dense(name, values, matrix_type), overwrite=overwrite
        )

    def register_sparse(
        self,
        name: str,
        values: sparse.spmatrix,
        matrix_type: str = MatrixType.GENERAL,
        overwrite: bool = False,
    ) -> MatrixData:
        """Convenience wrapper: register a scipy sparse matrix."""
        return self.register_matrix(
            MatrixData.from_sparse(name, values, matrix_type), overwrite=overwrite
        )

    def register_metadata(self, meta: MatrixMeta, overwrite: bool = False) -> MatrixMeta:
        """Register metadata only (no values).

        This models the paper's setting where the optimizer works from a
        metadata file without touching the data; execution backends will
        refuse to evaluate an expression whose leaves have no values.
        """
        if not overwrite and (meta.name in self._matrices or meta.name in self._metadata_only):
            raise CatalogError(f"matrix {meta.name!r} is already registered")
        self._metadata_only[meta.name] = meta
        self._version += 1
        return meta

    def matrix(self, name: str) -> MatrixData:
        """The matrix value registered under ``name``."""
        try:
            return self._matrices[name]
        except KeyError as exc:
            raise UnknownMatrixError(f"matrix {name!r} is not registered") from exc

    def meta(self, name: str) -> MatrixMeta:
        """The metadata of the matrix registered under ``name``."""
        if name in self._matrices:
            return self._matrices[name].meta
        if name in self._metadata_only:
            return self._metadata_only[name]
        raise UnknownMatrixError(f"matrix {name!r} is not registered")

    def has_matrix(self, name: str) -> bool:
        return name in self._matrices or name in self._metadata_only

    def has_matrix_values(self, name: str) -> bool:
        return name in self._matrices

    def shape(self, name: str) -> Tuple[int, int]:
        """Dimensions of a registered matrix or scalar (scalars are 1x1)."""
        if name in self._scalars:
            return (1, 1)
        return self.meta(name).shape

    def matrix_names(self) -> Iterable[str]:
        seen = set(self._matrices) | set(self._metadata_only)
        return sorted(seen)

    def drop_matrix(self, name: str) -> None:
        dropped = self._matrices.pop(name, None)
        dropped_meta = self._metadata_only.pop(name, None)
        if dropped is not None or dropped_meta is not None:
            self._version += 1

    def update_metadata(
        self,
        name: str,
        rows: Optional[int] = None,
        cols: Optional[int] = None,
        nnz: Optional[int] = None,
        matrix_type: Optional[str] = None,
    ) -> MatrixMeta:
        """Update the statistics / type tag of a registered matrix in place.

        Metadata-only entries accept any field; value-backed matrices only
        accept ``nnz`` and ``matrix_type`` — their dimensions are fixed by
        the stored values.  Bumps the catalog version.
        """
        if name in self._metadata_only:
            prior = self._metadata_only[name]
            updated = MatrixMeta(
                name=name,
                rows=prior.rows if rows is None else int(rows),
                cols=prior.cols if cols is None else int(cols),
                nnz=prior.nnz if nnz is None else int(nnz),
                matrix_type=prior.matrix_type if matrix_type is None else matrix_type,
                sparse_storage=prior.sparse_storage,
            )
            self._metadata_only[name] = updated
        elif name in self._matrices:
            if rows is not None or cols is not None:
                raise CatalogError(
                    f"matrix {name!r} is value-backed; its dimensions are fixed "
                    f"by the stored values (re-register the matrix instead)"
                )
            data = self._matrices[name]
            changes = {}
            if nnz is not None:
                changes["nnz"] = int(nnz)
            if matrix_type is not None:
                changes["matrix_type"] = matrix_type
            updated = dataclasses.replace(data.meta, **changes)
            self._matrices[name] = MatrixData(values=data.values, meta=updated)
        else:
            raise UnknownMatrixError(f"matrix {name!r} is not registered")
        self._version += 1
        return updated

    # -- scalars ----------------------------------------------------------------
    def register_scalar(self, name: str, value: float, overwrite: bool = False) -> float:
        if not overwrite and name in self._scalars:
            raise CatalogError(f"scalar {name!r} is already registered")
        self._scalars[name] = float(value)
        self._version += 1
        return self._scalars[name]

    def scalar(self, name: str) -> float:
        try:
            return self._scalars[name]
        except KeyError as exc:
            raise UnknownMatrixError(f"scalar {name!r} is not registered") from exc

    def has_scalar(self, name: str) -> bool:
        return name in self._scalars

    def drop_scalar(self, name: str) -> None:
        if self._scalars.pop(name, None) is not None:
            self._version += 1

    # -- tables -----------------------------------------------------------------
    def register_table(self, table: Table, overwrite: bool = False) -> Table:
        if not overwrite and table.name in self._tables:
            raise CatalogError(f"table {table.name!r} is already registered")
        self._tables[table.name] = table
        self._version += 1
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError as exc:
            raise UnknownTableError(f"table {name!r} is not registered") from exc

    def has_table(self, name: str) -> bool:
        return name in self._tables

    # -- deltas -------------------------------------------------------------------
    def apply_delta(self, delta) -> None:
        """Apply a :class:`repro.catalog.delta.CatalogDelta`'s relation ops.

        View ops are workspace-level (the catalog stores no view
        definitions) and are rejected here; apply those through
        :meth:`repro.api.workspace.WorkspaceRegistry.apply_delta`.
        """
        if delta.touches_views:
            raise CatalogError(
                "this delta contains view ops; apply it through a workspace "
                "registry, which owns the view set"
            )
        delta.apply(self, ())

    # -- misc ---------------------------------------------------------------------
    def densified(self) -> "Catalog":
        """A copy whose sparse matrices are stored as dense arrays.

        Names, statistics and type tags are kept; tables, scalars and
        metadata-only entries are shared with this catalog.  Evaluating an
        expression over both tells whether the sparse kernels agree with
        the dense ones.
        """
        twin = Catalog()
        twin._matrices = {
            name: MatrixData(
                values=data.to_dense(), meta=dataclasses.replace(data.meta, sparse_storage=False)
            ) if data.is_sparse else data
            for name, data in self._matrices.items()
        }
        twin._metadata_only = dict(self._metadata_only)
        twin._tables = dict(self._tables)
        twin._scalars = dict(self._scalars)
        return twin

    def types(self) -> Dict[str, str]:
        """Mapping of matrix name → structural type tag (non-GENERAL only)."""
        result: Dict[str, str] = {}
        for name in self.matrix_names():
            tag = self.meta(name).matrix_type
            if tag != MatrixType.GENERAL:
                result[name] = tag
        return result

    def __contains__(self, name: str) -> bool:
        return self.has_matrix(name) or self.has_table(name) or self.has_scalar(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Catalog(matrices={len(self._matrices) + len(self._metadata_only)}, "
            f"tables={len(self._tables)}, scalars={len(self._scalars)})"
        )
