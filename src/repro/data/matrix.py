"""Matrix values and metadata.

The paper distinguishes the *value* of a matrix (its cells, stored as CSV for
dense data or MatrixMarket/MTX for sparse data) from its *metadata*: the
dimensions, the number of non-zeros and — when known — its structural type
(symmetric positive definite, lower/upper triangular, orthogonal, ...; see
§6.2.5).  The metadata drives the cost model and the type-guarded
decomposition constraints, and is available *before* reading the data, which
is what makes the naive estimator of §7.2.1 free at optimization time.

:class:`MatrixData` wraps either a dense ``numpy.ndarray`` or a
``scipy.sparse`` matrix and carries a :class:`MatrixMeta`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np
from scipy import sparse

from repro.exceptions import CatalogError

ArrayLike = Union[np.ndarray, sparse.spmatrix]


class MatrixType:
    """Structural type tags, matching the ``type(M, tag)`` VREM relation."""

    SYMMETRIC_PD = "S"
    LOWER_TRIANGULAR = "L"
    UPPER_TRIANGULAR = "U"
    ORTHOGONAL = "O"
    PERMUTATION = "P"
    GENERAL = "G"

    ALL = (SYMMETRIC_PD, LOWER_TRIANGULAR, UPPER_TRIANGULAR, ORTHOGONAL, PERMUTATION, GENERAL)


@dataclass(frozen=True)
class MatrixMeta:
    """Metadata about a stored matrix.

    Attributes
    ----------
    name:
        The storage name, e.g. ``"M.csv"``; this is the key of the ``name``
        VREM relation and of the catalog.
    rows, cols:
        Dimensions.
    nnz:
        Number of non-zero cells.  ``None`` means unknown, in which case the
        matrix is treated as dense (worst case) by the estimators.
    matrix_type:
        One of :class:`MatrixType`; ``GENERAL`` when nothing is known.
    sparse_storage:
        Whether the value is kept in a sparse representation.
    """

    name: str
    rows: int
    cols: int
    nnz: Optional[int] = None
    matrix_type: str = MatrixType.GENERAL
    sparse_storage: bool = False

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise CatalogError(f"matrix {self.name!r} has non-positive dimensions")
        if self.nnz is not None and not (0 <= self.nnz <= self.rows * self.cols):
            raise CatalogError(
                f"matrix {self.name!r} has nnz={self.nnz} outside [0, rows*cols]"
            )
        if self.matrix_type not in MatrixType.ALL:
            raise CatalogError(f"unknown matrix type tag {self.matrix_type!r}")

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    @property
    def sparsity(self) -> float:
        """Fraction of non-zero cells (1.0 when nnz is unknown)."""
        if self.nnz is None:
            return 1.0
        return self.nnz / float(self.n_cells)


def nonzero_counts(values: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    """The number of non-zeros in each row and in each column (``float64``)."""
    if sparse.issparse(values):
        csr = sparse.csr_matrix(values)
        row_counts = np.diff(csr.indptr).astype(np.float64)
        col_counts = np.bincount(csr.indices, minlength=csr.shape[1]).astype(np.float64)
        return row_counts, col_counts
    dense = np.asarray(values)
    return (
        np.count_nonzero(dense, axis=1).astype(np.float64),
        np.count_nonzero(dense, axis=0).astype(np.float64),
    )


@dataclass
class MatrixData:
    """A matrix value together with its metadata."""

    values: ArrayLike
    meta: MatrixMeta = field(default=None)
    #: ``(values, row counts, col counts)`` of the last :meth:`nnz_counts`.
    _nnz_counts: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_dense(
        cls,
        name: str,
        values: np.ndarray,
        matrix_type: str = MatrixType.GENERAL,
    ) -> "MatrixData":
        """Wrap a dense array, computing nnz from the data."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if values.ndim != 2:
            raise CatalogError("MatrixData.from_dense expects a 2-D array")
        meta = MatrixMeta(
            name=name,
            rows=values.shape[0],
            cols=values.shape[1],
            nnz=int(np.count_nonzero(values)),
            matrix_type=matrix_type,
            sparse_storage=False,
        )
        return cls(values=values, meta=meta)

    @classmethod
    def from_sparse(
        cls,
        name: str,
        values: sparse.spmatrix,
        matrix_type: str = MatrixType.GENERAL,
    ) -> "MatrixData":
        """Wrap a scipy sparse matrix (stored as CSR)."""
        csr = sparse.csr_matrix(values, dtype=np.float64)
        meta = MatrixMeta(
            name=name,
            rows=csr.shape[0],
            cols=csr.shape[1],
            nnz=int(csr.nnz),
            matrix_type=matrix_type,
            sparse_storage=True,
        )
        return cls(values=csr, meta=meta)

    # -- basic accessors -------------------------------------------------------
    @property
    def name(self) -> str:
        return self.meta.name

    @property
    def shape(self) -> Tuple[int, int]:
        return self.meta.shape

    @property
    def is_sparse(self) -> bool:
        return sparse.issparse(self.values)

    def to_dense(self) -> np.ndarray:
        """Return the value as a dense ndarray (copying if needed)."""
        if self.is_sparse:
            return np.asarray(self.values.todense())
        return np.asarray(self.values)

    def nnz_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """:func:`nonzero_counts` of the value, computed once per value
        object (a new ``values`` is counted anew).  The arrays are shared
        between callers, so they are read-only."""
        memo = self._nnz_counts
        if memo is None or memo[0] is not self.values:
            row_counts, col_counts = nonzero_counts(self.values)
            row_counts.flags.writeable = col_counts.flags.writeable = False
            memo = self._nnz_counts = (self.values, row_counts, col_counts)
        return memo[1], memo[2]

    def nnz(self) -> int:
        """Exact number of non-zeros of the stored value."""
        if self.is_sparse:
            return int(self.values.nnz)
        return int(np.count_nonzero(self.values))

    # -- structural helpers (used to auto-tag matrix types) ---------------------
    def detect_type(self, tolerance: float = 1e-9) -> str:
        """Best-effort detection of a structural type tag from the values.

        Detection is only attempted for reasonably small matrices; large
        matrices keep their declared tag (detection would defeat the point of
        metadata-only optimization).
        """
        rows, cols = self.shape
        if rows != cols or rows > 4096:
            return self.meta.matrix_type
        dense = self.to_dense()
        if np.allclose(dense, np.tril(dense), atol=tolerance):
            return MatrixType.LOWER_TRIANGULAR
        if np.allclose(dense, np.triu(dense), atol=tolerance):
            return MatrixType.UPPER_TRIANGULAR
        if np.allclose(dense, dense.T, atol=tolerance):
            try:
                np.linalg.cholesky(dense)
                return MatrixType.SYMMETRIC_PD
            except np.linalg.LinAlgError:
                return self.meta.matrix_type
        if np.allclose(dense @ dense.T, np.eye(rows), atol=1e-6):
            return MatrixType.ORTHOGONAL
        return self.meta.matrix_type
