"""The MNC (Matrix Non-zero Count) sparsity estimator (§7.2.2).

MNC keeps, for every base matrix, two count histograms: the number of
non-zeros in each row and in each column.  For matrix products it exploits
the fact that the contribution of intermediate index ``k`` is bounded by
``colCount_A[k] * rowCount_B[k]``, which is far tighter than the naive
worst case for the ultra-sparse matrices of the benchmark; histograms for
intermediates are *derived* during optimization (the overhead §9.1.3
measures).

Base-matrix histograms are computed from the actual values when they are
available in the catalog (the paper computes them offline), once per value
(:meth:`repro.data.matrix.MatrixData.nnz_counts`), and synthesised from the
metadata otherwise (uniform distribution of the declared nnz).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.data.matrix import MatrixData, MatrixMeta

Shape = Tuple[int, int]


def _uniform_histograms(meta: MatrixMeta) -> Tuple[np.ndarray, np.ndarray]:
    nnz = meta.nnz if meta.nnz is not None else meta.rows * meta.cols
    row_counts = np.full(meta.rows, nnz / float(meta.rows))
    col_counts = np.full(meta.cols, nnz / float(meta.cols))
    return row_counts, col_counts


class MNCEstimator:
    """Histogram-based sparsity estimation for LA expressions."""

    name = "mnc"

    #: Histograms longer than this are down-sampled to keep derivation cheap.
    max_histogram_length = 65_536

    def _compress(self, counts: np.ndarray) -> np.ndarray:
        if counts.shape[0] <= self.max_histogram_length:
            return counts
        factor = int(np.ceil(counts.shape[0] / self.max_histogram_length))
        padded = np.pad(counts, (0, factor * self.max_histogram_length - counts.shape[0]))
        return padded.reshape(-1, factor).sum(axis=1)

    # -- leaves ------------------------------------------------------------------
    def leaf_info(self, meta: MatrixMeta, data: Optional[MatrixData] = None) -> "NnzInfo":
        from repro.cost.model import NnzInfo

        if data is not None:
            row_counts, col_counts = data.nnz_counts()
            nnz = float(row_counts.sum())
        else:
            row_counts, col_counts = _uniform_histograms(meta)
            nnz = float(meta.nnz if meta.nnz is not None else meta.rows * meta.cols)
        return NnzInfo(
            shape=meta.shape,
            nnz=nnz,
            row_counts=self._compress(row_counts),
            col_counts=self._compress(col_counts),
        )

    # -- helpers ----------------------------------------------------------------------
    @staticmethod
    def _synth_counts(length: int, nnz: float) -> np.ndarray:
        length = max(int(length), 1)
        return np.full(length, nnz / float(length))

    def _ensure_counts(self, info: "NnzInfo") -> Tuple[np.ndarray, np.ndarray]:
        if info.shape is None:
            return np.asarray([info.nnz]), np.asarray([info.nnz])
        rows, cols = info.shape
        row_counts = (
            info.row_counts if info.row_counts is not None else self._synth_counts(rows, info.nnz)
        )
        col_counts = (
            info.col_counts if info.col_counts is not None else self._synth_counts(cols, info.nnz)
        )
        return row_counts, col_counts

    # -- operators ------------------------------------------------------------------------
    def propagate(
        self,
        relation: str,
        output_shape: Optional[Shape],
        inputs: Sequence["NnzInfo"],
    ) -> "NnzInfo":
        from repro.cost.model import NnzInfo

        if output_shape is None:
            nnz = sum(info.nnz for info in inputs) if inputs else 1.0
            return NnzInfo(shape=None, nnz=nnz)
        cells = float(output_shape[0]) * float(output_shape[1])

        def clipped(nnz, row_counts=None, col_counts=None) -> NnzInfo:
            nnz = min(max(float(nnz), 0.0), cells)
            if row_counts is not None:
                row_counts = self._compress(np.clip(row_counts, 0.0, output_shape[1]))
            if col_counts is not None:
                col_counts = self._compress(np.clip(col_counts, 0.0, output_shape[0]))
            return NnzInfo(shape=output_shape, nnz=nnz,
                           row_counts=row_counts, col_counts=col_counts)

        if relation == "multi_m" and len(inputs) == 2:
            a, b = inputs
            a_rows, a_cols = self._ensure_counts(a)
            b_rows, b_cols = self._ensure_counts(b)
            common = min(len(a_cols), len(b_rows))
            if common == 0:
                return clipped(0.0)
            contributions = a_cols[:common] * b_rows[:common]
            estimate = float(contributions.sum())
            # Output histograms, assuming no cancellation and even spread.
            out_rows = a_rows * min(1.0, estimate / max(a.nnz * output_shape[1], 1.0)) * output_shape[1]
            out_cols = b_cols * min(1.0, estimate / max(b.nnz * output_shape[0], 1.0)) * output_shape[0]
            out_rows = np.minimum(out_rows, output_shape[1])
            out_cols = np.minimum(out_cols, output_shape[0])
            return clipped(min(estimate, cells), out_rows, out_cols)
        if relation in ("add_m", "sub_m") and len(inputs) == 2:
            a, b = inputs
            a_rows, a_cols = self._ensure_counts(a)
            b_rows, b_cols = self._ensure_counts(b)
            length_r = max(len(a_rows), len(b_rows))
            length_c = max(len(a_cols), len(b_cols))
            rows = np.zeros(length_r)
            rows[: len(a_rows)] += a_rows
            rows[: len(b_rows)] += b_rows
            cols = np.zeros(length_c)
            cols[: len(a_cols)] += a_cols
            cols[: len(b_cols)] += b_cols
            return clipped(a.nnz + b.nnz, rows, cols)
        if relation == "multi_e" and len(inputs) == 2:
            a, b = inputs
            return clipped(min(a.nnz, b.nnz))
        if relation == "div_m" and len(inputs) == 2:
            return clipped(inputs[0].nnz, *self._ensure_counts(inputs[0]))
        if relation == "multi_ms" and len(inputs) == 2:
            return clipped(inputs[1].nnz, *self._ensure_counts(inputs[1]))
        if relation == "tr":
            rows, cols = self._ensure_counts(inputs[0])
            return clipped(inputs[0].nnz, cols, rows)
        if relation == "rev":  # reverses the row order
            rows, cols = self._ensure_counts(inputs[0])
            return clipped(inputs[0].nnz, rows[::-1], cols)
        if relation in ("cbind", "rbind", "sum_d") and len(inputs) == 2:
            return clipped(inputs[0].nnz + inputs[1].nnz)
        if relation == "product_d" and len(inputs) == 2:
            return clipped(inputs[0].nnz * inputs[1].nnz)
        if relation in ("row_sums", "row_means", "row_max", "row_min", "row_var"):
            rows, _ = self._ensure_counts(inputs[0])
            return clipped(float(np.count_nonzero(rows)) if rows.size else 0.0)
        if relation in ("col_sums", "col_means", "col_max", "col_min", "col_var"):
            _, cols = self._ensure_counts(inputs[0])
            return clipped(float(np.count_nonzero(cols)) if cols.size else 0.0)
        if relation == "diag":
            return clipped(min(cells, inputs[0].nnz if inputs else cells))
        if relation == "mat_pow":
            return clipped(cells)
        # Inverse / exponential / adjoint / decompositions: dense.
        return clipped(cells)
