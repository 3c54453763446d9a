"""The naive metadata (worst-case) sparsity estimator (§7.2.1).

This estimator derives the sparsity of every intermediate solely from the
base matrices' metadata (dimensions and nnz), using worst-case propagation
rules.  It never looks at matrix values, so it is free at optimization time
— the trade-off being that it can grossly over-estimate sparse results and
thereby miss a few rewritings (as §9.1.3 observes).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.data.matrix import MatrixData, MatrixMeta

Shape = Tuple[int, int]


class NaiveMetadataEstimator:
    """Worst-case nnz propagation from metadata only."""

    name = "naive"

    # -- leaves ------------------------------------------------------------------
    def leaf_info(self, meta: MatrixMeta, data: Optional[MatrixData] = None) -> "NnzInfo":
        from repro.cost.model import NnzInfo

        nnz = meta.nnz if meta.nnz is not None else meta.rows * meta.cols
        return NnzInfo(shape=meta.shape, nnz=float(nnz))

    # -- operators ------------------------------------------------------------------
    def propagate(
        self,
        relation: str,
        output_shape: Optional[Shape],
        inputs: Sequence["NnzInfo"],
    ) -> "NnzInfo":
        """Worst-case nnz of the output of one operation."""
        from repro.cost.model import NnzInfo

        if output_shape is None:
            # Without dimensions we can only fall back to the inputs' bound.
            nnz = sum(info.nnz for info in inputs) if inputs else 1.0
            return NnzInfo(shape=None, nnz=nnz)
        cells = float(output_shape[0]) * float(output_shape[1])

        def capped(value: float) -> NnzInfo:
            return NnzInfo(shape=output_shape, nnz=min(max(value, 0.0), cells))

        if relation == "multi_m" and len(inputs) == 2:
            a, b = inputs
            bound = cells
            if a.shape is not None:
                bound = min(bound, a.nnz * output_shape[1])
            if b.shape is not None:
                bound = min(bound, b.nnz * output_shape[0])
            return capped(bound)
        if relation in ("add_m", "sub_m") and len(inputs) == 2:
            return capped(inputs[0].nnz + inputs[1].nnz)
        if relation == "multi_e" and len(inputs) == 2:
            return capped(min(inputs[0].nnz, inputs[1].nnz))
        if relation == "div_m" and len(inputs) == 2:
            return capped(inputs[0].nnz)
        if relation == "multi_ms" and len(inputs) == 2:
            return capped(inputs[1].nnz)
        if relation in ("tr", "rev", "mat_pow"):
            return capped(inputs[0].nnz if inputs else cells)
        if relation in ("cbind", "rbind", "sum_d") and len(inputs) == 2:
            return capped(inputs[0].nnz + inputs[1].nnz)
        if relation == "product_d" and len(inputs) == 2:
            return capped(inputs[0].nnz * inputs[1].nnz)
        if relation in ("row_sums", "row_means", "row_max", "row_min", "row_var",
                        "col_sums", "col_means", "col_max", "col_min", "col_var"):
            return capped(min(cells, inputs[0].nnz if inputs else cells))
        if relation == "diag":
            return capped(min(cells, inputs[0].nnz if inputs else cells))
        # Inverse, exponential, adjoint, decompositions and anything unknown:
        # worst case is a dense result.
        return capped(cells)
