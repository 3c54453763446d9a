"""The naive metadata (worst-case) sparsity estimator (§7.2.1).

This estimator derives the sparsity of every intermediate solely from the
base matrices' metadata (dimensions and nnz), using worst-case propagation
rules.  It never looks at matrix values, so it is free at optimization time
— the trade-off being that it can grossly over-estimate sparse results and
thereby miss a few rewritings (as §9.1.3 observes).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.cost.model import NnzInfo
from repro.data.matrix import MatrixData, MatrixMeta

Shape = Tuple[int, int]
#: A worst-case nnz bound: (output shape, output cells, input infos) -> nnz,
#: before clipping to [0, cells].
Rule = Callable[[Shape, float, Sequence[NnzInfo]], float]


def _matmul(shape: Shape, cells: float, inputs: Sequence[NnzInfo]) -> float:
    if len(inputs) != 2:
        return cells
    a, b = inputs
    bound = cells
    if a.shape is not None:
        bound = min(bound, a.nnz * shape[1])
    if b.shape is not None:
        bound = min(bound, b.nnz * shape[0])
    return bound


def _sum(shape: Shape, cells: float, inputs: Sequence[NnzInfo]) -> float:
    return inputs[0].nnz + inputs[1].nnz if len(inputs) == 2 else cells


#: The bound of each relation; a binary rule given another operand count
#: bounds nothing.  Inverse, exponential, adjoint, decompositions and
#: anything unknown are missing: their worst case is a dense result.
_RULES: Dict[str, Rule] = {
    "multi_m": _matmul,
    **dict.fromkeys(("add_m", "sub_m", "cbind", "rbind", "sum_d"), _sum),
    "multi_e": lambda shape, cells, ins: min(ins[0].nnz, ins[1].nnz) if len(ins) == 2 else cells,
    "div_m": lambda shape, cells, ins: ins[0].nnz if len(ins) == 2 else cells,
    "multi_ms": lambda shape, cells, ins: ins[1].nnz if len(ins) == 2 else cells,
    "product_d": lambda shape, cells, ins: ins[0].nnz * ins[1].nnz if len(ins) == 2 else cells,
    **dict.fromkeys(
        ("tr", "rev", "mat_pow"), lambda shape, cells, ins: ins[0].nnz if ins else cells
    ),
    **dict.fromkeys(
        ["diag"] + [f"{axis}_{stat}" for axis in ("row", "col")
                    for stat in ("sums", "means", "max", "min", "var")],
        lambda shape, cells, ins: min(cells, ins[0].nnz if ins else cells),
    ),
}


class NaiveMetadataEstimator:
    """Worst-case nnz propagation from metadata only."""

    name = "naive"

    # -- leaves ------------------------------------------------------------------
    def leaf_info(self, meta: MatrixMeta, data: Optional[MatrixData] = None) -> NnzInfo:
        nnz = meta.nnz if meta.nnz is not None else meta.rows * meta.cols
        return NnzInfo(shape=meta.shape, nnz=float(nnz))

    # -- operators ------------------------------------------------------------------
    def propagate(
        self,
        relation: str,
        output_shape: Optional[Shape],
        inputs: Sequence[NnzInfo],
    ) -> NnzInfo:
        """Worst-case nnz of the output of one operation."""
        if output_shape is None:
            # Without dimensions we can only fall back to the inputs' bound.
            nnz = sum(info.nnz for info in inputs) if inputs else 1.0
            return NnzInfo(shape=None, nnz=nnz)
        cells = float(output_shape[0]) * float(output_shape[1])
        rule = _RULES.get(relation)
        bound = cells if rule is None else rule(output_shape, cells, inputs)
        return NnzInfo(shape=output_shape, nnz=min(max(bound, 0.0), cells))
