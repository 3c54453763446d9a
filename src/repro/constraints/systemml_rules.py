"""MMC_StatAgg: SystemML's algebraic aggregate rewrite rules (Appendix B).

SystemML is the only baseline system that applies static rewrite rules for
aggregate / statistical operations (e.g. ``sum(M N)`` is rewritten to avoid
materialising the product).  HADAD incorporates those rules as integrity
constraints over VREM so they can *compose* with the LA properties of
Appendix A — which is exactly what lets it find rewritings SystemML misses
(Example 6.3, pipelines P1.14 / P2.12).

Tables 11 and the following page of the paper list the rules; each is one
TGD (or EGD, for the vector special cases) below.
"""

from __future__ import annotations

from typing import List

from repro.constraints.core import Constraint, egd, tgd


def _unnecessary_aggregates() -> List[Constraint]:
    return [
        tgd("sml-sum-transpose", "tr(M, R1) & sum(R1, s) -> sum(M, s)"),
        tgd("sml-sum-rev", "rev(M, R1) & sum(R1, s) -> sum(M, s)"),
        tgd("sml-sum-rowsums", "row_sums(M, R1) & sum(R1, s) -> sum(M, s)"),
        tgd("sml-sum-colsums", "col_sums(M, R1) & sum(R1, s) -> sum(M, s)"),
        tgd("sml-min-rowmin", "row_min(M, R1) & min(R1, s) -> min(M, s)"),
        tgd("sml-min-colmin", "col_min(M, R1) & min(R1, s) -> min(M, s)"),
        tgd("sml-max-rowmax", "row_max(M, R1) & max(R1, s) -> max(M, s)"),
        tgd("sml-max-colmax", "col_max(M, R1) & max(R1, s) -> max(M, s)"),
        tgd("sml-mean-transpose", "tr(M, R1) & mean(R1, s) -> mean(M, s)"),
    ]


def _pushdown_transpose() -> List[Constraint]:
    pairs = [
        ("row_sums", "col_sums"),
        ("col_sums", "row_sums"),
        ("row_means", "col_means"),
        ("col_means", "row_means"),
        ("row_var", "col_var"),
        ("col_var", "row_var"),
        ("row_max", "col_max"),
        ("col_max", "row_max"),
        ("row_min", "col_min"),
        ("col_min", "row_min"),
    ]
    constraints = []
    for agg, swapped in pairs:
        constraints.append(
            tgd(
                f"sml-{agg}-of-transpose",
                f"tr(M, R1) & {agg}(R1, R2) -> {swapped}(M, R3) & tr(R3, R2)",
            )
        )
    return constraints


def _matrix_product_aggregates() -> List[Constraint]:
    return [
        # trace(M N) = sum(M ⊙ N^T)
        tgd(
            "sml-trace-matmult",
            "multi_m(M, N, R1) & trace(R1, r) -> tr(N, R3) & multi_e(M, R3, R4) & sum(R4, r)",
        ),
        # sum(M N) = sum(colSums(M)^T ⊙ rowSums(N))
        tgd(
            "sml-sum-matmult",
            "multi_m(M, N, R1) & sum(R1, r) -> "
            "col_sums(M, R2) & tr(R2, R3) & row_sums(N, R4) & multi_e(R3, R4, R5) & sum(R5, r)",
        ),
        # colSums(M N) = colSums(M) N
        tgd(
            "sml-colsums-matmult",
            "multi_m(M, N, R1) & col_sums(R1, R2) -> col_sums(M, R3) & multi_m(R3, N, R2)",
        ),
        tgd(
            "sml-colsums-matmult-rev",
            "col_sums(M, R3) & multi_m(R3, N, R2) -> multi_m(M, N, R1) & col_sums(R1, R2)",
        ),
        # rowSums(M N) = M rowSums(N)
        tgd(
            "sml-rowsums-matmult",
            "multi_m(M, N, R1) & row_sums(R1, R2) -> row_sums(N, R3) & multi_m(M, R3, R2)",
        ),
        tgd(
            "sml-rowsums-matmult-rev",
            "row_sums(N, R3) & multi_m(M, R3, R2) -> multi_m(M, N, R1) & row_sums(R1, R2)",
        ),
        # sum(M + N) = sum(M) + sum(N); trace(M + N) is `trace-add`
        # (constraints/la_properties.py).
        tgd(
            "sml-sum-of-add",
            "add_m(M, N, R1) & sum(R1, s1) -> sum(M, s2) & sum(N, s3) & add_s(s2, s3, s1)",
        ),
        # colSums(M ⊙ N) = M^T N when N is a column vector
        tgd(
            "sml-colsums-hadamard-vector",
            "size(N, i, 1) & multi_e(M, N, R1) & col_sums(R1, R2) -> tr(M, R3) & multi_m(R3, N, R2)",
        ),
        # rowSums(M ⊙ N) = M N^T when N is a row vector
        tgd(
            "sml-rowsums-hadamard-vector",
            "size(N, 1, j) & multi_e(M, N, R1) & row_sums(R1, R2) -> tr(N, R3) & multi_m(M, R3, R2)",
        ),
    ]


def _vector_special_cases() -> List[Constraint]:
    constraints: List[Constraint] = []
    # colAgg(M) = M when M is a row vector; rowAgg(M) = M when M is a column
    # vector.  Not the variance: one element's variance (ddof=1) is NaN.
    for agg in ("col_sums", "col_means", "col_max", "col_min"):
        constraints.append(
            egd(f"sml-{agg}-rowvector", f"size(M, 1, j) & {agg}(M, R1) -> R1 = M")
        )
    for agg in ("row_sums", "row_means", "row_max", "row_min"):
        constraints.append(
            egd(f"sml-{agg}-colvector", f"size(M, i, 1) & {agg}(M, R1) -> R1 = M")
        )
    # colSums of a column vector is the full sum (and mirrored cases).
    constraints.extend(
        [
            tgd("sml-colsums-colvector", "size(M, i, 1) & col_sums(M, R1) -> sum(M, R1)"),
            tgd("sml-rowsums-rowvector", "size(M, 1, j) & row_sums(M, R1) -> sum(M, R1)"),
            tgd("sml-colmeans-colvector", "size(M, i, 1) & col_means(M, R1) -> mean(M, R1)"),
            tgd("sml-rowmeans-rowvector", "size(M, 1, j) & row_means(M, R1) -> mean(M, R1)"),
            tgd("sml-colmax-colvector", "size(M, i, 1) & col_max(M, R1) -> max(M, R1)"),
            tgd("sml-rowmax-rowvector", "size(M, 1, j) & row_max(M, R1) -> max(M, R1)"),
            tgd("sml-colmin-colvector", "size(M, i, 1) & col_min(M, R1) -> min(M, R1)"),
            tgd("sml-rowmin-rowvector", "size(M, 1, j) & row_min(M, R1) -> min(M, R1)"),
        ]
    )
    return constraints


def systemml_rule_constraints() -> List[Constraint]:
    """The full MMC_StatAgg constraint set (Appendix B)."""
    constraints: List[Constraint] = []
    constraints.extend(_unnecessary_aggregates())
    constraints.extend(_pushdown_transpose())
    constraints.extend(_matrix_product_aggregates())
    constraints.extend(_vector_special_cases())
    return constraints
