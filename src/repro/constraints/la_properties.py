"""MMC_LAprop: textbook LA properties encoded as integrity constraints.

These are the constraints of Figure 2 and Appendix A (Tables 8 and 9):
commutativity / associativity / distributivity of matrix addition and
multiplication, the transposition and inversion laws, determinant, adjoint
and trace identities, direct-sum laws and the matrix-exponential rules.

Where a property is an equation ``lhs = rhs`` whose two orientations both
produce useful rewritings (the chase is directional), it is written once
with :func:`~repro.constraints.core.equation`, which yields both TGD
directions, suffixed ``-fwd`` / ``-rev``.  Properties whose natural
encoding is an equality of classes (involutions, neutral elements,
cancellation) are written as EGDs, which is both sound and far cheaper than
their generative TGD variant.
"""

from __future__ import annotations

from typing import List

from repro.constraints.core import Constraint, egd, equation, tgd


def _addition() -> List[Constraint]:
    return [
        tgd("add-commutes", "add_m(M, N, R) -> add_m(N, M, R)"),
        *equation(
            "add-assoc",
            "add_m(M, N, R1) & add_m(R1, D, R2)",
            "add_m(N, D, R3) & add_m(M, R3, R2)",
        ),
        # c (M + N) = c M + c N
        *equation(
            "scalar-over-add",
            "add_m(M, N, R1) & multi_ms(c, R1, R2)",
            "multi_ms(c, M, R3) & multi_ms(c, N, R4) & add_m(R3, R4, R2)",
        ),
        # (c + d) M = c M + d M
        *equation(
            "scalar-sum-over-matrix",
            "add_s(c, d, s) & multi_ms(s, M, R1)",
            "multi_ms(c, M, R2) & multi_ms(d, M, R3) & add_m(R2, R3, R1)",
        ),
    ]


def _product() -> List[Constraint]:
    return [
        # (M N) D = M (N D)
        *equation(
            "mult-assoc",
            "multi_m(M, N, R1) & multi_m(R1, D, R2)",
            "multi_m(N, D, R3) & multi_m(M, R3, R2)",
        ),
        # M (N + D) = M N + M D
        *equation(
            "mult-left-distributes-add",
            "add_m(N, D, R1) & multi_m(M, R1, R2)",
            "multi_m(M, N, R3) & multi_m(M, D, R4) & add_m(R3, R4, R2)",
        ),
        # (M + N) D = M D + N D
        *equation(
            "mult-right-distributes-add",
            "add_m(M, N, R1) & multi_m(R1, D, R2)",
            "multi_m(M, D, R3) & multi_m(N, D, R4) & add_m(R3, R4, R2)",
        ),
        # Distribution over subtraction (used e.g. by the ALS pipeline P2.25).
        *equation(
            "mult-right-distributes-sub",
            "sub_m(M, N, R1) & multi_m(R1, D, R2)",
            "multi_m(M, D, R3) & multi_m(N, D, R4) & sub_m(R3, R4, R2)",
        ),
        *equation(
            "mult-left-distributes-sub",
            "sub_m(N, D, R1) & multi_m(M, R1, R2)",
            "multi_m(M, N, R3) & multi_m(M, D, R4) & sub_m(R3, R4, R2)",
        ),
        # d (M N) = (d M) N
        *equation(
            "scalar-assoc-product",
            "multi_m(M, N, R1) & multi_ms(d, R1, R2)",
            "multi_ms(d, M, R3) & multi_m(R3, N, R2)",
        ),
        # c (d M) = (c d) M
        tgd(
            "scalar-scalar-product",
            "multi_ms(d, M, R1) & multi_ms(c, R1, R2) -> multi_s(c, d, s) & multi_ms(s, M, R2)",
        ),
        # M^{-1} M = I = M M^{-1}
        tgd("inv-cancel-left", "inv_m(M, R1) & multi_m(R1, M, R2) -> identity(R2)"),
        tgd("inv-cancel-right", "inv_m(M, R1) & multi_m(M, R1, R2) -> identity(R2)"),
    ]


def _transpose() -> List[Constraint]:
    return [
        # (M N)^T = N^T M^T
        *equation(
            "tr-product",
            "multi_m(M, N, R1) & tr(R1, R2)",
            "tr(M, R3) & tr(N, R4) & multi_m(R4, R3, R2)",
        ),
        # (M + N)^T = M^T + N^T
        *equation(
            "tr-add",
            "add_m(M, N, R1) & tr(R1, R2)",
            "tr(M, R3) & tr(N, R4) & add_m(R3, R4, R2)",
        ),
        *equation(
            "tr-sub",
            "sub_m(M, N, R1) & tr(R1, R2)",
            "tr(M, R3) & tr(N, R4) & sub_m(R3, R4, R2)",
        ),
        # (c M)^T = c (M^T)
        *equation(
            "tr-scalar", "multi_ms(c, M, R1) & tr(R1, R2)", "tr(M, R3) & multi_ms(c, R3, R2)"
        ),
        # (M ⊙ N)^T = M^T ⊙ N^T
        *equation(
            "tr-hadamard",
            "multi_e(M, N, R1) & tr(R1, R2)",
            "tr(M, R3) & tr(N, R4) & multi_e(R3, R4, R2)",
        ),
        # ((M)^T)^T = M
        egd("tr-involution", "tr(M, R1) & tr(R1, R2) -> R2 = M"),
        # (M^k)^T = (M^T)^k
        *equation("tr-matpow", "mat_pow(M, k, R1) & tr(R1, R2)", "tr(M, R3) & mat_pow(R3, k, R2)"),
    ]


def _inverse() -> List[Constraint]:
    return [
        # ((M)^{-1})^{-1} = M
        egd("inv-involution", "inv_m(M, R1) & inv_m(R1, R2) -> R2 = M"),
        # (M N)^{-1} = N^{-1} M^{-1}, for square factors only: t(X) X is
        # invertible, the tall X is not.
        tgd(
            "inv-product-fwd",
            "size(M, k, k) & multi_m(M, N, R1) & inv_m(R1, R2) -> inv_m(M, R3) & inv_m(N, R4) & multi_m(R4, R3, R2)",
        ),
        tgd(
            "inv-product-rev",
            "inv_m(M, R3) & inv_m(N, R4) & multi_m(R4, R3, R2) -> multi_m(M, N, R1) & inv_m(R1, R2)",
        ),
        # ((M)^T)^{-1} = ((M)^{-1})^T
        *equation("inv-transpose", "tr(M, R1) & inv_m(R1, R2)", "inv_m(M, R3) & tr(R3, R2)"),
        # (k M)^{-1} = k^{-1} M^{-1}
        tgd(
            "inv-scalar",
            "multi_ms(k, M, R1) & inv_m(R1, R2) -> inv_s(k, s) & inv_m(M, R3) & multi_ms(s, R3, R2)",
        ),
    ]


def _determinant() -> List[Constraint]:
    return [
        # det(M N) = det(M) det(N), for square factors only.
        tgd(
            "det-product",
            "size(M, k, k) & multi_m(M, N, R1) & det(R1, d) -> det(M, d1) & det(N, d2) & multi_s(d1, d2, d)",
        ),
        tgd("det-transpose", "tr(M, R1) & det(R1, d) -> det(M, d)"),
        tgd("det-inverse", "inv_m(M, R1) & det(R1, d) -> det(M, d1) & inv_s(d1, d)"),
        egd("det-identity", "identity(I) & det(I, d) -> d = 1"),
    ]


def _adjoint() -> List[Constraint]:
    return [
        tgd("adj-transpose", "adj(M, R1) & tr(R1, R2) -> tr(M, R3) & adj(R3, R2)"),
        tgd("adj-inverse", "adj(M, R1) & inv_m(R1, R2) -> inv_m(M, R3) & adj(R3, R2)"),
        # adj(M N) = adj(N) adj(M), for square factors only.
        tgd(
            "adj-product",
            "size(M, k, k) & multi_m(M, N, R1) & adj(R1, R2) -> adj(N, R3) & adj(M, R4) & multi_m(R3, R4, R2)",
        ),
    ]


def _trace() -> List[Constraint]:
    return [
        tgd(
            "trace-add",
            "add_m(M, N, R1) & trace(R1, s1) -> trace(M, s2) & trace(N, s3) & add_s(s2, s3, s1)",
        ),
        tgd(
            "trace-cyclic",
            "multi_m(M, N, R1) & trace(R1, s1) -> multi_m(N, M, R2) & trace(R2, s1)",
        ),
        tgd("trace-transpose", "tr(M, R1) & trace(R1, s1) -> trace(M, s1)"),
        tgd(
            "trace-scalar",
            "multi_ms(c, M, R1) & trace(R1, s1) -> trace(M, s2) & multi_s(c, s2, s1)",
        ),
    ]


def _direct_sum_and_exp() -> List[Constraint]:
    return [
        # (M ⊕ N) + (C ⊕ D) = (M + C) ⊕ (N + D) when shape(M) = shape(C);
        # the sum of the direct sums then fixes shape(N) = shape(D).
        tgd(
            "directsum-add",
            "size(M, i, j) & size(C, i, j) & sum_d(M, N, R1) & sum_d(C, D, R2) & "
            "add_m(R1, R2, R3) -> add_m(M, C, R4) & add_m(N, D, R5) & sum_d(R4, R5, R3)",
        ),
        # (M ⊕ N)(C ⊕ D) = MC ⊕ ND when cols(M) = rows(C).
        tgd(
            "directsum-product",
            "size(M, i, k) & size(C, k, j) & sum_d(M, N, R1) & sum_d(C, D, R2) & "
            "multi_m(R1, R2, R3) -> multi_m(M, C, R4) & multi_m(N, D, R5) & sum_d(R4, R5, R3)",
        ),
        tgd("exp-zero", "zero(O) & exp(O, R1) -> identity(R1)"),
        *equation("exp-transpose", "tr(M, R1) & exp(R1, R2)", "exp(M, R3) & tr(R3, R2)"),
    ]


def la_property_constraints() -> List[Constraint]:
    """The full MMC_LAprop constraint set (Appendix A)."""
    constraints: List[Constraint] = []
    constraints.extend(_addition())
    constraints.extend(_product())
    constraints.extend(_transpose())
    constraints.extend(_inverse())
    constraints.extend(_determinant())
    constraints.extend(_adjoint())
    constraints.extend(_trace())
    constraints.extend(_direct_sum_and_exp())
    return constraints
