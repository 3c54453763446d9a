"""Matrix-decomposition constraints (§6.2.5 / Table 10).

The decompositions are modelled with dedicated relations (``cho``, ``qr``,
``lu``, ``lup``) whose defining equations and fixed points are expressed as
type-guarded TGDs: e.g. every symmetric positive definite matrix has a
Cholesky factorisation M = L Lᵀ with L lower triangular, the QR decomposition
of an orthogonal matrix is (Q, I), of an upper-triangular matrix is (I, R),
and of the identity is (I, I).

The guards (``type(M, "S")`` etc.) keep these constraints from firing on
arbitrary classes, which both matches the mathematics and keeps the chase
terminating.
"""

from __future__ import annotations

from typing import List

from repro.constraints.core import Constraint, tgd


def decomposition_constraints() -> List[Constraint]:
    """Cholesky / QR / LU / pivoted-LU axioms as TGDs."""
    return [
        # Cholesky: M symmetric positive definite => M = L L^T, L lower triangular.
        tgd(
            "cho-defining",
            'type(M, "S") -> cho(M, L1) & type(L1, "L") & tr(L1, L2) & multi_m(L1, L2, M)',
        ),
        # QR of a named square matrix: M = Q R, Q orthogonal, R upper triangular.
        tgd(
            "qr-defining",
            'name(M, n) & size(M, k, k) -> '
            'qr(M, Q, R) & type(Q, "O") & type(R, "U") & multi_m(Q, R, M)',
        ),
        # QR of an orthogonal matrix is (Q, I).
        tgd(
            "qr-orthogonal-fixpoint",
            'type(Q, "O") -> qr(Q, Q, I) & identity(I) & multi_m(Q, I, Q)',
        ),
        # QR of an upper-triangular matrix is (I, R).
        tgd(
            "qr-upper-fixpoint",
            'type(R, "U") -> qr(R, I, R) & identity(I) & multi_m(I, R, R)',
        ),
        # QR of the identity is (I, I).
        tgd("qr-identity-fixpoint", "identity(I) -> qr(I, I, I)"),
        # Orthogonal matrices satisfy Q^T Q = I (gives the optimizer Q^{-1} = Q^T).
        tgd(
            "orthogonal-transpose-inverse",
            'type(Q, "O") -> tr(Q, R1) & multi_m(R1, Q, R2) & identity(R2)',
        ),
        # LU of a named square matrix: M = L U with U upper triangular.  L
        # carries the row pivots (the evaluator's lu_l is P L), so it is not
        # typed lower-triangular, and lu(L) = (L, I) is no rule: L's
        # diagonal need not be all ones.
        tgd(
            "lu-defining",
            'name(M, n) & size(M, k, k) -> '
            'lu(M, L, U) & type(U, "U") & multi_m(L, U, M)',
        ),
        tgd(
            "lu-upper-fixpoint",
            'type(U, "U") -> lu(U, I, U) & identity(I) & multi_m(I, U, U)',
        ),
        tgd("lu-identity-fixpoint", "identity(I) -> lu(I, I, I)"),
        # Pivoted LU: P M = L U with P a permutation matrix.
        tgd(
            "lup-defining",
            'name(M, n) & size(M, k, k) -> '
            'lup(M, L, U, P) & type(L, "L") & type(U, "U") & type(P, "P") & '
            "multi_m(L, U, R) & multi_m(P, M, R)",
        ),
        tgd(
            "lup-identity-fixpoint",
            "identity(I) -> lup(I, I, I, I)",
        ),
        # Permutation matrices are orthogonal: P^T P = I.
        tgd(
            "permutation-orthogonal",
            'type(P, "P") -> tr(P, R1) & multi_m(R1, P, R2) & identity(R2)',
        ),
    ]
