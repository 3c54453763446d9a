"""MMC_m: the matrix-model constraints of §6.2.1.

These are the key/uniqueness constraints on the base encoding relations:
matrices with the same storage name denote the same value, a class has a
single size, zero (resp. identity) matrices of equal size coincide, and the
neutral-element laws for zero and identity.
"""

from __future__ import annotations

from typing import List

from repro.constraints.core import Constraint, egd, tgd


def matrix_model_constraints() -> List[Constraint]:
    """The constraint set MMC_m."""
    constraints: List[Constraint] = [
        # I_name: two matrices with the same name have the same ID.
        egd("mm-name-key", "name(M, n) & name(N, n) -> M = N"),
        # I_zero / I_iden: zero (identity) matrices of the same size coincide.
        egd(
            "mm-zero-key",
            "zero(O1) & size(O1, k, z) & zero(O2) & size(O2, k, z) -> O1 = O2",
        ),
        egd(
            "mm-identity-key",
            "identity(I1) & size(I1, k, k) & identity(I2) & size(I2, k, k) -> I1 = I2",
        ),
        # 0 + M = M (and M + 0 = M, through `add-commutes`).
        egd("mm-add-zero-left", "zero(O) & add_m(O, M, R) -> R = M"),
        egd("mm-sub-zero-right", "zero(O) & sub_m(M, O, R) -> R = M"),
        # I M = M and M I = M.
        egd("mm-identity-mult-left", "identity(I) & multi_m(I, M, R) -> R = M"),
        egd("mm-identity-mult-right", "identity(I) & multi_m(M, I, R) -> R = M"),
        # Transposes / inverses of the identity and zero matrices.
        tgd("mm-identity-transpose", "identity(I) & tr(I, R) -> identity(R)"),
        tgd("mm-zero-transpose", "zero(O) & tr(O, R) -> zero(R)"),
        tgd("mm-identity-inverse", "identity(I) & inv_m(I, R) -> identity(R)"),
        # Scalar-multiplication by 1 is the identity operation.
        egd("mm-scalar-one", "scalar_const(S, 1) & multi_ms(S, M, R) -> R = M"),
    ]
    return constraints
