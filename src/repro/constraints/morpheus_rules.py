"""Morpheus' factorized-LA rewrite rules as integrity constraints (§9.2).

Morpheus executes LA over a *normalized matrix* ``M = [S, K R]`` — the
(virtual) result of a PK-FK join between an entity table S and an attribute
table R, linked by the sparse indicator matrix K — by pushing operators down
to S and R instead of materialising the join.  The paper incorporates those
rewrite rules into HADAD as constraints so they can compose with LA
properties and enable the hybrid materialized views of §9.2.2
(V3 = rowSums(T) + K·rowSums(U), V4 = [colSums(T), colSums(K)·U],
V5 = [C·T, (C·K)·U]).

The ``factorized(M, S, K, R)`` fact states that class M is such a normalized
matrix with factors S, K, R.
Operators over ``M^T`` need no rules of their own: the general SystemML
transpose rules (``sml-sum-transpose``, ``sml-*-of-transpose``) turn them
into operators over ``M``.
"""

from __future__ import annotations

from typing import List

from repro.constraints.core import Constraint, tgd


def morpheus_rule_constraints() -> List[Constraint]:
    """Morpheus pushdown rules over normalized matrices."""
    return [
        # rowSums(M) = rowSums(S) + K rowSums(R)
        tgd(
            "morpheus-rowsums",
            "factorized(M, S, K, R) & row_sums(M, X) -> "
            "row_sums(S, X1) & row_sums(R, X2) & multi_m(K, X2, X3) & add_m(X1, X3, X)",
        ),
        # colSums(M) = [colSums(S), colSums(K) R]
        tgd(
            "morpheus-colsums",
            "factorized(M, S, K, R) & col_sums(M, X) -> "
            "col_sums(S, X1) & col_sums(K, X2) & multi_m(X2, R, X3) & cbind(X1, X3, X)",
        ),
        # sum(M) = sum(S) + sum(K R)
        tgd(
            "morpheus-sum",
            "factorized(M, S, K, R) & sum(M, s) -> "
            "sum(S, s1) & multi_m(K, R, KR) & sum(KR, s2) & add_s(s1, s2, s)",
        ),
        # Left multiplication: C M = [C S, (C K) R]
        tgd(
            "morpheus-left-multiply",
            "factorized(M, S, K, R) & multi_m(C, M, X) -> "
            "multi_m(C, S, X1) & multi_m(C, K, X2) & multi_m(X2, R, X3) & cbind(X1, X3, X)",
        ),
        # The normalized matrix itself materialises as [S, K R].
        tgd(
            "morpheus-materialize",
            "factorized(M, S, K, R) -> multi_m(K, R, KR) & cbind(S, KR, M)",
        ),
    ]
