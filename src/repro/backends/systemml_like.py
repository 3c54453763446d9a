"""A SystemML-like backend: static rewrite rules + mmchain + execution.

SystemML is the one baseline in the paper that applies *some* algebraic
rewriting before execution: a fixed set of static aggregate simplification
rules (Appendix B) and an optimal multiplication-chain ordering.  What it
lacks is the deeper LA-property reasoning (and any view awareness), which is
why HADAD still finds rewritings it misses (Example 6.3, P1.14, P2.12).

This backend reproduces that behaviour: expressions are first normalised by
the bottom-up application of the same static rule set on the AST, then the
multiplication chains are re-associated optimally, and the result is executed
by the NumPy backend.  Both happen once per evaluation, at the root.
"""

from __future__ import annotations

from repro.backends.base import Value
from repro.backends.numpy_backend import NumpyBackend
from repro.core.matchain import optimize_matmul_chains
from repro.lang import matrix_expr as mx
from repro.lang.visitor import transform_bottom_up


def _static_rewrite(node: mx.Expr) -> mx.Expr:
    """One bottom-up application of SystemML's static simplification rules."""
    # sum(t(M)) -> sum(M), sum(rev(M)) -> sum(M)
    if isinstance(node, mx.SumAll) and isinstance(node.child, (mx.Transpose, mx.Rev)):
        return mx.SumAll(node.child.child)
    # sum(rowSums(M)) / sum(colSums(M)) -> sum(M)
    if isinstance(node, mx.SumAll) and isinstance(node.child, (mx.RowSums, mx.ColSums)):
        return mx.SumAll(node.child.child)
    # min(rowMins(M)) -> min(M), max(colMaxs(M)) -> max(M), ...
    if isinstance(node, mx.MinAll) and isinstance(node.child, (mx.RowMin, mx.ColMin)):
        return mx.MinAll(node.child.child)
    if isinstance(node, mx.MaxAll) and isinstance(node.child, (mx.RowMax, mx.ColMax)):
        return mx.MaxAll(node.child.child)
    # rowSums(t(M)) -> t(colSums(M)) and colSums(t(M)) -> t(rowSums(M))
    if isinstance(node, mx.RowSums) and isinstance(node.child, mx.Transpose):
        return mx.Transpose(mx.ColSums(node.child.child))
    if isinstance(node, mx.ColSums) and isinstance(node.child, mx.Transpose):
        return mx.Transpose(mx.RowSums(node.child.child))
    # trace(M N) -> sum(M ⊙ t(N))
    if isinstance(node, mx.Trace) and isinstance(node.child, mx.MatMul):
        product = node.child
        return mx.SumAll(mx.Hadamard(product.left, mx.Transpose(product.right)))
    # sum(M N) -> sum(t(colSums(M)) ⊙ rowSums(N))
    if isinstance(node, mx.SumAll) and isinstance(node.child, mx.MatMul):
        product = node.child
        return mx.SumAll(
            mx.Hadamard(mx.Transpose(mx.ColSums(product.left)), mx.RowSums(product.right))
        )
    # sum(M + N) -> sum(M) + sum(N)
    if isinstance(node, mx.SumAll) and isinstance(node.child, mx.Add):
        addition = node.child
        return mx.Add(mx.SumAll(addition.left), mx.SumAll(addition.right))
    # colSums(M N) -> colSums(M) N   /   rowSums(M N) -> M rowSums(N)
    if isinstance(node, mx.ColSums) and isinstance(node.child, mx.MatMul):
        product = node.child
        return mx.MatMul(mx.ColSums(product.left), product.right)
    if isinstance(node, mx.RowSums) and isinstance(node.child, mx.MatMul):
        product = node.child
        return mx.MatMul(product.left, mx.RowSums(product.right))
    return node


class SystemMLLikeBackend(NumpyBackend):
    """Executes after applying SystemML's own (static, local) optimizations."""

    name = "systemml_like"

    def __init__(self, catalog, apply_static_rules: bool = True, reorder_chains: bool = True):
        super().__init__(catalog)
        self.apply_static_rules = apply_static_rules
        self.reorder_chains = reorder_chains

    def optimize_locally(self, expr: mx.Expr) -> mx.Expr:
        """The plan SystemML itself would execute for this expression."""
        optimized = expr
        if self.apply_static_rules:
            optimized = transform_bottom_up(optimized, _static_rewrite)
        if self.reorder_chains:
            optimized = optimize_matmul_chains(optimized, self.catalog)
        return optimized

    def evaluate(self, expr: mx.Expr) -> Value:
        """Optimise at the root, once; the operators below it evaluate their
        children through here too, and take them as :class:`NumpyBackend`
        does (an open frame means a parent node is under evaluation)."""
        if not self._frames():
            expr = self.optimize_locally(expr)
        return super().evaluate(expr)
