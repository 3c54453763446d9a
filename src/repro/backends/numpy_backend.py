"""The as-stated NumPy/SciPy evaluator.

This backend executes an LA expression exactly in its syntactic order, with
no algebraic rewriting — the behaviour the paper ascribes to R, NumPy,
TensorFlow and SparkMLlib, and the reason HADAD's external rewriting pays
off on those systems.

Sparse values stay sparse.  An operation with one sparse and one dense
operand returns an ndarray: ``sparse @ dense`` and ``dense @ sparse`` run on
SciPy's mixed kernel and keep the dense side dense.  A same-shaped ``+`` /
``-`` of one sparse and one dense operand never densifies the sparse side:
it accumulates the nonzeros into the dense operand *in place* when that
operand is a fresh temporary, and into one copy of it otherwise.

A value is a fresh temporary when :func:`is_fresh_temporary` says so, and
only then: the result of an operator node (never a leaf, so never a catalog
value, a view's value or a Morpheus factor), owning its ``float64`` buffer
(``base is None``, writeable), and not the object one of the node's
children returned.  Nothing else holds such a value, so overwriting it
changes no stored matrix.  Values are densified here only where SciPy has no
kernel for the operation: scalar and vector broadcasts of ``+`` / ``-``,
inverses, decompositions, most aggregates.
"""

from __future__ import annotations

import threading
from typing import List, Sequence, Tuple

import numpy as np
from scipy import linalg as scipy_linalg
from scipy import sparse

from repro.backends.base import Backend, Value, to_dense
from repro.exceptions import ExecutionError
from repro.lang import matrix_expr as mx


def is_fresh_temporary(
    expr: mx.Expr, value: Value, inputs: Sequence[Tuple[Value, bool]]
) -> bool:
    """Whether ``value``, just returned for ``expr`` from children that
    returned ``inputs``, may be overwritten by the operator consuming it.

    The one place freshness is decided: an operator node's result (a leaf's
    value is stored elsewhere), owning its ``float64`` buffer, writeable,
    and not the object one of the node's children returned.
    """
    return (
        bool(expr.children)
        and isinstance(value, np.ndarray)
        and value.base is None
        and value.flags.writeable
        and value.dtype == np.float64
        and all(value is not child for child, _ in inputs)
    )


def _accumulate(dense: np.ndarray, value, subtract: bool) -> np.ndarray:
    """Add (or subtract) the nonzeros of the sparse ``value`` into ``dense``
    in place; the sum per cell is SciPy's ``dense + value`` bit for bit."""
    csr = sparse.csr_matrix(value)
    if not csr.has_canonical_format:  # one entry per cell, so ``+=`` adds each once
        csr = csr.copy()
        csr.sum_duplicates()
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    if subtract:
        dense[rows, csr.indices] -= csr.data
    else:
        dense[rows, csr.indices] += csr.data
    return dense


class NumpyBackend(Backend):
    """Evaluate expressions as stated on NumPy / SciPy kernels."""

    name = "numpy"

    def __init__(self, catalog):
        super().__init__(catalog)
        #: Per thread, one frame per operator node under evaluation: the
        #: ``(value, fresh)`` of each child it has evaluated so far.
        self._local = threading.local()

    def _frames(self) -> List[List[Tuple[Value, bool]]]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def evaluate(self, expr: mx.Expr) -> Value:
        frames = self._frames()
        if expr.children:
            method = getattr(self, f"_eval_{expr.op}", None)
            if method is None:
                raise ExecutionError(f"NumpyBackend cannot evaluate operator {expr.op!r}")
            frames.append([])
            try:
                value = method(expr)
            finally:
                inputs = frames.pop()
        else:
            value, inputs = self.leaf_value(expr), []
        if frames:
            frames[-1].append((value, is_fresh_temporary(expr, value, inputs)))
        return value

    def _is_fresh(self, value: Value) -> bool:
        """Whether ``value``, a child of the node under evaluation, was
        judged a fresh temporary when it was returned."""
        return any(seen is value and fresh for seen, fresh in self._frames()[-1])

    # -- helpers ---------------------------------------------------------------
    def _child(self, expr: mx.Expr, index: int = 0) -> Value:
        return self.evaluate(expr.children[index])

    @staticmethod
    def _as_matrix(value: Value) -> np.ndarray:
        return to_dense(value)

    @staticmethod
    def _scalar(value: Value) -> float:
        if np.isscalar(value):
            return float(value)
        dense = to_dense(value)
        if dense.size != 1:
            raise ExecutionError("expected a scalar value")
        return float(dense.reshape(-1)[0])

    # -- binary operators ---------------------------------------------------------
    @staticmethod
    def _sparse_or_dense(value: Value):
        """``value`` itself when sparse, else its dense 2-D form."""
        return value if sparse.issparse(value) else to_dense(value)

    @staticmethod
    def _both_sparse_same_shape(left: Value, right: Value) -> bool:
        """SciPy adds two sparse operands only when their shapes are equal;
        a 1x1 or vector operand broadcasts on the dense path instead."""
        return sparse.issparse(left) and sparse.issparse(right) and left.shape == right.shape

    @staticmethod
    def _one_sparse_same_shape(left: Value, right: Value) -> bool:
        """One operand sparse, the other dense of the same shape (not 1x1)."""
        return (
            sparse.issparse(left) != sparse.issparse(right)
            and np.shape(left) == np.shape(right)
            and np.shape(left) != (1, 1)
        )

    def _eval_multi_m(self, expr: mx.MatMul) -> Value:
        left, right = self._child(expr, 0), self._child(expr, 1)
        if sparse.issparse(left) and sparse.issparse(right):
            return sparse.csr_matrix(left) @ sparse.csr_matrix(right)
        # A mixed product yields np.matrix for spmatrix operands: asarray.
        return np.asarray(self._sparse_or_dense(left) @ self._sparse_or_dense(right))

    def _mixed_sum(self, left: Value, right: Value, subtract: bool) -> np.ndarray:
        """``left + right`` (``left - right`` when ``subtract``) for one
        sparse and one dense operand of the same shape, accumulated into the
        dense operand: in place when it is a fresh temporary, else into one
        copy of it."""
        dense_left = sparse.issparse(right)
        dense, other = (left, right) if dense_left else (right, left)
        if not self._is_fresh(dense):
            dense = np.array(dense, dtype=np.float64)
        if subtract and not dense_left:  # left - right == (0 - right) + left
            np.subtract(0.0, dense, out=dense)
        return _accumulate(dense, other, subtract and dense_left)

    def _eval_add_m(self, expr: mx.Add) -> Value:
        left, right = self._child(expr, 0), self._child(expr, 1)
        if self._both_sparse_same_shape(left, right):
            return left + right
        if self._one_sparse_same_shape(left, right):
            return self._mixed_sum(left, right, subtract=False)
        return self._broadcast(left) + self._broadcast(right)

    def _eval_sub_m(self, expr: mx.Sub) -> Value:
        left, right = self._child(expr, 0), self._child(expr, 1)
        if self._both_sparse_same_shape(left, right):
            return left - right
        if self._one_sparse_same_shape(left, right):
            return self._mixed_sum(left, right, subtract=True)
        return self._broadcast(left) - self._broadcast(right)

    def _eval_div_m(self, expr: mx.ElemDiv) -> Value:
        left, right = self._broadcast(self._child(expr, 0)), self._broadcast(self._child(expr, 1))
        return np.divide(left, right, out=np.zeros_like(left * np.ones_like(right)), where=right != 0)

    def _eval_multi_e(self, expr: mx.Hadamard) -> Value:
        left, right = self._child(expr, 0), self._child(expr, 1)
        if sparse.issparse(left):
            return left.multiply(self._broadcast(right))
        if sparse.issparse(right):
            return right.multiply(self._broadcast(left))
        return self._broadcast(left) * self._broadcast(right)

    def _broadcast(self, value: Value):
        """Dense representation that broadcasts 1x1 values as scalars."""
        if np.isscalar(value):
            return float(value)
        dense = to_dense(value)
        if dense.size == 1:
            return float(dense.reshape(-1)[0])
        return dense

    def _eval_multi_ms(self, expr: mx.ScalarMul) -> Value:
        scalar = self._scalar(self._child(expr, 0))
        matrix = self._child(expr, 1)
        if sparse.issparse(matrix):
            return matrix.multiply(scalar)
        return scalar * self._as_matrix(matrix)

    def _eval_sum_d(self, expr: mx.DirectSum) -> Value:
        left, right = self._as_matrix(self._child(expr, 0)), self._as_matrix(self._child(expr, 1))
        out = np.zeros((left.shape[0] + right.shape[0], left.shape[1] + right.shape[1]))
        out[: left.shape[0], : left.shape[1]] = left
        out[left.shape[0]:, left.shape[1]:] = right
        return out

    def _eval_product_d(self, expr: mx.DirectProduct) -> Value:
        return np.kron(
            self._as_matrix(self._child(expr, 0)), self._as_matrix(self._child(expr, 1))
        )

    def _eval_cbind(self, expr: mx.CBind) -> Value:
        return np.hstack(
            [self._as_matrix(self._child(expr, 0)), self._as_matrix(self._child(expr, 1))]
        )

    def _eval_rbind(self, expr: mx.RBind) -> Value:
        return np.vstack(
            [self._as_matrix(self._child(expr, 0)), self._as_matrix(self._child(expr, 1))]
        )

    # -- unary matrix -> matrix ------------------------------------------------------
    def _eval_tr(self, expr: mx.Transpose) -> Value:
        child = self._child(expr)
        if sparse.issparse(child):
            return child.T.tocsr()
        return self._as_matrix(child).T

    def _eval_inv_m(self, expr: mx.Inverse) -> Value:
        return np.linalg.inv(self._as_matrix(self._child(expr)))

    def _eval_exp(self, expr: mx.MatExp) -> Value:
        return scipy_linalg.expm(self._as_matrix(self._child(expr)))

    def _eval_adj(self, expr: mx.Adjoint) -> Value:
        matrix = self._as_matrix(self._child(expr))
        return np.linalg.det(matrix) * np.linalg.inv(matrix)

    def _eval_diag(self, expr: mx.Diag) -> Value:
        matrix = self._as_matrix(self._child(expr))
        if matrix.shape[1] == 1:
            return np.diag(matrix.reshape(-1))
        return np.diag(matrix).reshape(-1, 1)

    def _eval_rev(self, expr: mx.Rev) -> Value:
        return self._as_matrix(self._child(expr))[::-1, :]

    def _eval_row_sums(self, expr: mx.RowSums) -> Value:
        child = self._child(expr)
        if sparse.issparse(child):
            return np.asarray(child.sum(axis=1))
        return self._as_matrix(child).sum(axis=1, keepdims=True)

    def _eval_col_sums(self, expr: mx.ColSums) -> Value:
        child = self._child(expr)
        if sparse.issparse(child):
            return np.asarray(child.sum(axis=0))
        return self._as_matrix(child).sum(axis=0, keepdims=True)

    def _eval_row_means(self, expr: mx.RowMeans) -> Value:
        return self._as_matrix(self._child(expr)).mean(axis=1, keepdims=True)

    def _eval_col_means(self, expr: mx.ColMeans) -> Value:
        return self._as_matrix(self._child(expr)).mean(axis=0, keepdims=True)

    def _eval_row_max(self, expr: mx.RowMax) -> Value:
        return self._as_matrix(self._child(expr)).max(axis=1, keepdims=True)

    def _eval_col_max(self, expr: mx.ColMax) -> Value:
        return self._as_matrix(self._child(expr)).max(axis=0, keepdims=True)

    def _eval_row_min(self, expr: mx.RowMin) -> Value:
        return self._as_matrix(self._child(expr)).min(axis=1, keepdims=True)

    def _eval_col_min(self, expr: mx.ColMin) -> Value:
        return self._as_matrix(self._child(expr)).min(axis=0, keepdims=True)

    def _eval_row_var(self, expr: mx.RowVar) -> Value:
        return self._as_matrix(self._child(expr)).var(axis=1, ddof=1, keepdims=True)

    def _eval_col_var(self, expr: mx.ColVar) -> Value:
        return self._as_matrix(self._child(expr)).var(axis=0, ddof=1, keepdims=True)

    # -- unary matrix -> scalar -------------------------------------------------------
    def _eval_det(self, expr: mx.Det) -> Value:
        return float(np.linalg.det(self._as_matrix(self._child(expr))))

    def _eval_trace(self, expr: mx.Trace) -> Value:
        return float(np.trace(self._as_matrix(self._child(expr))))

    def _eval_sum(self, expr: mx.SumAll) -> Value:
        child = self._child(expr)
        if sparse.issparse(child):
            return float(child.sum())
        return float(self._as_matrix(child).sum())

    def _eval_mean(self, expr: mx.MeanAll) -> Value:
        return float(self._as_matrix(self._child(expr)).mean())

    def _eval_var(self, expr: mx.VarAll) -> Value:
        return float(self._as_matrix(self._child(expr)).var(ddof=1))

    def _eval_min(self, expr: mx.MinAll) -> Value:
        return float(self._as_matrix(self._child(expr)).min())

    def _eval_max(self, expr: mx.MaxAll) -> Value:
        return float(self._as_matrix(self._child(expr)).max())

    # -- powers and decompositions ---------------------------------------------------
    def _eval_mat_pow(self, expr: mx.MatPow) -> Value:
        return np.linalg.matrix_power(self._as_matrix(self._child(expr)), expr.exponent)

    def _eval_cho(self, expr: mx.CholeskyFactor) -> Value:
        return np.linalg.cholesky(self._as_matrix(self._child(expr)))

    def _eval_qr_q(self, expr: mx.QRFactorQ) -> Value:
        q, _ = np.linalg.qr(self._as_matrix(self._child(expr)))
        return q

    def _eval_qr_r(self, expr: mx.QRFactorR) -> Value:
        _, r = np.linalg.qr(self._as_matrix(self._child(expr)))
        return r

    def _lu(self, expr: mx.Expr):
        return scipy_linalg.lu(self._as_matrix(self._child(expr)))

    def _eval_lu_l(self, expr: mx.LUFactorL) -> Value:
        p, l, u = self._lu(expr)
        return p @ l

    def _eval_lu_u(self, expr: mx.LUFactorU) -> Value:
        _, _, u = self._lu(expr)
        return u

    def _eval_lup_l(self, expr: mx.LUPFactorL) -> Value:
        _, l, _ = self._lu(expr)
        return l

    def _eval_lup_u(self, expr: mx.LUPFactorU) -> Value:
        _, _, u = self._lu(expr)
        return u

    def _eval_lup_p(self, expr: mx.LUPFactorP) -> Value:
        p, _, _ = self._lu(expr)
        return p.T
