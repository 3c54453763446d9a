"""Common backend machinery: the contract every execution substrate implements.

A backend turns a finished LA expression into a value.  The contract has
three entry points, layered from low to high:

* :meth:`Backend.evaluate` — recursively evaluate one expression (abstract;
  each substrate provides its own kernels);
* :meth:`Backend.timed` — evaluate and measure wall-clock time, the quantity
  the paper reports as Q_exec / RW_exec;
* :meth:`Backend.execute_plan` — the service-layer entry point: take a whole
  :class:`~repro.core.result.RewriteResult` from the planner, bind catalog
  data for its leaves and run the chosen rewriting (or, on request, the
  original expression).  Backends override it to prepare
  substrate-specific state first — e.g. the Morpheus backend auto-registers
  factorized matrices — while the :class:`repro.service.ExecutionRouter`
  only ever talks to this one method.

Every failure a backend signals must be an
:class:`~repro.exceptions.ExecutionError`: the router's fallback chain
catches exactly that type and moves on to the next candidate backend.

The module also hosts the shared value helpers (:func:`to_dense`,
:func:`values_allclose`) used by the harness and the tests to compare
original and rewritten executions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np
from scipy import sparse

from repro.backends.registry import BackendCapabilities
from repro.data.catalog import Catalog
from repro.exceptions import ExecutionError
from repro.lang import matrix_expr as mx

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.result import RewriteResult

Value = Union[np.ndarray, sparse.spmatrix, float]


@dataclass
class EvaluationResult:
    """Value of an expression together with its wall-clock evaluation time."""

    value: Value
    seconds: float

    def as_dense(self) -> np.ndarray:
        if sparse.issparse(self.value):
            return np.asarray(self.value.todense())
        return np.asarray(self.value)


class Backend:
    """Base class: resolves leaves from a catalog and times evaluations."""

    name = "backend"
    #: What this substrate can run; subclasses override the class attribute
    #: (see :class:`repro.backends.registry.BackendCapabilities`).  Routing
    #: consults the declaration instead of hardcoding backend names.
    capabilities = BackendCapabilities()

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # -- to be provided by subclasses -------------------------------------------
    def evaluate(self, expr: mx.Expr) -> Value:
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------------
    def timed(self, expr: mx.Expr) -> EvaluationResult:
        """Evaluate and measure wall-clock time (the paper's Q_exec / RW_exec)."""
        start = time.perf_counter()
        value = self.evaluate(expr)
        return EvaluationResult(value=value, seconds=time.perf_counter() - start)

    def execute_plan(
        self, result: "RewriteResult", use_rewritten: bool = True
    ) -> EvaluationResult:
        """Execute a finished plan — the common service-layer entry point.

        Evaluates ``result.best`` (the planner's chosen rewriting) or, with
        ``use_rewritten=False``, the original expression, resolving leaves
        from this backend's catalog and timing the run.  Subclasses override
        this to bind substrate-specific state before evaluation (the
        Morpheus backend registers factorized matrices here); any failure
        must surface as :class:`~repro.exceptions.ExecutionError` so the
        :class:`repro.service.ExecutionRouter` can fall back to another
        backend: a kernel's ``ValueError`` (NumPy's ``LinAlgError`` is one)
        or ``ArithmeticError`` is translated here.  Direct :meth:`evaluate`
        callers keep NumPy's own exception types.
        """
        expr = result.best if use_rewritten else result.original
        try:
            return self.timed(expr)
        except (ValueError, ArithmeticError) as exc:
            raise ExecutionError(f"{type(exc).__name__}: {exc}") from exc

    def leaf_value(self, expr: mx.Expr) -> Value:
        """Resolve the stored value of a leaf node."""
        if isinstance(expr, mx.MatrixRef):
            if not self.catalog.has_matrix_values(expr.name):
                raise ExecutionError(
                    f"matrix {expr.name!r} has no materialized values in the catalog"
                )
            return self.catalog.matrix(expr.name).values
        if isinstance(expr, mx.ScalarConst):
            return float(expr.value)
        if isinstance(expr, mx.ScalarRef):
            return float(self.catalog.scalar(expr.name))
        if isinstance(expr, mx.Identity):
            return np.eye(expr.n)
        if isinstance(expr, mx.Zero):
            return np.zeros((expr.rows, expr.cols))
        raise ExecutionError(f"{expr!r} is not a leaf expression")


def to_dense(value: Value) -> np.ndarray:
    """Coerce any backend value to a dense 2-D array (scalars become 1x1)."""
    if sparse.issparse(value):
        return np.asarray(value.todense())
    if np.isscalar(value):
        return np.asarray([[float(value)]])
    array = np.asarray(value, dtype=np.float64)
    if array.ndim == 0:
        return array.reshape(1, 1)
    if array.ndim == 1:
        return array.reshape(-1, 1)
    return array


def values_allclose(left: Value, right: Value, rtol: float = 1e-6, atol: float = 1e-6) -> bool:
    """Numerical equality of two backend values (used to verify rewrites)."""
    return np.allclose(to_dense(left), to_dense(right), rtol=rtol, atol=atol)
