"""A Morpheus-style backend: factorized LA over normalized matrices.

Morpheus avoids materialising the PK-FK join of an entity table S with an
attribute table R: the joined feature matrix is kept as a *normalized
matrix* ``M = [S, K R]`` (K the sparse indicator matrix of the foreign key)
and LA operators over M are rewritten into operators over S, K and R.

This backend reproduces the operator pushdowns the paper's Figure 9 / 12
experiments rely on:

* right multiplication      ``M N   = [S N1 + K (R N2)]`` (N split row-wise),
* left multiplication       ``C M   = [C S, (C K) R]``,
* column sums               ``colSums(M) = [colSums(S), colSums(K) R]``,
* row sums                  ``rowSums(M) = rowSums(S) + K rowSums(R)``,
* full sum                  ``sum(M) = sum(S) + sum(K R)`` (via colSums(K)·R),
* transpose-aware variants  (ops on Mᵀ are replaced by ops on M),
* element-wise operators fall back to materialising M (Morpheus does not
  factorize them — which is exactly what HADAD exploits in P2.11).

A named matrix is treated as normalized when the catalog registers a
:class:`NormalizedMatrix` for it (see :meth:`MorpheusBackend.register`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.backends.base import EvaluationResult, Value, to_dense
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.registry import BackendCapabilities
from repro.exceptions import ExecutionError
from repro.lang import matrix_expr as mx
from repro.lang.visitor import matrix_ref_names


def factor_names(name: str) -> Tuple[str, str, str]:
    """Catalog names under which ``name``'s Morpheus factors are stored.

    The single source of the ``M__S`` / ``M__K`` / ``M__R`` convention:
    :meth:`repro.hybrid.optimizer.HybridOptimizer.ensure_factor_matrices`
    registers factors under these names,
    :meth:`MorpheusBackend.register_catalog_factors` binds them at
    execution time, and :meth:`repro.service.router.ExecutionRouter.candidates`
    probes them to decide factorized routing.
    """
    return (f"{name}__S", f"{name}__K", f"{name}__R")


@dataclass
class NormalizedMatrix:
    """The factorized representation M = [S, K R] of a PK-FK join result."""

    name: str
    entity_part: np.ndarray          # S : n_S x d_S
    indicator: sparse.spmatrix       # K : n_S x n_R
    attribute_part: np.ndarray       # R : n_R x d_R

    @property
    def shape(self):
        return (
            self.entity_part.shape[0],
            self.entity_part.shape[1] + self.attribute_part.shape[1],
        )

    def materialize(self) -> np.ndarray:
        """The denormalized (joined) feature matrix [S, K R]."""
        joined_right = self.indicator @ self.attribute_part
        return np.hstack([self.entity_part, np.asarray(joined_right)])

    # -- factorized operators ---------------------------------------------------
    def right_multiply(self, other: np.ndarray) -> np.ndarray:
        d_s = self.entity_part.shape[1]
        top, bottom = other[:d_s, :], other[d_s:, :]
        return self.entity_part @ top + self.indicator @ (self.attribute_part @ bottom)

    def left_multiply(self, other: np.ndarray) -> np.ndarray:
        left = other @ self.entity_part
        right = (other @ self.indicator) @ self.attribute_part
        return np.hstack([np.asarray(left), np.asarray(right)])

    def col_sums(self) -> np.ndarray:
        entity = self.entity_part.sum(axis=0, keepdims=True)
        indicator_cols = np.asarray(self.indicator.sum(axis=0))
        attribute = indicator_cols @ self.attribute_part
        return np.hstack([entity, np.asarray(attribute)])

    def row_sums(self) -> np.ndarray:
        entity = self.entity_part.sum(axis=1, keepdims=True)
        attribute = self.indicator @ self.attribute_part.sum(axis=1, keepdims=True)
        return entity + np.asarray(attribute)

    def total_sum(self) -> float:
        indicator_cols = np.asarray(self.indicator.sum(axis=0))
        return float(self.entity_part.sum() + (indicator_cols @ self.attribute_part).sum())


class MorpheusBackend(NumpyBackend):
    """NumPy backend extended with factorized execution over normalized matrices.

    The backend applies Morpheus' pushdown rules *locally*, i.e. only when the
    operator's direct operand is a normalized matrix (or its transpose) — it
    performs no global rewriting, which is why HADAD's externally supplied
    rewritings (e.g. ``colSums(M N)`` → ``colSums(M) N``) enable pushdowns that
    Morpheus alone misses.
    """

    name = "morpheus"
    capabilities = BackendCapabilities(supports_la=True, supports_factorized=True)

    def __init__(self, catalog):
        super().__init__(catalog)
        self._normalized: Dict[str, NormalizedMatrix] = {}
        #: For each *auto*-registered normalized matrix (see
        #: :meth:`register_catalog_factors`), the identities of the three
        #: factor :class:`~repro.data.matrix.MatrixData` objects the
        #: snapshot was taken from.  Registrations replace those objects, so
        #: an identity change means the factors were re-materialized and the
        #: snapshot must refresh — while unrelated catalog activity leaves
        #: them untouched and costs nothing.  Manually registered matrices
        #: are caller-owned and never refreshed.
        self._auto_registered: Dict[str, Tuple] = {}
        #: Serializes registration: the service layer drives one shared
        #: backend instance from many executor threads.  Reentrant because
        #: :meth:`register_catalog_factors` registers while holding it.
        self._factors_lock = threading.RLock()

    def register(self, normalized: NormalizedMatrix) -> NormalizedMatrix:
        """Declare a catalog matrix name as being stored in factorized form."""
        with self._factors_lock:
            self._normalized[normalized.name] = normalized
        return normalized

    def normalized(self, name: str) -> Optional[NormalizedMatrix]:
        return self._normalized.get(name)

    def register_catalog_factors(self, expr: mx.Expr) -> List[str]:
        """Auto-register normalized matrices whose factors live in the catalog.

        For every matrix reference ``M`` in ``expr`` that is not yet declared
        normalized, looks for materialized ``M__S`` / ``M__K`` / ``M__R``
        factors — the naming convention under which
        :meth:`repro.hybrid.optimizer.HybridOptimizer.ensure_factor_matrices`
        stores them — and registers the factorized form when all three exist.
        An auto-registered snapshot is refreshed exactly when its factor
        matrices were re-materialized (their catalog entries replaced), so
        a base-table replacement is never served stale while unrelated
        catalog registrations cause no re-snapshotting; matrices registered
        manually via :meth:`register` are left untouched.  Returns the
        names newly (re-)registered.
        """
        registered: List[str] = []
        with self._factors_lock:
            for name in sorted(matrix_ref_names(expr)):
                stored = self._auto_registered.get(name)
                if name in self._normalized and stored is None:
                    continue
                names = factor_names(name)
                if not all(self.catalog.has_matrix_values(f) for f in names):
                    continue
                # A concurrent re-materialization can swap factor entries
                # between the three fetches; re-fetch until two consecutive
                # reads agree so the snapshot comes from one generation.
                sources = tuple(self.catalog.matrix(f) for f in names)
                for _ in range(3):
                    refetched = tuple(self.catalog.matrix(f) for f in names)
                    if all(a is b for a, b in zip(sources, refetched)):
                        break
                    sources = refetched
                if stored is not None and all(
                    a is b for a, b in zip(stored, sources)
                ):
                    continue
                s_data, k_data, r_data = sources
                self.register(
                    NormalizedMatrix(
                        name=name,
                        entity_part=to_dense(s_data.values),
                        indicator=sparse.csr_matrix(k_data.values),
                        attribute_part=to_dense(r_data.values),
                    )
                )
                self._auto_registered[name] = sources
                registered.append(name)
        return registered

    def execute_plan(self, result, use_rewritten: bool = True) -> EvaluationResult:
        """Execute a plan, first binding any catalog-stored factor matrices.

        This makes the backend routable by the service layer without manual
        :meth:`register` calls: a plan whose leaves have ``__S/__K/__R``
        factors in the catalog executes factorized automatically.  The
        returned ``seconds`` include the factor-binding work — it is part
        of the latency the caller actually paid for this execution.
        """
        bind_start = time.perf_counter()
        self.register_catalog_factors(result.best if use_rewritten else result.original)
        bind_seconds = time.perf_counter() - bind_start
        evaluation = super().execute_plan(result, use_rewritten=use_rewritten)
        return EvaluationResult(
            value=evaluation.value, seconds=evaluation.seconds + bind_seconds
        )

    # -- helpers ------------------------------------------------------------------
    def _as_normalized(self, expr: mx.Expr) -> Optional[NormalizedMatrix]:
        if isinstance(expr, mx.MatrixRef):
            return self._normalized.get(expr.name)
        return None

    def _is_normalized_transpose(self, expr: mx.Expr) -> Optional[NormalizedMatrix]:
        if isinstance(expr, mx.Transpose):
            return self._as_normalized(expr.child)
        return None

    # -- overridden evaluation ---------------------------------------------------------
    def evaluate(self, expr: mx.Expr) -> Value:
        if isinstance(expr, mx.MatrixRef):
            normalized = self._normalized.get(expr.name)
            if normalized is not None:
                return normalized.materialize()
            return super().evaluate(expr)

        if isinstance(expr, mx.MatMul):
            left_norm = self._as_normalized(expr.left)
            right_norm = self._as_normalized(expr.right)
            if left_norm is not None and right_norm is None:
                return left_norm.right_multiply(to_dense(self.evaluate(expr.right)))
            if right_norm is not None and left_norm is None:
                return right_norm.left_multiply(to_dense(self.evaluate(expr.left)))

        if isinstance(expr, mx.ColSums):
            normalized = self._as_normalized(expr.child)
            if normalized is not None:
                return normalized.col_sums()
            transposed = self._is_normalized_transpose(expr.child)
            if transposed is not None:
                return transposed.row_sums().T

        if isinstance(expr, mx.RowSums):
            normalized = self._as_normalized(expr.child)
            if normalized is not None:
                return normalized.row_sums()
            transposed = self._is_normalized_transpose(expr.child)
            if transposed is not None:
                return transposed.col_sums().T

        if isinstance(expr, mx.SumAll):
            normalized = self._as_normalized(expr.child)
            if normalized is None:
                normalized = self._is_normalized_transpose(expr.child)
            if normalized is not None:
                return normalized.total_sum()

        return super().evaluate(expr)
