"""A small relational engine over in-memory column tables.

This is the SparkSQL stand-in for the RA preprocessing stage of hybrid
queries: selection (conjunctive comparison / substring predicates),
projection, hash equi-join and the casts between tables and matrices.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.backends.numpy_backend import NumpyBackend
from repro.backends.registry import BackendCapabilities
from repro.data.catalog import Catalog
from repro.data.table import Table
from repro.exceptions import ExecutionError, TypeMismatchError
from repro.lang import relational_expr as rx


class RelationalEngine:
    """Evaluates :class:`~repro.lang.relational_expr.RelExpr` trees."""

    name = "relational"
    #: RA only: never a fallback candidate for LA plans (``execute_plan``
    #: refuses them); participates through the hybrid path instead.
    capabilities = BackendCapabilities(supports_la=False)

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._la_backend = NumpyBackend(catalog)

    # -- public API ----------------------------------------------------------------
    def execute_plan(self, result, use_rewritten: bool = True):
        """Refuse LA plans: this engine executes only the RA side of queries.

        The relational engine participates in the service layer through the
        hybrid path (builder materialization in
        :class:`repro.hybrid.executor.HybridExecutor`), not as a target for
        rewritten LA plans.  Raising :class:`ExecutionError` here lets the
        :class:`repro.service.ExecutionRouter` fall back to an LA backend
        when a request names this engine anyway.
        """
        raise ExecutionError(
            "the relational engine executes the RA part of hybrid queries; "
            "route LA plans to an LA backend (numpy / systemml_like / morpheus)"
        )

    def evaluate(self, expr: rx.RelExpr) -> Table:
        """Evaluate a relational expression to a :class:`Table`."""
        if isinstance(expr, rx.TableRef):
            return self.catalog.table(expr.name)
        if isinstance(expr, rx.Selection):
            return self._selection(expr)
        if isinstance(expr, rx.Projection):
            child = self.evaluate(expr.child)
            return child.select_columns(expr.columns)
        if isinstance(expr, rx.Join):
            return self._join(expr)
        if isinstance(expr, rx.MatrixToTable):
            value = self._la_backend.evaluate(expr.matrix)
            return Table.from_matrix("matrix_result", np.asarray(value), expr.columns)
        if isinstance(expr, rx.TableToMatrix):
            raise ExecutionError("use evaluate_to_matrix for TableToMatrix expressions")
        raise ExecutionError(f"unsupported relational operator {expr.op!r}")

    def evaluate_to_matrix(self, expr: rx.TableToMatrix) -> np.ndarray:
        """Evaluate a TableToMatrix node to a dense feature matrix."""
        table = self.evaluate(expr.child)
        return table.to_matrix(expr.columns)

    # -- operators ------------------------------------------------------------------
    def _selection(self, expr: rx.Selection) -> Table:
        table = self.evaluate(expr.child)
        mask = np.ones(table.n_rows, dtype=bool)
        for predicate in expr.predicates:
            mask &= self._predicate_mask(table, predicate)
        return table.take(np.nonzero(mask)[0])

    def _predicate_mask(self, table: Table, predicate: rx.Predicate) -> np.ndarray:
        column = table.column(predicate.column)
        if predicate.is_column_rhs:
            other = table.column(str(predicate.value))
            left, right = np.asarray(column), np.asarray(other)
        else:
            left, right = column, predicate.value
        comparator = predicate.comparator
        if comparator == "like":
            if isinstance(left, np.ndarray):
                raise TypeMismatchError("LIKE predicates require a string column")
            needle = str(right)
            return np.asarray([needle in str(value) for value in left], dtype=bool)
        if isinstance(left, list):
            left = np.asarray(left)
            right = np.asarray(right) if predicate.is_column_rhs else right
        ops = {
            "==": np.equal,
            "!=": np.not_equal,
            "<": np.less,
            "<=": np.less_equal,
            ">": np.greater,
            ">=": np.greater_equal,
        }
        return np.asarray(ops[comparator](left, right), dtype=bool)

    def _join(self, expr: rx.Join) -> Table:
        left = self.evaluate(expr.left)
        right = self.evaluate(expr.right)
        left_keys = np.asarray(left.column(expr.left_key))
        right_keys = np.asarray(right.column(expr.right_key))
        # Hash join: index the right side by key value.
        index: Dict[float, List[int]] = {}
        for position, key in enumerate(right_keys):
            index.setdefault(float(key), []).append(position)
        left_rows: List[int] = []
        right_rows: List[int] = []
        for position, key in enumerate(left_keys):
            for match in index.get(float(key), ()):
                left_rows.append(position)
                right_rows.append(match)
        left_result = left.take(left_rows)
        right_result = right.take(right_rows)
        columns = {}
        for name in left_result.columns:
            columns[name] = left_result.column(name)
        for name in right_result.columns:
            target = name if name not in columns else f"{name}_r"
            columns[target] = right_result.column(name)
        return Table(f"{left.name}_join_{right.name}", columns)
