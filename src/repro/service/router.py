"""Routing finished plans to execution backends.

HADAD hands its rewritings to an *unchanged* execution platform; in a
service setting somebody still has to decide which platform.  The
:class:`ExecutionRouter` owns one instance of every backend it was given
(by default the four substrates of :mod:`repro.backends` — ``numpy``,
``systemml_like``, ``morpheus`` and ``relational``) and, given a
:class:`~repro.core.result.RewriteResult`, orders them with one rule
(:meth:`ExecutionRouter.candidates`), then walks that list:

* each candidate's :meth:`~repro.backends.base.Backend.execute_plan` is
  invoked (binding catalog data and timing the run);
* a candidate failing with :class:`~repro.exceptions.ExecutionError`, or
  returning a poisoned value, is recorded and the router **falls back** to
  the next one;
* only when every candidate fails does the router raise.

The rule reads each backend's declared
:class:`~repro.backends.registry.BackendCapabilities` (``supports_la`` /
``supports_factorized``), never its name.  The relational engine, declaring
``supports_la=False``, is therefore never auto-selected for LA plans; it
participates via the hybrid path instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
from scipy import sparse

from repro.backends.base import EvaluationResult
from repro.backends.morpheus import factor_names
from repro.backends.registry import BackendRegistry, capabilities_of
from repro.core.result import RewriteResult
from repro.data.catalog import Catalog
from repro.exceptions import ExecutionError, ShapeError, UnknownMatrixError
from repro.lang.shapes import shape_of
from repro.lang.visitor import matrix_ref_names


@dataclass
class RoutedExecution:
    """Outcome of routing one plan: who ran it, the value, who failed first."""

    backend: str
    evaluation: EvaluationResult
    #: ``(backend name, error message)`` for every candidate tried and
    #: skipped before one succeeded.
    failures: List[tuple] = field(default_factory=list)


class ExecutionRouter:
    """Dispatches finished plans to backends along one fallback chain.

    ``backends`` maps names to instances, in registration order — the
    engine passes :meth:`~repro.backends.registry.BackendRegistry.create_all`
    of its registry; by default the stock substrates are built over
    ``catalog``.  ``preferred`` is the backend tried after any explicitly
    named or factorized one.
    """

    def __init__(
        self,
        catalog: Catalog,
        backends: Optional[Dict[str, object]] = None,
        preferred: str = "numpy",
    ):
        self.catalog = catalog
        if backends is None:
            backends = BackendRegistry.with_defaults().create_all(catalog)
        self.backends: Dict[str, object] = dict(backends)
        self.preferred = preferred

    def _wants_factorized(self, result: RewriteResult, backend) -> bool:
        normalized = getattr(backend, "normalized", None)
        for name in matrix_ref_names(result.best):
            if normalized is not None and normalized(name) is not None:
                return True
            if all(self.catalog.has_matrix_values(f) for f in factor_names(name)):
                return True
        return False

    def candidates(self, result: RewriteResult, backend: Optional[str] = None) -> List[str]:
        """The ordered backend names :meth:`execute` tries for ``result``.

        1. ``backend``, when the caller names one;
        2. a ``supports_factorized`` backend when the plan references a
           matrix registered as normalized, or one whose ``__S/__K/__R``
           factors are materialized in the catalog — factorized execution
           is the whole point of storing those;
        3. ``preferred``;
        4. every other ``supports_la`` backend, in registration order.
           Backends declaring ``supports_la=False`` (the relational engine)
           are never auto-selected; name one to route to it.
        """
        order: List[str] = []

        def add(name: Optional[str]) -> None:
            if name and name not in order:
                order.append(name)

        add(backend)
        for name, instance in self.backends.items():
            if capabilities_of(instance).supports_factorized and self._wants_factorized(
                result, instance
            ):
                add(name)
                break
        add(self.preferred)
        for name, instance in self.backends.items():
            if capabilities_of(instance).supports_la:
                add(name)
        return order

    def _poison_check(
        self, result: RewriteResult, evaluation: EvaluationResult
    ) -> Optional[str]:
        """Why ``evaluation`` must not be served, or ``None`` when it's sane.

        Two cheap invariants catch the silent-wrong-answer class of backend
        bugs: every cell must be finite (a NaN/inf anywhere poisons any
        downstream aggregate), and the value's shape must match the plan's
        statically inferred output shape.  Scalars are compared as the 1x1
        matrices the value helpers canonicalize them to (§3's degenerate-
        matrix convention).
        """
        value = evaluation.value
        if sparse.issparse(value):
            data = value.data
        else:
            data = np.asarray(value, dtype=np.float64)
        if data.size and not np.all(np.isfinite(data)):
            return "result is poisoned: contains non-finite values (NaN/inf)"
        try:
            expected = shape_of(result.best, self.catalog)
        except (ShapeError, UnknownMatrixError):
            return None
        if sparse.issparse(value):
            actual = tuple(value.shape)
        else:
            dense = np.asarray(value)
            if dense.ndim == 0:
                actual = (1, 1)
            elif dense.ndim == 1:
                actual = (dense.shape[0], 1)
            else:
                actual = tuple(dense.shape)
        if actual != tuple(expected):
            return (
                f"result is poisoned: shape {actual} does not match the "
                f"plan's inferred shape {tuple(expected)}"
            )
        return None

    def execute(self, result: RewriteResult, backend: Optional[str] = None) -> RoutedExecution:
        """Run ``result`` on the first candidate backend that can execute it.

        Each candidate failing with :class:`ExecutionError` (including
        unregistered names) is recorded and the next one is tried, as is
        any candidate returning a poisoned value (non-finite cells or a
        shape contradicting the plan's inferred output shape).  Raises
        :class:`ExecutionError` with the full failure log when no candidate
        succeeds.
        """
        candidates = self.candidates(result, backend)
        failures: List[tuple] = []
        for name in candidates:
            instance = self.backends.get(name)
            if instance is None:
                failures.append((name, "backend not registered"))
                continue
            try:
                evaluation = instance.execute_plan(result)
            except ExecutionError as exc:
                failures.append((name, str(exc)))
                continue
            poison = self._poison_check(result, evaluation)
            if poison is not None:
                failures.append((name, poison))
                continue
            return RoutedExecution(backend=name, evaluation=evaluation, failures=failures)
        raise ExecutionError(
            f"no backend could execute the plan (tried {candidates!r}): {failures!r}"
        )


__all__ = ["ExecutionRouter", "RoutedExecution"]
