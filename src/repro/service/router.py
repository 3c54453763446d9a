"""Routing finished plans to execution backends.

HADAD hands its rewritings to an *unchanged* execution platform; in a
service setting somebody still has to decide which platform.  The
:class:`ExecutionRouter` owns one instance of every registered backend
(by default the four substrates of :mod:`repro.backends` — ``numpy``,
``systemml_like``, ``morpheus`` and ``relational``) and, given a
:class:`~repro.core.result.RewriteResult`, asks a pluggable
:class:`RoutingPolicy` for an ordered candidate list, then walks it:

* each candidate's :meth:`~repro.backends.base.Backend.execute_plan` is
  invoked (binding catalog data and timing the run);
* a candidate failing with :class:`~repro.exceptions.ExecutionError` is
  recorded and the router **falls back** to the next one;
* only when every candidate fails does the router raise.

The default :class:`DefaultPolicy` honours an explicit per-request backend
first, prefers factorized execution when the plan touches a matrix whose
``__S/__K/__R`` factors are materialized, and otherwise uses the preferred
substrate, keeping the remaining LA-capable backends as fallbacks.  Which
backends exist — and which may serve as fallbacks — is **declared, not
hardcoded**: instances come from a capability-declaring
:class:`~repro.backends.registry.BackendRegistry`, and the policy consults
:class:`~repro.backends.registry.BackendCapabilities` (``supports_la`` /
``supports_ra`` / ``supports_factorized``) instead of backend names.  The
relational engine, declaring ``supports_la=False``, is therefore never
auto-selected for LA plans; it participates via the hybrid path instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy import sparse

from repro.backends.base import EvaluationResult
from repro.backends.morpheus import factor_names
from repro.backends.registry import BackendCapabilities, BackendRegistry, capabilities_of
from repro.core.result import RewriteResult
from repro.data.catalog import Catalog
from repro.exceptions import ExecutionError, ShapeError, UnknownMatrixError
from repro.lang.shapes import shape_of
from repro.lang.visitor import matrix_ref_names

class RoutingPolicy:
    """Strategy deciding, per plan, the ordered backends to try."""

    def candidates(
        self,
        result: RewriteResult,
        request=None,
        backends: Optional[Dict[str, object]] = None,
    ) -> Sequence[str]:
        """Ordered backend names; the router falls back along this list."""
        raise NotImplementedError


class StaticPolicy(RoutingPolicy):
    """A fixed preference order, regardless of plan or request."""

    def __init__(self, order: Sequence[str]):
        self.order = tuple(order)

    def candidates(self, result, request=None, backends=None) -> Sequence[str]:
        return list(self.order)


class DefaultPolicy(RoutingPolicy):
    """Request preference, then factorized execution, then ``preferred``.

    Order produced:

    1. the request's explicitly declared backend, if any;
    2. a ``supports_factorized`` backend when the plan references a matrix
       that is registered as normalized (or whose ``__S/__K/__R`` factors
       are materialized in the catalog) — factorized execution is the
       whole point of storing those;
    3. ``preferred`` (the as-stated NumPy substrate by default);
    4. every other registered ``supports_la`` backend as a fallback.
       Backends declaring ``supports_la=False`` (the relational engine)
       are excluded from automatic fallback because they refuse LA plans;
       name one explicitly on the request to route to it.

    Capabilities come from each backend instance's declaration
    (:func:`repro.backends.registry.capabilities_of`), so the policy works
    for any registered substrate without naming it.
    """

    def __init__(self, preferred: str = "numpy"):
        self.preferred = preferred

    @staticmethod
    def _wants_factorized(result: RewriteResult, backend, catalog) -> bool:
        normalized = getattr(backend, "normalized", None)
        for name in matrix_ref_names(result.best):
            if normalized is not None and normalized(name) is not None:
                return True
            if catalog is not None and all(
                catalog.has_matrix_values(f) for f in factor_names(name)
            ):
                return True
        return False

    def candidates(self, result, request=None, backends=None) -> Sequence[str]:
        backends = backends or {}
        order: List[str] = []

        def add(name: Optional[str]) -> None:
            if name and name not in order:
                order.append(name)

        add(getattr(request, "backend", None))
        for name, backend in backends.items():
            if not capabilities_of(backend).supports_factorized:
                continue
            catalog = getattr(backend, "catalog", None)
            if self._wants_factorized(result, backend, catalog):
                add(name)
                break
        add(self.preferred)
        for name, backend in backends.items():
            if capabilities_of(backend).supports_la:
                add(name)
        return order


@dataclass
class RoutedExecution:
    """Outcome of routing one plan: who ran it, the value, who failed first."""

    backend: str
    evaluation: EvaluationResult
    #: ``(backend name, error message)`` for every candidate tried and
    #: skipped before one succeeded.
    failures: List[tuple] = field(default_factory=list)


class ExecutionRouter:
    """Dispatches finished plans to backends along a policy's fallback chain.

    Backend instances come from a capability-declaring
    :class:`~repro.backends.registry.BackendRegistry` (the stock registry
    by default); ``backend_names`` — typically
    :attr:`repro.config.EngineConfig.backends` — selects which registered
    substrates to instantiate.  A plain ``backends`` mapping of pre-built
    instances is still accepted for tests and custom wiring.
    """

    def __init__(
        self,
        catalog: Catalog,
        backends: Optional[Dict[str, object]] = None,
        policy: Optional[RoutingPolicy] = None,
        registry: Optional[BackendRegistry] = None,
        backend_names: Optional[Sequence[str]] = None,
        validate_results: bool = True,
    ):
        self.catalog = catalog
        self.registry = registry if registry is not None else BackendRegistry.with_defaults()
        if backends is not None:
            self.backends: Dict[str, object] = dict(backends)
        else:
            self.backends = self.registry.create_all(catalog, names=backend_names)
        self.policy = policy if policy is not None else DefaultPolicy()
        #: Reject poisoned results (non-finite values, wrong output shape)
        #: as backend failures instead of returning them as answers.
        self.validate_results = validate_results

    def register(self, name: str, backend) -> None:
        """Add (or replace) a backend instance under ``name``."""
        self.backends[name] = backend

    def capabilities(self, name: str) -> BackendCapabilities:
        """The capability declaration of the instance registered as ``name``."""
        return capabilities_of(self.backends[name])

    def _poison_check(
        self, result: RewriteResult, evaluation: EvaluationResult, use_rewritten: bool
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
        expr = result.best if use_rewritten else result.original
        try:
            expected = shape_of(expr, self.catalog)
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

    def execute(
        self,
        result: RewriteResult,
        request=None,
        use_rewritten: bool = True,
    ) -> RoutedExecution:
        """Run ``result`` on the first candidate backend that can execute it.

        Candidates come from the policy; each failure with
        :class:`ExecutionError` (including unregistered names) is recorded
        and the next candidate is tried, as is any candidate returning a
        poisoned value (non-finite cells or a shape contradicting the
        plan's inferred output shape) when ``validate_results`` is on.
        Raises :class:`ExecutionError` with the full failure log when no
        candidate succeeds.
        """
        candidates = list(self.policy.candidates(result, request, self.backends))
        failures: List[tuple] = []
        for name in candidates:
            backend = self.backends.get(name)
            if backend is None:
                failures.append((name, "backend not registered"))
                continue
            try:
                evaluation = backend.execute_plan(result, use_rewritten=use_rewritten)
            except ExecutionError as exc:
                failures.append((name, str(exc)))
                continue
            if self.validate_results:
                poison = self._poison_check(result, evaluation, use_rewritten)
                if poison is not None:
                    failures.append((name, poison))
                    continue
            return RoutedExecution(backend=name, evaluation=evaluation, failures=failures)
        raise ExecutionError(
            f"no backend could execute the plan (tried {candidates!r}): {failures!r}"
        )


__all__ = [
    "DefaultPolicy",
    "ExecutionRouter",
    "RoutedExecution",
    "RoutingPolicy",
    "StaticPolicy",
]
