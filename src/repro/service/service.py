"""The analytics service: a concurrent optimize-and-execute front door.

:class:`AnalyticsService` closes the plan→execute gap: requests go in as
expressions (or :class:`ServiceRequest` objects), plans come from a
:class:`~repro.service.pool.PlanSessionPool`, execution goes through an
:class:`~repro.service.router.ExecutionRouter`, and every answer is a
:class:`ServiceResult` carrying the plan, the value and per-phase timings
(queue / plan / execute) — the shape a latency dashboard wants.

Batching (:meth:`AnalyticsService.submit_many`) dedupes requests by
expression fingerprint *before* fanning out to the worker threads: of k
structurally identical requests only one occupies a planner; the other k-1
reuse its plan (marked ``cache_hit=True``), exactly mirroring the serial
semantics of :meth:`PlanSession.rewrite_all` — concurrent batch plans are
byte-identical to serial ones.

Hybrid queries (:meth:`AnalyticsService.submit_hybrid`) ride through the
same service: the hybrid executor materializes the RA side as stated, and
the hybrid optimizer rewrites the LA side under the pool's planner options,
with planning time folded into the result's end-to-end latency.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.backends.base import Value
from repro.config import ServiceConfig
from repro.constraints.views import LAView
from repro.core.result import RewriteResult
from repro.data.catalog import Catalog
from repro.exceptions import ExecutionError
from repro.lang import matrix_expr as mx
from repro.service.pool import PlanSessionPool
from repro.service.router import ExecutionRouter


@dataclass
class ServiceRequest:
    """One unit of work for the service.

    Attributes
    ----------
    expression:
        The LA pipeline to optimize (and, with ``execute=True``, run).
    name:
        Optional caller-side label, echoed back on the result.
    backend:
        Optional explicit backend name; the router puts it first in the
        candidate order (still subject to fallback on failure).
    execute:
        When False the request is plan-only: the service returns the
        rewriting and timings but never touches backend kernels.
    workspace:
        Optional tenant-workspace name.  Routing happens *above* this
        layer — the multi-workspace :class:`repro.api.Engine` and the
        gateway dispatch each request to the named workspace's service —
        so by the time a request reaches one ``AnalyticsService`` the field
        is an identity tag (echoed on results, used in metrics labels),
        not a dispatch instruction.  ``None`` means the default workspace.
    """

    expression: mx.Expr
    name: str = ""
    backend: Optional[str] = None
    execute: bool = True
    workspace: Optional[str] = None


@dataclass
class ServiceResult:
    """Answer to one request: the plan, the value, and per-phase timings.

    Timing semantics
    ----------------
    * ``queue_seconds``   — time between submission and a worker picking the
      request up (0.0 for direct :meth:`AnalyticsService.submit` calls;
      batched fingerprint-duplicates share their group's queue time, since
      they waited exactly as long as the request that planned for them);
    * ``plan_seconds``    — wall-clock time inside the planning phase for
      the request that actually planned; fingerprint-duplicates served from
      a leader's plan report 0.0 here and ``cache_hit=True`` on ``rewrite``;
    * ``execute_seconds`` — backend execution time of the routed plan (the
      paper's RW_exec), 0.0 for plan-only requests;
    * ``total_seconds``   — their sum: the end-to-end latency the caller saw.
    """

    request: ServiceRequest
    rewrite: RewriteResult
    backend: Optional[str] = None
    value: Optional[Value] = None
    queue_seconds: float = 0.0
    plan_seconds: float = 0.0
    execute_seconds: float = 0.0
    #: ``(backend name, error)`` per candidate that failed before fallback
    #: succeeded (empty when the first candidate executed the plan).
    failures: List[tuple] = field(default_factory=list)
    #: Filled by :meth:`AnalyticsService.submit_hybrid` with the
    #: :class:`~repro.hybrid.executor.HybridExecutionResult` breakdown.
    hybrid: Optional[object] = None

    @property
    def total_seconds(self) -> float:
        return self.queue_seconds + self.plan_seconds + self.execute_seconds

    @property
    def ok(self) -> bool:
        """True unless planning or every candidate backend failed.

        A request that *executed* after backend fallback is still ok: the
        skipped candidates remain visible in ``failures``, but a routed
        ``backend`` means a value was produced.
        """
        if any(who == "planner" for who, _ in self.failures):
            return False
        return self.backend is not None or not self.failures


@dataclass
class BatchStats:
    """What one :meth:`AnalyticsService.submit_many` call did, for observers.

    Batch hooks (:meth:`AnalyticsService.add_batch_hook`) receive one of
    these per batch — the gateway uses them to feed its metrics registry
    without wrapping every call site.
    """

    size: int
    distinct_fingerprints: int
    cache_hits: int
    plan_failures: int
    execute_failures: int
    seconds: float

    def as_dict(self) -> dict:
        return {
            "size": self.size,
            "distinct_fingerprints": self.distinct_fingerprints,
            "cache_hits": self.cache_hits,
            "plan_failures": self.plan_failures,
            "execute_failures": self.execute_failures,
            "seconds": self.seconds,
        }


BatchHook = Callable[[BatchStats], None]

RequestLike = Union[ServiceRequest, mx.Expr, Tuple[str, mx.Expr]]


class AnalyticsService:
    """Concurrent plan-and-execute service over one catalog.

    Built by :class:`repro.api.Engine`, one per workspace
    (``engine.service`` / ``engine.workspace(name).service``); tests that
    need a custom pool or router build those two objects and pass them.

    Parameters
    ----------
    catalog:
        The shared catalog backing planning metadata and execution values.
    views:
        Materialized LA views the hybrid path plans with (the pooled
        sessions carry their own copy).
    pool:
        The :class:`PlanSessionPool` every request plans through.
    router:
        The :class:`ExecutionRouter` finished plans execute through.
    config:
        The frozen :class:`~repro.config.ServiceConfig`
        (``plan_workers`` is the default ``submit_many`` width).
    workspace:
        Workspace identity of this service (``""`` outside an engine).
    """

    def __init__(
        self,
        catalog: Catalog,
        views: Sequence[LAView] = (),
        *,
        pool: PlanSessionPool,
        router: ExecutionRouter,
        config: ServiceConfig,
        workspace: str = "",
    ):
        self.catalog = catalog
        self.views = list(views)
        self.config = config
        self.workspace = str(workspace)
        self.pool = pool
        self.router = router
        #: Observers called with a :class:`BatchStats` after every
        #: :meth:`submit_many`; an error a hook raises never fails the batch
        #: (observability must not), it is counted in
        #: :attr:`batch_hook_failures` instead.
        self._batch_hooks: List[BatchHook] = []
        self.batch_hook_failures = 0
        self._hook_failures_lock = threading.Lock()
        self._hybrid_optimizer = None
        self._hybrid_executor = None
        #: Hybrid requests are serialized: the executor registers builder
        #: matrices in the shared catalog, and the hybrid optimizer fills
        #: its per-factor-set session dict and factor version unguarded.
        self._hybrid_lock = threading.Lock()
        #: Catalog version at which builder matrices were last materialized;
        #: while it matches, repeated hybrid queries skip the RA rebuild so
        #: they never bump the catalog version — a bump would needlessly
        #: move every shared plan's key, so each would miss and replan.
        self._hybrid_builders_version: Optional[int] = None

    # ------------------------------------------------------------------ requests
    @staticmethod
    def as_request(item: RequestLike) -> ServiceRequest:
        """Coerce an expression / ``(name, expr)`` pair / request to a request."""
        if isinstance(item, ServiceRequest):
            return item
        if isinstance(item, mx.Expr):
            return ServiceRequest(expression=item)
        if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], mx.Expr):
            return ServiceRequest(expression=item[1], name=str(item[0]))
        raise TypeError(f"cannot build a ServiceRequest from {item!r}")

    # ------------------------------------------------------------------ single
    def submit(self, item: RequestLike) -> ServiceResult:
        """Plan (and execute, unless the request opts out) one request."""
        request = self.as_request(item)
        started = time.perf_counter()
        rewrite = self.pool.plan(request.expression)
        result = ServiceResult(
            request=request,
            rewrite=rewrite,
            plan_seconds=time.perf_counter() - started,
        )
        if request.execute:
            self._execute_into(result)
        return result

    def _execute_into(
        self, result: ServiceResult, raise_on_failure: bool = True
    ) -> ServiceResult:
        try:
            routed = self.router.execute(result.rewrite, result.request.backend)
        except ExecutionError as exc:
            # Batch mode isolates failures: the failing request's result
            # keeps value=None and carries the error, instead of one bad
            # request discarding every other completed result.
            if raise_on_failure:
                raise
            result.failures.append(("router", str(exc)))
            return result
        result.backend = routed.backend
        result.value = routed.evaluation.value
        result.execute_seconds = routed.evaluation.seconds
        result.failures = list(routed.failures)
        return result

    # ------------------------------------------------------------------ batch
    def submit_many(
        self, items: Iterable[RequestLike], workers: Optional[int] = None
    ) -> List[ServiceResult]:
        """Plan a batch concurrently, each distinct fingerprint exactly once.

        Requests are grouped by expression fingerprint *before* fan-out, so
        duplicates never occupy a planner: the group's first request plans
        (through the pool, which also single-flights across groups sharing
        a cache key) and the rest reuse its plan as ``cache_hit`` copies
        with ``plan_seconds=0.0``.  Planning and execution are pipelined —
        a group starts executing as soon as *its* plan lands, never waiting
        for the batch's slowest plan.  Results come back in input order,
        and the plans are byte-identical to a serial
        :meth:`PlanSession.rewrite_all` over the same batch.

        Failures are isolated per request, for planning and execution both:
        a request whose expression cannot be planned (or whose every
        candidate backend failed) comes back with ``value=None``, ``ok``
        False and the error in ``failures``, without aborting the rest of
        the batch (direct :meth:`submit` calls raise instead).  This is
        what makes the batch entry point safe for servers: one poisoned
        request in a batch must cost exactly one error response.
        """
        if workers is None:
            workers = self.config.plan_workers
        requests = [self.as_request(item) for item in items]
        if not requests:
            return []
        enqueued = time.perf_counter()
        groups: Dict[str, List[int]] = {}
        for index, request in enumerate(requests):
            groups.setdefault(request.expression.fingerprint(), []).append(index)

        results: List[Optional[ServiceResult]] = [None] * len(requests)
        with ThreadPoolExecutor(max_workers=max(1, int(workers))) as executor:

            def run_group(indices: List[int]) -> List:
                expression = requests[indices[0]].expression
                try:
                    rewrite, queue_seconds, plan_seconds = self._plan_timed(
                        expression, enqueued
                    )
                    plan_error = None
                except Exception as exc:  # planner errors are per-request data
                    rewrite = RewriteResult.as_stated(expression)
                    queue_seconds = time.perf_counter() - enqueued
                    plan_seconds = 0.0
                    plan_error = f"{type(exc).__name__}: {exc}"
                executions = []
                for position, index in enumerate(indices):
                    leader = position == 0
                    # Duplicates zero their rewrite_seconds like every other
                    # cache-hit layer, so summing RW_find over a batch never
                    # double-counts the leader's planning cost.
                    result = ServiceResult(
                        request=requests[index],
                        rewrite=rewrite
                        if leader
                        else rewrite.copy(cache_hit=True, rewrite_seconds=0.0),
                        queue_seconds=queue_seconds,
                        plan_seconds=plan_seconds if leader else 0.0,
                    )
                    results[index] = result
                    if plan_error is not None:
                        result.failures.append(("planner", plan_error))
                        continue
                    if result.request.execute:
                        # Submitted from inside the worker so execution can
                        # overlap groups still planning; the main thread
                        # joins these after the group futures.
                        executions.append(
                            executor.submit(
                                self._execute_into, result, raise_on_failure=False
                            )
                        )
                return executions

            group_futures = [
                executor.submit(run_group, indices) for indices in groups.values()
            ]
            for future in group_futures:
                for execution in future.result():
                    execution.result()
        completed = [result for result in results if result is not None]
        self._notify_batch_hooks(completed, time.perf_counter() - enqueued, len(groups))
        return completed

    # ------------------------------------------------------------------ hooks
    def add_batch_hook(self, hook: BatchHook) -> BatchHook:
        """Register an observer called with a :class:`BatchStats` per batch."""
        self._batch_hooks.append(hook)
        return hook

    def remove_batch_hook(self, hook: BatchHook) -> None:
        self._batch_hooks.remove(hook)

    def _notify_batch_hooks(
        self, results: List[ServiceResult], seconds: float, distinct: int
    ) -> None:
        if not self._batch_hooks:
            return
        stats = BatchStats(
            size=len(results),
            distinct_fingerprints=distinct,
            cache_hits=sum(1 for result in results if result.rewrite.cache_hit),
            plan_failures=sum(
                1
                for result in results
                if any(who == "planner" for who, _ in result.failures)
            ),
            execute_failures=sum(
                1
                for result in results
                if result.failures
                and not any(who == "planner" for who, _ in result.failures)
            ),
            seconds=seconds,
        )
        for hook in list(self._batch_hooks):
            try:
                hook(stats)
            except Exception:
                with self._hook_failures_lock:
                    self.batch_hook_failures += 1

    def _plan_timed(
        self, expr: mx.Expr, enqueued: float
    ) -> Tuple[RewriteResult, float, float]:
        started = time.perf_counter()
        rewrite = self.pool.plan(expr)
        return rewrite, started - enqueued, time.perf_counter() - started

    # ------------------------------------------------------------------ hybrid
    def _ensure_hybrid(self):
        from repro.hybrid.executor import HybridExecutor
        from repro.hybrid.optimizer import HybridOptimizer

        if self._hybrid_optimizer is None:
            # Hybrid sessions plan under the pool's options and estimator,
            # as every LA request of this service does.
            self._hybrid_optimizer = HybridOptimizer(
                self.catalog,
                la_views=self.views,
                config=self.pool.planner_config,
                estimator=self.pool.estimator,
            )
        if self._hybrid_executor is None:
            la_backend = self.router.backends.get("numpy")
            self._hybrid_executor = HybridExecutor(self.catalog, la_backend=la_backend)
        return self._hybrid_optimizer, self._hybrid_executor

    def submit_hybrid(self, query, execute: bool = True) -> ServiceResult:
        """Route a :class:`~repro.hybrid.query.HybridQuery` through the service.

        The hybrid optimizer rewrites the LA analysis (reusing its
        long-lived plan sessions across calls), then the hybrid executor
        materializes the builders as stated and runs the optimized
        analysis.  Planning time is reported both as ``plan_seconds`` on
        the returned :class:`ServiceResult` and inside the attached
        :class:`~repro.hybrid.executor.HybridExecutionResult`, whose
        ``total_seconds`` therefore covers plan + RA + LA.

        Safe to call from multiple threads; unlike the pooled LA path,
        hybrid requests are serialized on one lock.  The sessions need no
        lock; catalog registration (builders, Morpheus factors) and the
        hybrid optimizer's session dict and factor version do.
        """
        with self._hybrid_lock:
            optimizer, executor = self._ensure_hybrid()
            # Builders are materialized *before* the rewrite, and only when
            # the catalog changed since they were last built (or an output
            # is missing).  Ordering matters: every catalog registration
            # (builders here, Morpheus factors inside the rewrite) happens
            # before the optimizer records its settled catalog version, so
            # a repeated query bumps nothing — a bump would needlessly
            # evict every pooled LA session and shared plan.
            ra_seconds = 0.0
            if execute and not (
                self.catalog.version == self._hybrid_builders_version
                and all(
                    self.catalog.has_matrix_values(builder.name)
                    for builder in query.builders
                )
            ):
                ra_start = time.perf_counter()
                for builder in query.builders:
                    executor.build_matrix(builder)
                ra_seconds = time.perf_counter() - ra_start
            started = time.perf_counter()
            rewritten = optimizer.rewrite(query)
            plan_seconds = time.perf_counter() - started
            result = ServiceResult(
                request=ServiceRequest(
                    expression=query.analysis, name=query.name, execute=execute
                ),
                rewrite=rewritten.la_result,
                plan_seconds=plan_seconds,
            )
            if execute:
                # The same measured value feeds both results: ServiceResult
                # and the attached HybridExecutionResult must report one
                # consistent end-to-end latency for this request.
                hybrid = executor.execute(
                    query,
                    analysis_override=rewritten.optimized_analysis,
                    skip_builders=True,
                    plan_seconds=plan_seconds,
                )
                hybrid.ra_seconds = ra_seconds
                self._hybrid_builders_version = self.catalog.version
                result.hybrid = hybrid
                result.value = hybrid.value
                result.backend = getattr(executor.la_backend, "name", "numpy")
                result.execute_seconds = hybrid.ra_seconds + hybrid.la_seconds
        return result


__all__ = [
    "AnalyticsService",
    "BatchHook",
    "BatchStats",
    "ServiceRequest",
    "ServiceResult",
]
