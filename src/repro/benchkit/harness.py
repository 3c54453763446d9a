"""Benchmark harness: original vs rewritten execution of pipelines.

For one pipeline the harness reports the quantities the paper plots:

* ``q_exec``   — execution time of the pipeline as stated,
* ``rw_find``  — HADAD's rewriting time (optimization overhead),
* ``rw_exec``  — execution time of the chosen rewriting,
* ``speedup``  — q_exec / rw_exec,
* ``overhead`` — rw_find / (q_exec + rw_find) (§9.1.3),

plus the estimated costs and a numerical-equivalence check of the two
results (soundness in practice, not just on paper).

The ``optimizer`` argument of :func:`run_pipeline` is anything exposing the
``rewrite`` protocol — a :class:`repro.api.Engine` or a
:class:`~repro.planner.PlanSession`.  For sweeps over many pipelines (the
Fig. 5–12 loops), :func:`run_pipelines` plans the whole batch through
``rewrite_all`` so structurally identical pipelines are planned once and
repeated runs hit the session cache.

Beyond the per-pipeline measurements, :func:`run_service_sweep` benchmarks
the whole serving path end to end: the pipeline batch goes through
:meth:`repro.api.Engine.submit_many` at several worker
counts, reporting latency/throughput per concurrency level, per-phase
(queue / plan / execute) means, pool counters, and — against a serial
``rewrite_all`` reference — whether the concurrent plans are byte-identical
to the serial ones.  :func:`run_gateway_sweep` goes one layer further out
and load-tests the network gateway (:mod:`repro.server`) with N concurrent
asyncio clients over a (batch window × concurrency) grid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import fmean
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.backends.base import values_allclose
from repro.backends.numpy_backend import NumpyBackend
from repro.constraints.views import LAView
from repro.core.result import RewriteResult
from repro.data.catalog import Catalog
from repro.data.matrix import MatrixData
from repro.lang import matrix_expr as mx


@dataclass
class PipelineRun:
    """Measurements for one pipeline on one backend."""

    name: str
    q_exec: float
    rw_find: float
    rw_exec: float
    original_cost: float
    best_cost: float
    changed: bool
    equivalent: Optional[bool]
    rewrite: str
    used_views: List[str] = field(default_factory=list)
    cache_hit: bool = False
    stage_timings: Dict[str, float] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.rw_exec <= 0:
            return float("inf")
        return self.q_exec / self.rw_exec

    @property
    def overhead(self) -> float:
        denominator = self.q_exec + self.rw_find
        return self.rw_find / denominator if denominator > 0 else 0.0

    def as_row(self) -> str:
        """One formatted report line (the shape of the paper's figures)."""
        equiv = "=" if self.equivalent else ("?" if self.equivalent is None else "!")
        return (
            f"{self.name:8s} Qexec={self.q_exec * 1000:9.2f}ms "
            f"RWfind={self.rw_find * 1000:7.2f}ms RWexec={self.rw_exec * 1000:9.2f}ms "
            f"speedup={self.speedup:7.2f}x overhead={self.overhead * 100:5.2f}% {equiv} "
            f"{self.rewrite}"
        )


def materialize_views(views: Sequence[LAView], catalog: Catalog, backend=None) -> None:
    """Compute and register the stored results of materialized views.

    This is the offline step the paper performs when it materializes V_exp
    on disk: each view definition is evaluated once and the result is
    registered in the catalog under the view's storage name, so rewritten
    pipelines can scan it.
    """
    backend = backend if backend is not None else NumpyBackend(catalog)
    for view in views:
        if catalog.has_matrix_values(view.name):
            continue
        value = backend.evaluate(view.definition)
        if hasattr(value, "shape") and getattr(value, "ndim", 2) >= 1:
            data = MatrixData.from_dense(view.name, value) if not hasattr(value, "tocsr") else MatrixData.from_sparse(view.name, value)
        else:
            data = MatrixData.from_dense(view.name, [[float(value)]])
        catalog.drop_matrix(view.name)
        catalog.register_matrix(data)


def _execute_run(
    name: str,
    expr: mx.Expr,
    result: RewriteResult,
    backend,
    check_equivalence: bool,
    execute: bool,
) -> PipelineRun:
    """Turn one rewrite result into a measured :class:`PipelineRun`."""
    q_exec = rw_exec = 0.0
    equivalent: Optional[bool] = None
    if execute:
        original_run = backend.timed(expr)
        rewritten_run = backend.timed(result.best) if result.changed else original_run
        q_exec, rw_exec = original_run.seconds, rewritten_run.seconds
        if check_equivalence and result.changed:
            equivalent = values_allclose(original_run.value, rewritten_run.value, rtol=1e-4, atol=1e-5)
        elif not result.changed:
            equivalent = True
    return PipelineRun(
        name=name,
        q_exec=q_exec,
        rw_find=result.rewrite_seconds,
        rw_exec=rw_exec,
        original_cost=result.original_cost,
        best_cost=result.best_cost,
        changed=result.changed,
        equivalent=equivalent,
        rewrite=result.best.to_string(),
        used_views=result.used_views,
        cache_hit=result.cache_hit,
        stage_timings=dict(result.stage_timings),
    )


def run_pipeline(
    name: str,
    expr: mx.Expr,
    optimizer,
    backend,
    check_equivalence: bool = True,
    execute: bool = True,
) -> PipelineRun:
    """Optimize and (optionally) execute one pipeline, original vs rewrite.

    ``optimizer`` is anything with a ``rewrite(expr)`` method — a
    :class:`repro.api.Engine` or a :class:`~repro.planner.PlanSession`.
    """
    result: RewriteResult = optimizer.rewrite(expr)
    return _execute_run(name, expr, result, backend, check_equivalence, execute)


def run_pipelines(
    pipelines: Sequence[Tuple[str, mx.Expr]],
    optimizer,
    backend,
    check_equivalence: bool = True,
    execute: bool = True,
) -> List[PipelineRun]:
    """Optimize a whole sweep as one batch, then execute pipeline by pipeline.

    Planning goes through ``rewrite_all``, so structurally identical
    pipelines are planned exactly once (fingerprint deduplication) and — on a
    cache-enabled :class:`~repro.planner.PlanSession` — repeated sweeps reuse
    earlier plans entirely.
    """
    pipelines = list(pipelines)  # tolerate one-shot iterables (zip, generators)
    results = optimizer.rewrite_all([expr for _, expr in pipelines])
    return [
        _execute_run(name, expr, result, backend, check_equivalence, execute)
        for (name, expr), result in zip(pipelines, results)
    ]


def run_service_sweep(
    pipelines: Sequence[Tuple[str, mx.Expr]],
    engine_factory: Callable[[], "object"],
    worker_counts: Sequence[int] = (1, 2, 4, 8),
    execute: bool = False,
    session_factory: Optional[Callable[[], "object"]] = None,
) -> dict:
    """End-to-end service benchmark: a concurrency sweep over one batch.

    For each worker count a *fresh* engine (cold pool and caches, so the
    points are comparable) plans — and with ``execute=True`` also runs —
    the whole batch through ``submit_many``.  When ``session_factory`` is
    given (anything whose product has ``rewrite_all``), the batch is also
    planned serially once and each sweep point records
    ``byte_identical_to_serial``: whether every concurrent plan's decoded
    expression string equals the serial one.  Returns a JSON-ready summary.
    """
    from repro.service import ServiceRequest

    pipelines = list(pipelines)
    serial_plans: Optional[List[str]] = None
    serial_seconds: Optional[float] = None
    if session_factory is not None:
        session = session_factory()
        start = time.perf_counter()
        serial_results = session.rewrite_all([expr for _, expr in pipelines])
        serial_seconds = time.perf_counter() - start
        serial_plans = [result.best.to_string() for result in serial_results]

    sweep: List[dict] = []
    for workers in worker_counts:
        engine = engine_factory()
        requests = [
            ServiceRequest(expression=expr, name=name, execute=execute)
            for name, expr in pipelines
        ]
        start = time.perf_counter()
        results = engine.submit_many(requests, workers=workers)
        seconds = time.perf_counter() - start
        def mean(values: List[float]) -> float:
            return fmean(values) if values else 0.0

        point = {
            "workers": int(workers),
            "seconds": seconds,
            "requests_per_sec": len(requests) / seconds if seconds > 0 else float("inf"),
            "mean_queue_seconds": mean([r.queue_seconds for r in results]),
            "mean_plan_seconds": mean([r.plan_seconds for r in results]),
            "mean_execute_seconds": mean([r.execute_seconds for r in results]),
            "pool": engine.pool.stats_dict(),
        }
        if serial_plans is not None:
            point["byte_identical_to_serial"] = (
                [r.rewrite.best.to_string() for r in results] == serial_plans
            )
        sweep.append(point)

    return {
        "benchmark": "service_concurrency_sweep",
        "pipelines": [name for name, _ in pipelines],
        "execute": execute,
        "serial_seconds": serial_seconds,
        "sweep": sweep,
    }


def run_gateway_sweep(
    pipelines: Sequence[Tuple[str, mx.Expr]],
    engine_factory: Callable[[], "object"],
    concurrency_levels: Sequence[int] = (8, 64, 200),
    batch_windows: Sequence[float] = (0.01,),
    requests_per_client: int = 2,
    execute: bool = False,
    max_in_flight: Optional[int] = None,
    session_factory: Optional[Callable[[], "object"]] = None,
    host: str = "127.0.0.1",
) -> dict:
    """Load-sweep the asyncio gateway: N concurrent clients per grid point.

    For every ``(batch_window, concurrency)`` pair a *fresh* engine (from
    ``engine_factory``: cold pool and caches) serves a fresh gateway on an
    ephemeral port.
    ``concurrency`` client connections open simultaneously; each sends its
    ``requests_per_client`` requests back to back (round-robin over the
    pipeline batch), so the first wave puts the full client count in flight
    at once — the point records the peak in-flight gauge, micro-batch
    shape, rejections and throughput.  With a ``session_factory`` the same
    batch is also planned serially once and every point records whether the
    gateway's plans were byte-identical to the serial reference.

    Everything here is stdlib asyncio; the function itself is synchronous
    (it owns its event loop via ``asyncio.run``) so benchmarks and CI call
    it like any other harness entry point.
    """
    import asyncio

    from repro.server import GatewayClient, GatewayError

    pipelines = list(pipelines)
    serial_plans: Optional[Dict[str, str]] = None
    if session_factory is not None:
        session = session_factory()
        serial_results = session.rewrite_all([expr for _, expr in pipelines])
        serial_plans = {
            name: result.best.to_string()
            for (name, _), result in zip(pipelines, serial_results)
        }

    async def run_point(window: float, concurrency: int) -> dict:
        engine = engine_factory()
        gateway = engine.build_gateway(
            host=host,
            batch_window_seconds=window,
            max_batch=max(2, concurrency),
            max_in_flight=max_in_flight
            if max_in_flight is not None
            else max(concurrency * 2, 64),
        )
        await gateway.start()
        rejected = 0
        mismatched: List[str] = []

        # Connections open *before* the clock starts: the point measures how
        # the gateway absorbs a simultaneous request wave, not how fast the
        # kernel's accept queue drains a connect storm.
        clients = await asyncio.gather(
            *[GatewayClient(host, gateway.port).connect() for _ in range(concurrency)]
        )

        async def client_task(client_index: int) -> int:
            nonlocal rejected
            answered = 0
            client = clients[client_index]
            for turn in range(requests_per_client):
                name, expr = pipelines[
                    (client_index * requests_per_client + turn) % len(pipelines)
                ]
                try:
                    response = await client.submit(expr, name=name, execute=execute)
                except GatewayError as error:
                    if error.status == 429:
                        rejected += 1
                        continue
                    raise
                answered += 1
                if serial_plans is not None and response["plan"] != serial_plans[name]:
                    mismatched.append(name)
            return answered

        start = time.perf_counter()
        try:
            answered = sum(
                await asyncio.gather(*[client_task(i) for i in range(concurrency)])
            )
        finally:
            await asyncio.gather(
                *[client.close() for client in clients], return_exceptions=True
            )
        seconds = time.perf_counter() - start
        snapshot = gateway.metrics.as_dict()
        await gateway.stop()
        point = {
            "batch_window_seconds": window,
            "concurrency": int(concurrency),
            "requests_sent": concurrency * requests_per_client,
            "requests_answered": answered,
            "rejected_429": rejected,
            "seconds": seconds,
            "requests_per_sec": answered / seconds if seconds > 0 else float("inf"),
            "peak_in_flight": snapshot["gauges"]["gateway_in_flight_requests"]["max"],
            "max_batch_size": snapshot["histograms"]["gateway_batch_size"]["max"],
            "mean_batch_size": snapshot["histograms"]["gateway_batch_size"]["mean"],
            "batches": snapshot["counters"]["gateway_batches_total"],
            "deduped_requests": snapshot["counters"]["gateway_deduped_requests_total"],
            "micro_batching_observed": snapshot["histograms"]["gateway_batch_size"]["max"]
            > 1,
            "no_rejections": rejected == 0,
            "pool": engine.pool.stats_dict(),
        }
        if serial_plans is not None:
            point["byte_identical_to_serial"] = not mismatched
            if mismatched:
                point["mismatched"] = sorted(set(mismatched))
        return point

    async def run_grid() -> List[dict]:
        points = []
        for window in batch_windows:
            for concurrency in concurrency_levels:
                points.append(await run_point(window, concurrency))
        return points

    points = asyncio.run(run_grid())
    return {
        "benchmark": "gateway_load_sweep",
        "pipelines": [name for name, _ in pipelines],
        "execute": execute,
        "requests_per_client": requests_per_client,
        "points": points,
    }


def run_workspace_sweep(
    pipelines: Sequence[Tuple[str, mx.Expr]],
    engine_factory: Callable[[], "object"],
    tenant_names: Sequence[str],
    clients_per_tenant: Sequence[int] = (8,),
    batch_windows: Sequence[float] = (0.01,),
    requests_per_client: int = 2,
    max_in_flight: Optional[int] = None,
    host: str = "127.0.0.1",
) -> dict:
    """Multi-tenant gateway load sweep: N workspaces × M clients each.

    For every ``(batch_window, clients_per_tenant)`` pair a *fresh*
    multi-workspace engine (from ``engine_factory``) serves a fresh gateway;
    ``clients_per_tenant`` connections open **per tenant**, each pinned to
    its workspace via the wire ``workspace`` field, and fire their requests
    back to back (round-robin over the pipeline batch).  Before the storm,
    every tenant's pipelines are planned serially on a session built from
    that tenant's own bundle (catalog, views, config); each point records
    whether every gateway answer was byte-identical to *its own tenant's*
    serial plan — the workspace-isolation acceptance criterion: a
    cross-tenant cache hit would surface as a plan mismatch — plus whether
    the tenants' plans actually diverge (proof the isolation is load-
    bearing), peak concurrency, rejections and the per-workspace labeled
    metric series.
    """
    import asyncio

    from repro.planner.session import PlanSession
    from repro.server import GatewayClient, GatewayError

    pipelines = list(pipelines)
    tenant_names = list(tenant_names)

    async def run_point(window: float, concurrency: int) -> dict:
        engine = engine_factory()
        # Serial per-tenant references: one session per tenant, built from
        # the tenant's own bundle exactly as the engine's pools build theirs.
        serial_plans: Dict[str, Dict[str, str]] = {}
        for tenant in tenant_names:
            workspace = engine.workspaces.get(tenant)
            session = PlanSession(
                catalog=workspace.catalog,
                views=list(workspace.views),
                estimator=workspace.estimator,
                config=workspace.config,
            )
            serial_plans[tenant] = {
                name: result.best.to_string()
                for (name, _), result in zip(
                    pipelines, session.rewrite_all([expr for _, expr in pipelines])
                )
            }
        total_clients = concurrency * len(tenant_names)
        gateway = engine.build_gateway(
            host=host,
            batch_window_seconds=window,
            max_batch=max(2, total_clients),
            max_in_flight=max_in_flight
            if max_in_flight is not None
            else max(total_clients * 2, 64),
        )
        await gateway.start()
        rejected = 0
        mismatched: List[str] = []
        answered_by_tenant = {tenant: 0 for tenant in tenant_names}

        clients = await asyncio.gather(
            *[
                GatewayClient(host, gateway.port).connect()
                for _ in range(total_clients)
            ]
        )

        async def client_task(client_index: int) -> int:
            nonlocal rejected
            tenant = tenant_names[client_index % len(tenant_names)]
            client = clients[client_index]
            answered = 0
            # Round-robin by tenant-local rank so *every* tenant covers the
            # whole pipeline batch (and the byte-identical check therefore
            # exercises the view-divergent pipelines on both sides).
            rank = client_index // len(tenant_names)
            for turn in range(requests_per_client):
                name, expr = pipelines[
                    (rank * requests_per_client + turn) % len(pipelines)
                ]
                try:
                    response = await client.submit(
                        expr, name=name, workspace=tenant
                    )
                except GatewayError as error:
                    if error.status == 429:
                        rejected += 1
                        continue
                    raise
                answered += 1
                answered_by_tenant[tenant] += 1
                if response["plan"] != serial_plans[tenant][name]:
                    mismatched.append(f"{tenant}:{name}")
            return answered

        start = time.perf_counter()
        try:
            answered = sum(
                await asyncio.gather(
                    *[client_task(i) for i in range(total_clients)]
                )
            )
        finally:
            await asyncio.gather(
                *[client.close() for client in clients], return_exceptions=True
            )
        seconds = time.perf_counter() - start
        snapshot = gateway.metrics.as_dict()
        await gateway.stop()

        workspace_series = [
            f'gateway_workspace_requests_total{{workspace="{tenant}"}}'
            for tenant in tenant_names
        ]
        plans_computed_total = sum(
            handle_stats["plans_computed"]
            for handle_stats in (
                engine.workspace(tenant).stats_dict() for tenant in tenant_names
            )
        )
        distinct = any(
            len({serial_plans[tenant][name] for tenant in tenant_names}) > 1
            for name, _ in pipelines
        )
        point = {
            "batch_window_seconds": window,
            "clients_per_tenant": int(concurrency),
            "tenants": list(tenant_names),
            "requests_sent": total_clients * requests_per_client,
            "requests_answered": answered,
            "answered_by_tenant": answered_by_tenant,
            "tenants_served": sum(
                1 for count in answered_by_tenant.values() if count > 0
            ),
            "rejected_429": rejected,
            "seconds": seconds,
            "requests_per_sec": answered / seconds if seconds > 0 else float("inf"),
            "peak_in_flight": snapshot["gauges"]["gateway_in_flight_requests"]["max"],
            "per_tenant_byte_identical": not mismatched,
            "tenant_plans_distinct": distinct,
            "no_rejections": rejected == 0,
            "plans_computed_total": plans_computed_total,
            "workspace_series_present": all(
                series in snapshot["counters"] for series in workspace_series
            ),
        }
        if mismatched:
            point["mismatched"] = sorted(set(mismatched))
        return point

    async def run_grid() -> List[dict]:
        points = []
        for window in batch_windows:
            for concurrency in clients_per_tenant:
                points.append(await run_point(window, concurrency))
        return points

    points = asyncio.run(run_grid())
    return {
        "benchmark": "gateway_workspace_sweep",
        "pipelines": [name for name, _ in pipelines],
        "tenants": list(tenant_names),
        "requests_per_client": requests_per_client,
        "points": points,
    }


@dataclass(frozen=True)
class TenantEngineFactory:
    """A picklable multi-tenant engine factory for the worker-pool tier.

    The worker sweep (and the chaos tests) need the *same* engine built in
    the gateway process and inside every spawned planner worker; a closure
    cannot cross the spawn boundary, a module-level dataclass with
    ``__call__`` can.  Every tenant gets the benchkit catalog at ``scale``
    (one shared catalog object per engine — tenants are isolation-
    equivalent, not data-divergent, which is exactly what the byte-identity
    check needs).
    """

    tenants: Tuple[str, ...]
    scale: float = 0.01
    max_sessions: int = 4

    def __call__(self) -> "object":
        from repro.api import Engine, EngineConfig, WorkspaceRegistry
        from repro.benchkit.datasets import benchmark_catalog

        catalog = benchmark_catalog(scale=self.scale)
        registry = WorkspaceRegistry()
        for tenant in self.tenants:
            registry.register(tenant, catalog=catalog)
        return Engine(
            workspaces=registry,
            config=EngineConfig(service={"max_sessions": self.max_sessions}),
        )


def run_worker_sweep(
    pipelines: Sequence[Tuple[str, mx.Expr]],
    factory: Callable[[], "object"],
    tenant_names: Sequence[str],
    worker_counts: Sequence[int] = (0, 1, 2, 4),
    hot_tenants: int = 2,
    hot_factor: int = 6,
    scaling_floor_multicore: float = 2.5,
    scaling_floor_fallback: float = 0.4,
    max_in_flight: Optional[int] = None,
    host: str = "127.0.0.1",
) -> dict:
    """The worker-pool scaling + isolation sweep behind ``--planner-workers``.

    For every count in ``worker_counts`` a fresh engine (from ``factory``,
    which must be picklable — see :class:`TenantEngineFactory`) serves a
    fresh gateway with that many planner worker processes (0 = the
    in-process path), and one client per tenant cold-plans the pipeline
    batch.  Each point records plans/sec, byte-identity of every answer
    against a serial reference session, worker attribution (every response
    produced by exactly the worker the hash ring assigns that tenant), and
    a warm second round that must be all cache hits — the proof that a
    tenant's requests keep landing on the same warm cache.

    The ``skew`` phase then drives a 2-hot-tenant skewed load at the
    largest worker count: the hot tenants fire ``hot_factor``× the request
    volume of the light tenants, and the summary records per-tenant
    byte-identity, attribution, and the hot tenants' warm-hit fraction —
    no cross-tenant interference, structurally verified.

    The scaling acceptance is CPU-aware: workers are *processes*, so the
    ≥``scaling_floor_multicore``× plans/sec floor at the largest count only
    physically exists with ≥ 4 cores (CI); below that the floor degrades to
    ``scaling_floor_fallback`` (collapse detection — the worker tier must
    not be dramatically slower than in-process even on one core).
    """
    import asyncio
    import os

    from repro.planner.session import PlanSession
    from repro.server import GatewayClient

    pipelines = list(pipelines)
    tenant_names = list(tenant_names)
    worker_counts = sorted(set(int(count) for count in worker_counts))

    def serial_reference(engine) -> Dict[str, Dict[str, str]]:
        """Per-tenant serial plans, computed once per distinct bundle."""
        plans: Dict[str, Dict[str, str]] = {}
        by_bundle: Dict[tuple, Dict[str, str]] = {}
        for tenant in tenant_names:
            workspace = engine.workspaces.get(tenant)
            key = (id(workspace.catalog), tuple(v.name for v in workspace.views))
            cached = by_bundle.get(key)
            if cached is None:
                session = PlanSession(
                    catalog=workspace.catalog,
                    views=list(workspace.views),
                    estimator=workspace.estimator,
                    config=workspace.config,
                )
                cached = {
                    name: result.best.to_string()
                    for (name, _), result in zip(
                        pipelines,
                        session.rewrite_all([expr for _, expr in pipelines]),
                    )
                }
                by_bundle[key] = cached
            plans[tenant] = cached
        return plans

    async def start_gateway(engine, workers: int):
        gateway = engine.build_gateway(
            worker_factory=factory if workers else None,
            host=host,
            planner_workers=workers,
            batch_window_seconds=0.002,
            max_in_flight=max_in_flight
            if max_in_flight is not None
            else max(len(tenant_names) * (hot_factor + 2) * 2, 64),
        )
        await gateway.start()
        return gateway

    async def tenant_storm(
        gateway, serial_plans, rounds: int = 1
    ) -> Tuple[dict, float]:
        """One client per tenant; each covers the batch ``rounds`` times."""
        clients = await asyncio.gather(
            *[GatewayClient(host, gateway.port).connect() for _ in tenant_names]
        )
        supervisor = gateway.supervisor
        outcome = {
            "answered": 0,
            "mismatched": [],
            "misrouted": [],
            "cache_hits": 0,
        }

        async def one_tenant(index: int) -> None:
            tenant = tenant_names[index]
            client = clients[index]
            expected_worker = (
                supervisor.route(tenant) if supervisor is not None else None
            )
            for turn in range(rounds):
                for name, expr in pipelines:
                    response = await client.submit(expr, name=name, workspace=tenant)
                    outcome["answered"] += 1
                    if response["plan"] != serial_plans[tenant][name]:
                        outcome["mismatched"].append(f"{tenant}:{name}")
                    if response.get("cache_hit"):
                        outcome["cache_hits"] += 1
                    if (
                        expected_worker is not None
                        and response.get("worker") != expected_worker
                    ):
                        outcome["misrouted"].append(f"{tenant}:{name}")

        start = time.perf_counter()
        try:
            await asyncio.gather(*[one_tenant(i) for i in range(len(tenant_names))])
        finally:
            await asyncio.gather(
                *[client.close() for client in clients], return_exceptions=True
            )
        return outcome, time.perf_counter() - start

    async def run_point(workers: int) -> dict:
        engine = factory()
        serial_plans = serial_reference(engine)
        gateway = await start_gateway(engine, workers)
        try:
            cold, seconds = await tenant_storm(gateway, serial_plans)
            warm, _ = await tenant_storm(gateway, serial_plans)
            supervisor = gateway.supervisor
            requests_sent = len(tenant_names) * len(pipelines)
            return {
                "planner_workers": workers,
                "requests_sent": requests_sent,
                "requests_answered": cold["answered"],
                "seconds": seconds,
                "plans_per_sec": cold["answered"] / seconds
                if seconds > 0
                else float("inf"),
                "byte_identical": not cold["mismatched"] and not warm["mismatched"],
                "worker_attribution_ok": not cold["misrouted"]
                and not warm["misrouted"],
                "warm_round_all_cache_hits": warm["cache_hits"] == warm["answered"],
                "no_lost_requests": cold["answered"] == requests_sent,
                "restarts": supervisor.restarts_total if supervisor else 0,
                "mismatched": sorted(set(cold["mismatched"] + warm["mismatched"])),
            }
        finally:
            await gateway.stop()

    async def run_skew(workers: int) -> dict:
        """2-hot-tenant skewed load at the largest worker count."""
        engine = factory()
        serial_plans = serial_reference(engine)
        gateway = await start_gateway(engine, workers)
        try:
            supervisor = gateway.supervisor
            hot = list(tenant_names[:hot_tenants])
            light = [tenant for tenant in tenant_names if tenant not in hot]
            clients = {
                tenant: await GatewayClient(host, gateway.port).connect()
                for tenant in tenant_names
            }
            counters = {
                "mismatched_light": [],
                "misrouted": [],
                "hot_answered": 0,
                "hot_cache_hits": 0,
                "light_answered": 0,
            }

            async def drive(tenant: str, rounds: int, is_hot: bool) -> None:
                client = clients[tenant]
                expected_worker = (
                    supervisor.route(tenant) if supervisor is not None else None
                )
                for turn in range(rounds):
                    for name, expr in pipelines:
                        response = await client.submit(
                            expr, name=name, workspace=tenant
                        )
                        if (
                            expected_worker is not None
                            and response.get("worker") != expected_worker
                        ):
                            counters["misrouted"].append(f"{tenant}:{name}")
                        if is_hot:
                            counters["hot_answered"] += 1
                            if response.get("cache_hit"):
                                counters["hot_cache_hits"] += 1
                        else:
                            counters["light_answered"] += 1
                            if response["plan"] != serial_plans[tenant][name]:
                                counters["mismatched_light"].append(
                                    f"{tenant}:{name}"
                                )

            try:
                await asyncio.gather(
                    *[drive(tenant, hot_factor, True) for tenant in hot],
                    *[drive(tenant, 1, False) for tenant in light],
                )
            finally:
                await asyncio.gather(
                    *[client.close() for client in clients.values()],
                    return_exceptions=True,
                )
            hot_workers = sorted(
                {supervisor.route(tenant) for tenant in hot}
                if supervisor is not None
                else set()
            )
            expected_light = len(light) * len(pipelines)
            expected_hot = len(hot) * hot_factor * len(pipelines)
            return {
                "planner_workers": workers,
                "hot_tenants": hot,
                "hot_workers": hot_workers,
                "light_tenants_answered": counters["light_answered"],
                "hot_tenants_answered": counters["hot_answered"],
                "no_lost_requests": counters["light_answered"] == expected_light
                and counters["hot_answered"] == expected_hot,
                "light_byte_identical": not counters["mismatched_light"],
                "worker_attribution_ok": not counters["misrouted"],
                "hot_cache_hit_fraction": (
                    counters["hot_cache_hits"] / counters["hot_answered"]
                    if counters["hot_answered"]
                    else 0.0
                ),
                "restarts": supervisor.restarts_total if supervisor else 0,
            }
        finally:
            await gateway.stop()

    async def run_all() -> dict:
        points = [await run_point(workers) for workers in worker_counts]
        top = max(worker_counts)
        skew = await run_skew(top) if top > 0 else None
        return {"points": points, "skew": skew}

    outcome = asyncio.run(run_all())
    points = outcome["points"]
    by_count = {point["planner_workers"]: point for point in points}
    cpu_count = os.cpu_count() or 1
    floor = scaling_floor_multicore if cpu_count >= 4 else scaling_floor_fallback
    baseline = by_count.get(0) or points[0]
    top_point = by_count[max(worker_counts)]
    scaling = (
        top_point["plans_per_sec"] / baseline["plans_per_sec"]
        if baseline["plans_per_sec"] > 0
        else float("inf")
    )
    skew = outcome["skew"]
    summary = {
        "benchmark": "gateway_worker_sweep",
        "cpu_count": cpu_count,
        "pipelines": [name for name, _ in pipelines],
        "tenants": tenant_names,
        "worker_counts": worker_counts,
        "points": points,
        "skew": skew,
        "scaling": {
            "baseline_plans_per_sec": baseline["plans_per_sec"],
            "top_plans_per_sec": top_point["plans_per_sec"],
            "top_workers": top_point["planner_workers"],
            "scaling_x": scaling,
            "scaling_floor": floor,
            "floor_is_multicore": cpu_count >= 4,
            "meets_scaling_floor": scaling >= floor,
        },
        "acceptance": {
            "byte_identical_all_points": all(p["byte_identical"] for p in points),
            "worker_attribution_ok": all(
                p["worker_attribution_ok"] for p in points
            )
            and (skew is None or skew["worker_attribution_ok"]),
            "warm_rounds_all_cache_hits": all(
                p["warm_round_all_cache_hits"] for p in points
            ),
            "no_lost_requests": all(p["no_lost_requests"] for p in points)
            and (skew is None or skew["no_lost_requests"]),
            "skew_light_byte_identical": skew is None
            or skew["light_byte_identical"],
            "skew_hot_cache_hit_fraction": skew["hot_cache_hit_fraction"]
            if skew is not None
            else 1.0,
            "restarts_total": sum(p["restarts"] for p in points)
            + (skew["restarts"] if skew is not None else 0),
            "meets_scaling_floor": scaling >= floor,
        },
    }
    return summary


def print_report(title: str, runs: Sequence[PipelineRun]) -> str:
    """Format a block of pipeline runs as the benches print them."""
    lines = [f"== {title} =="]
    lines.extend(run.as_row() for run in runs)
    improved = [run for run in runs if run.changed]
    if runs:
        lines.append(
            f"-- {len(improved)}/{len(runs)} rewritten; "
            f"median speedup {sorted(run.speedup for run in runs)[len(runs) // 2]:.2f}x"
        )
    return "\n".join(lines)
