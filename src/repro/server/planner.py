"""The planner seam: the one object the gateway plans through.

The gateway admits a request, hands it to its planner and maps the
*envelope* that comes back to an HTTP response — it never sees a thread
pool.  One planner ships: :class:`LocalPlanner`, the engine's own services
on a thread pool, planning each request as it arrives.  A test substitutes
a fake through the :class:`Planner` protocol by assigning
``gateway.planner``.

Envelopes
---------
A planned request — including one whose *plan* or *execution* failed, which
is per-request data on the payload — comes back as::

    {"ok": True, "payload": <result_to_json document>,
     "pruned": [pruned_applications, pruned_by_tightening]}

and a request that could not be planned at all as::

    {"ok": False, "kind": <kind>, "error": <message>}

with ``kind`` one of ``unknown_workspace`` (404), ``config`` (a plan-only
workspace; 422), ``closed`` (draining; 503), or ``internal`` (500).
Results become envelopes through :func:`result_envelope`, and the gateway
encodes what a planner raises through :func:`error_envelope`.
"""

from __future__ import annotations

import asyncio
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Protocol

from repro.api.engine import Engine, WorkspaceHandle
from repro.exceptions import ConfigError, UnknownWorkspaceError
from repro.server.protocol import result_to_json
from repro.service.service import AnalyticsService, BatchHook, ServiceRequest, ServiceResult


class PlannerClosed(RuntimeError):
    """A planner was asked to plan after it stopped accepting work."""


class Planner(Protocol):
    """What :class:`~repro.server.gateway.AnalyticsGateway` needs of a planner."""

    async def submit(self, workspace: str, request: ServiceRequest) -> dict:
        """Plan (and maybe execute) one admitted request; answer an envelope.

        An exception raised instead is encoded by the gateway with
        :func:`error_envelope`.
        """

    def stats_dict(self) -> dict:
        """The planner's keys of :meth:`AnalyticsGateway.stats_dict`."""

    async def close(self) -> None:
        """Finish accepted work, then release what planning holds."""


def result_envelope(result: ServiceResult) -> dict:
    """The ``ok`` envelope of one service result."""
    pruned = [0, 0]
    # Cache hits reuse a plan whose saturation already ran (and was already
    # counted); only fresh rewrites contribute prune counts.
    saturation = None if result.rewrite.cache_hit else result.rewrite.saturation
    if saturation is not None:
        pruned = [saturation.pruned_applications, saturation.pruned_by_tightening]
    return {"ok": True, "payload": result_to_json(result), "pruned": pruned}


def error_envelope(exc: Exception) -> dict:
    """The failure envelope of an exception raised instead of a result."""
    error = str(exc)
    if isinstance(exc, UnknownWorkspaceError):
        kind = "unknown_workspace"
    elif isinstance(exc, ConfigError):
        kind = "config"
    elif isinstance(exc, PlannerClosed):
        kind = "closed"
    else:
        kind, error = "internal", f"{type(exc).__name__}: {exc}"
    return {"ok": False, "kind": kind, "error": error}


class LocalPlanner:
    """Plan in this process, each request as it arrives.

    A plan-only request whose plan is already in the workspace's pool is
    answered on the event loop from :meth:`PlanSessionPool.lookup
    <repro.service.pool.PlanSessionPool.lookup>`.  Everything the lookup
    cannot answer — a miss, a key still being planned, a busy pool lock,
    any ``execute`` request — runs ``service.submit_many([request],
    workers=1)`` on the planner's thread pool, ``ServiceConfig.plan_workers`` threads shared by every workspace.
    Requests from different tenants, and executions (numpy releases the
    GIL), therefore run side by side: a tenant's long plan holds one thread,
    not the others' misses.  Concurrent duplicates plan once: the pool's
    single flight lets the first plan and the rest wait for its plan.
    """

    def __init__(self, engine: Engine, batch_hook: BatchHook):
        self._engine = engine
        self._batch_hook = batch_hook
        self._executor = ThreadPoolExecutor(
            max_workers=engine.config.service.plan_workers, thread_name_prefix="repro-plan"
        )
        self._closed = False
        #: Services whose batch hook is already registered.  A weak *set*
        #: (not ids): membership is object identity, entries vanish with
        #: their service, and a recycled id can never mask a new service.
        self._hooked_services: "weakref.WeakSet[AnalyticsService]" = weakref.WeakSet()

    async def submit(self, workspace: str, request: ServiceRequest) -> dict:
        handle = await self._resolve_handle(workspace)
        if self._closed:
            raise PlannerClosed("planner is closed")
        service = handle.service
        if not request.execute:
            # A warm plan is a lookup: the pool's cache is the store every
            # delta keeps consistent, and the lookup cannot block the loop
            # (a busy lock reads as None and goes to a planner thread).
            started = time.perf_counter()
            hit = service.pool.lookup(request.expression)
            if hit is not None:
                return result_envelope(
                    ServiceResult(
                        request=request,
                        rewrite=hit,
                        queue_seconds=0.0,
                        plan_seconds=time.perf_counter() - started,
                    )
                )
        if service not in self._hooked_services:
            service.add_batch_hook(self._batch_hook)
            self._hooked_services.add(service)
        results = await asyncio.get_running_loop().run_in_executor(
            self._executor, service.submit_many, [request], 1
        )
        return result_envelope(results[0])

    def stats_dict(self) -> dict:
        # Keyed by ready runtime: a tenant served only warm plans is
        # answered on the loop and never reaches a planner thread.
        pools = {
            name: self._engine.workspace(name).pool.stats_dict()
            for name in self._engine.workspace_names()
            if self._engine.runtime_ready(name)
        }
        return {"workspace_pools": pools} if pools else {}

    async def close(self) -> None:
        """Refuse new requests, then wait for the ones already planning."""
        self._closed = True
        await asyncio.get_running_loop().run_in_executor(None, self._executor.shutdown)

    # ------------------------------------------------------------------ internals
    async def _resolve_handle(self, name: str) -> WorkspaceHandle:
        """This workspace's handle — resolved after admission.

        Resolving a cached runtime is two dict lookups and stays inline; a
        first-request (or post-update) resolution *builds* the runtime —
        an eager pool whose first session compiles the constraint
        program — and is offloaded to a worker thread so one tenant's
        build never stalls the event loop for every other tenant.  (The
        gateway admitted the request *before* this await, so the build
        window cannot be used to slip past admission control.)
        """
        if not self._engine.runtime_ready(name):
            return await asyncio.get_running_loop().run_in_executor(
                None, self._engine.workspace, name
            )
        return self._engine.workspace(name)


__all__ = [
    "LocalPlanner",
    "Planner",
    "PlannerClosed",
    "error_envelope",
    "result_envelope",
]
