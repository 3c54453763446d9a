"""The planner seam: the one object the gateway plans through.

The gateway admits a request, hands it to its planner and maps the
:class:`~repro.service.service.ServiceResult` that comes back — or the
exception raised instead — to an HTTP response; it never sees a thread
pool.  One planner ships: :class:`LocalPlanner`, the engine's own services
on a thread pool, planning each request as it arrives.  A test substitutes
a fake through the :class:`Planner` protocol by assigning
``gateway.planner``.

A planned request — including one whose *plan* or *execution* failed, which
is per-request data in ``result.failures`` — comes back as its
``ServiceResult``.  A request that could not be planned at all raises:
:class:`~repro.exceptions.UnknownWorkspaceError` (404),
:class:`~repro.exceptions.ConfigError` for a plan-only workspace (422),
:class:`PlannerClosed` while draining (503); anything else is a 500.
"""

from __future__ import annotations

import asyncio
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Protocol

from repro.api.engine import Engine, WorkspaceHandle
from repro.service.service import AnalyticsService, BatchHook, ServiceRequest, ServiceResult


class PlannerClosed(RuntimeError):
    """A planner was asked to plan after it stopped accepting work."""


class Planner(Protocol):
    """What :class:`~repro.server.gateway.AnalyticsGateway` needs of a planner."""

    async def submit(self, workspace: str, request: ServiceRequest) -> ServiceResult:
        """Plan (and maybe execute) one admitted request.

        Raises instead of answering when the request cannot be planned at
        all (see the module docstring for which exception means what).
        """

    def stats_dict(self) -> dict:
        """The planner's keys of :meth:`AnalyticsGateway.stats_dict`."""

    async def close(self) -> None:
        """Finish accepted work, then release what planning holds."""


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

    async def submit(self, workspace: str, request: ServiceRequest) -> ServiceResult:
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
                return ServiceResult(
                    request=request,
                    rewrite=hit,
                    queue_seconds=0.0,
                    plan_seconds=time.perf_counter() - started,
                )
        if service not in self._hooked_services:
            service.add_batch_hook(self._batch_hook)
            self._hooked_services.add(service)
        results = await asyncio.get_running_loop().run_in_executor(
            self._executor, service.submit_many, [request], 1
        )
        return results[0]

    def stats_dict(self) -> dict:
        # Keyed by built handle: a tenant served only warm plans is
        # answered on the loop and never reaches a planner thread.
        pools = {
            name: self._engine.workspace(name).pool.stats_dict()
            for name in self._engine.workspace_names()
            if self._engine.handle_ready(name)
        }
        summary = {"workspace_pools": pools} if pools else {}
        if self._hooked_services:
            # Errors the gateway's batch hook raised in the services it
            # observes (live ones: a superseded service takes its count along).
            summary["batch_hook_failures"] = sum(
                service.batch_hook_failures for service in list(self._hooked_services)
            )
        return summary

    async def close(self) -> None:
        """Refuse new requests, then wait for the ones already planning."""
        self._closed = True
        await asyncio.get_running_loop().run_in_executor(None, self._executor.shutdown)

    # ------------------------------------------------------------------ internals
    async def _resolve_handle(self, name: str) -> WorkspaceHandle:
        """This workspace's handle — resolved after admission.

        Resolving a cached handle is two dict lookups and stays inline; a
        first-request (or post-update) resolution *builds* the handle —
        an eager pool whose first session compiles the constraint
        program — and is offloaded to a worker thread so one tenant's
        build never stalls the event loop for every other tenant.  (The
        gateway admitted the request *before* this await, so the build
        window cannot be used to slip past admission control.)
        """
        if not self._engine.handle_ready(name):
            return await asyncio.get_running_loop().run_in_executor(
                None, self._engine.workspace, name
            )
        return self._engine.workspace(name)


__all__ = [
    "LocalPlanner",
    "Planner",
    "PlannerClosed",
]
