"""The planner seam: the one object the gateway plans through.

The gateway admits a request, hands it to its planner and maps the
*envelope* that comes back to an HTTP response — it never sees a batcher, a
pipe or a process.  Two planners ship: :class:`LocalPlanner` (this module;
per-workspace :class:`~repro.server.batcher.MicroBatcher` over the
engine's own services) and
:class:`~repro.server.workers.WorkerSupervisor` (sharded planner worker
processes).  A test substitutes a fake by assigning ``gateway.planner``.

Envelopes
---------
A planned request — including one whose *plan* or *execution* failed, which
is per-request data on the payload — comes back as::

    {"ok": True, "payload": <result_to_json document>,
     "pruned": [pruned_applications, pruned_by_tightening]}

(plus ``"worker"`` / ``"pid"`` when a worker process served it), and a
request that could not be planned at all as::

    {"ok": False, "kind": <kind>, "error": <message>}

with ``kind`` one of ``unknown_workspace`` (404), ``config`` (a plan-only
workspace; 422), ``closed`` (draining; 503), or anything else —
``internal``, ``worker_crashed`` — (500).  Results become envelopes through
:func:`result_envelope` and exceptions through :func:`error_envelope` on
both paths (a worker process encodes its own; the gateway encodes what a
planner raises), which is what keeps their HTTP bodies and metrics identical.
"""

from __future__ import annotations

import asyncio
import time
import weakref
from typing import Dict, Protocol, Set

from repro.api.engine import Engine, WorkspaceHandle
from repro.config import GatewayConfig
from repro.exceptions import ConfigError, UnknownWorkspaceError
from repro.server.batcher import BatcherClosed, MicroBatcher
from repro.server.metrics import MetricsRegistry
from repro.server.protocol import result_to_json
from repro.service.service import AnalyticsService, BatchHook, ServiceRequest, ServiceResult


class PlannerClosed(RuntimeError):
    """A planner was asked to plan after it stopped accepting work."""


class Planner(Protocol):
    """What :class:`~repro.server.gateway.AnalyticsGateway` needs of a planner."""

    async def open(self) -> None:
        """Acquire whatever planning needs (worker processes); may take long."""

    async def submit(self, workspace: str, request: ServiceRequest) -> dict:
        """Plan (and maybe execute) one admitted request; answer an envelope.

        An exception raised instead is encoded by the gateway with
        :func:`error_envelope`, the function a worker process uses itself.
        """

    def describe(self) -> dict:
        """The planner's keys of the ``/healthz`` document."""

    def stats_dict(self) -> dict:
        """The planner's keys of :meth:`AnalyticsGateway.stats_dict`."""

    def forget(self, workspace: str) -> None:
        """Drop the state kept for a workspace that is no longer registered."""

    async def close(self) -> None:
        """Finish accepted work, then release everything :meth:`open` took."""


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
    elif isinstance(exc, (PlannerClosed, BatcherClosed)):
        kind = "closed"
    else:
        kind, error = "internal", f"{type(exc).__name__}: {exc}"
    return {"ok": False, "kind": kind, "error": error}


class LocalPlanner:
    """Plan in this process: one micro-batcher per workspace.

    Each workspace plans through its own :class:`MicroBatcher`, so tenants
    micro-batch independently and one tenant's slow plans never ride in
    another's batch.  A plan-only request whose plan is already in the
    workspace's pool never reaches it: :meth:`submit` answers it from
    :meth:`PlanSessionPool.lookup <repro.service.pool.PlanSessionPool.lookup>`
    on the event loop, and only what that cannot answer — a miss, a key
    still being planned, a busy pool lock, any ``execute`` request — is
    batched.
    """

    def __init__(
        self,
        engine: Engine,
        config: GatewayConfig,
        metrics: MetricsRegistry,
        batch_hook: BatchHook,
    ):
        self._engine = engine
        self._config = config
        self._metrics = metrics
        self._batch_hook = batch_hook
        #: One micro-batcher per workspace, created on first request so a
        #: thousand registered tenants cost nothing until they talk.
        self.batchers: Dict[str, MicroBatcher] = {}
        #: Drain tasks of batchers replaced by a workspace update; strong
        #: references (the loop keeps only weak ones) so an in-flight drain
        #: is never garbage-collected, and :meth:`close` can await them.
        self._stale_drains: Set[asyncio.Task] = set()
        #: Services whose batch hook is already registered.  A weak *set*
        #: (not ids): membership is object identity, entries vanish with
        #: their service, and a recycled id can never mask a new service.
        self._hooked_services: "weakref.WeakSet[AnalyticsService]" = weakref.WeakSet()

    async def open(self) -> None:
        pass

    async def submit(self, workspace: str, request: ServiceRequest) -> dict:
        handle = await self._resolve_handle(workspace)
        if not request.execute:
            # A warm plan is a lookup: the pool's cache is the store every
            # delta keeps consistent, and the lookup cannot block the loop
            # (a busy lock reads as None and takes the batcher path below).
            started = time.perf_counter()
            hit = handle.service.pool.lookup(request.expression)
            if hit is not None:
                return result_envelope(
                    ServiceResult(
                        request=request,
                        rewrite=hit,
                        queue_seconds=0.0,
                        plan_seconds=time.perf_counter() - started,
                    )
                )
        result = await self._batcher_for(workspace, handle).submit(request)
        return result_envelope(result)

    def describe(self) -> dict:
        return {}

    def stats_dict(self) -> dict:
        # Keyed by ready runtime, not by batcher: a tenant served only warm
        # plans is answered on the loop and never gets a batcher.
        pools = {
            name: self._engine.workspace(name).pool.stats_dict()
            for name in self._engine.workspace_names()
            if self._engine.runtime_ready(name)
        }
        return {"workspace_pools": pools} if pools else {}

    def forget(self, workspace: str) -> None:
        batcher = self.batchers.pop(workspace, None)
        if batcher is not None:
            self._drain_in_background(batcher)

    async def close(self) -> None:
        while self._stale_drains:
            await asyncio.gather(*list(self._stale_drains), return_exceptions=True)
        for batcher in list(self.batchers.values()):
            await batcher.drain()

    # ------------------------------------------------------------------ internals
    async def _resolve_handle(self, name: str) -> WorkspaceHandle:
        """This workspace's handle — resolved after admission.

        Resolving a cached runtime is two dict lookups and stays inline; a
        first-request (or post-update) resolution *builds* the runtime —
        an eager pool whose prototype session compiles the constraint
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

    def _batcher_for(self, workspace: str, handle: WorkspaceHandle) -> MicroBatcher:
        """This workspace's micro-batcher (built on first request).

        A workspace update swaps the underlying service; the stale batcher
        is then drained in the background (requests it already accepted all
        complete) and replaced, so requests after the update plan against
        the new bundle.
        """
        batcher = self.batchers.get(workspace)
        service = handle.service
        if batcher is not None and batcher.service is not service:
            self._drain_in_background(batcher)
            batcher = None
        if batcher is None:
            if service not in self._hooked_services:
                service.add_batch_hook(self._batch_hook)
                self._hooked_services.add(service)
            batcher = MicroBatcher(
                service,
                window_seconds=self._config.batch_window_seconds,
                max_batch=self._config.max_batch,
                metrics=self._metrics,
            )
            self.batchers[workspace] = batcher
        return batcher

    def _drain_in_background(self, batcher: MicroBatcher) -> None:
        """Flush a replaced/forgotten batcher without blocking the caller."""
        drain = asyncio.get_running_loop().create_task(batcher.drain())
        self._stale_drains.add(drain)
        drain.add_done_callback(self._stale_drains.discard)


__all__ = [
    "LocalPlanner",
    "Planner",
    "PlannerClosed",
    "error_envelope",
    "result_envelope",
]
