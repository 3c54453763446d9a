"""The unified front door: one typed, multi-workspace ``Engine``.

HADAD's pitch is a *single* lightweight optimizer any LA/RA/hybrid workload
sits on top of; :class:`Engine` is that single object for this codebase —
and since the Workspace redesign, "any workload" is literal: one engine
serves many named tenant **workspaces** (independent catalog + view set +
planner config bundles, see :mod:`repro.api.workspace`) side by side.

Two construction modes, one behaviour:

* **single-catalog** (the quickstart)::

      engine = Engine(catalog, views=[...])
      engine.rewrite(expr)                  # plans in the "default" workspace

  The catalog/views become the registry's ``"default"`` workspace and
  every engine-level method delegates to it.

* **multi-workspace**::

      registry = WorkspaceRegistry()
      registry.register("tenant-a", catalog_a, views=views_a)
      registry.register("tenant-b", catalog_b, config={"max_rounds": 6})
      engine = Engine(workspaces=registry)
      handle = engine.workspace("tenant-a")  # typed WorkspaceHandle
      handle.rewrite(expr); handle.submit_many(batch); handle.execute(plan)

Each workspace gets its **own** session pool, service and router, and every
shared-cache key carries the workspace identity (``name@v<version>``) — so
tenants never share a stale plan, while identical *(fingerprint, view-set,
config)* requests still dedup within a tenant.  Updating a bundle through
the registry bumps its version; the engine builds that workspace a fresh
:class:`WorkspaceHandle` on next access and leaves every other tenant's
plan session and cached plans untouched.  A catalog delta
(:meth:`Engine.apply_delta`) keeps the handle and revalidates its plans.

Options flow through one frozen, validated
:class:`~repro.config.EngineConfig`; its ``service``/``gateway`` parts are
engine-wide, while the planning knobs live per workspace (the
single-catalog constructor maps ``config.planner`` onto the default
workspace).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.workspace import DEFAULT_WORKSPACE, Workspace, WorkspaceRegistry
from repro.backends.registry import BackendRegistry
from repro.config import EngineConfig, GatewayConfig, PlannerConfig
from repro.constraints.views import LAView
from repro.core.result import RewriteResult
from repro.data.catalog import Catalog
from repro.exceptions import ConfigError, UnknownWorkspaceError
from repro.lang import matrix_expr as mx
from repro.planner.session import PlanSession
from repro.service.pool import PlanSessionPool
from repro.service.router import ExecutionRouter, RoutedExecution
from repro.service.service import AnalyticsService, RequestLike, ServiceResult


def _coerce_engine_config(config: object) -> EngineConfig:
    if config is None:
        return EngineConfig()
    if isinstance(config, EngineConfig):
        return config
    if isinstance(config, PlannerConfig):
        return EngineConfig(planner=config)
    if isinstance(config, Mapping):
        known = {field.name for field in dataclasses.fields(EngineConfig)}
        unknown = sorted({str(key) for key in config} - known)
        if unknown:
            raise ConfigError(
                f"Engine config got unknown option(s) {unknown}; "
                f"valid EngineConfig fields are {sorted(known)}"
            )
        return EngineConfig(**{str(key): value for key, value in config.items()})
    raise ConfigError(
        f"Engine config must be an EngineConfig, a PlannerConfig or a mapping "
        f"of EngineConfig fields, got {config!r} (type {type(config).__name__})"
    )


class WorkspaceHandle:
    """One workspace's serving state, and the typed handle on it.

    :meth:`Engine.workspace` builds one per registered bundle and caches
    it: one pool (eager, so configuration errors surface at build time),
    one router and one service (both lazy — plan-only workspaces never
    touch backends).  It exposes ``rewrite`` / ``rewrite_all`` / ``submit``
    / ``submit_many`` / ``submit_hybrid`` / ``execute``, scoped to this
    workspace's catalog, views and planner config.  A handle resolved
    before a :meth:`WorkspaceRegistry.update` keeps planning on the bundle
    it was built with; :meth:`Engine.apply_delta` swaps the new snapshot
    into the live handle instead.
    """

    __slots__ = ("_engine", "_workspace", "pool", "_router", "_service", "_lock")

    def __init__(self, engine: "Engine", workspace: Workspace):
        self._engine = engine
        self._workspace = workspace
        self.pool = PlanSessionPool(self._session_factory, workspace=workspace.runtime_key)
        self._router: Optional[ExecutionRouter] = None
        self._service: Optional[AnalyticsService] = None
        self._lock = threading.Lock()

    def _session_factory(self) -> PlanSession:
        workspace = self._workspace
        return PlanSession(
            catalog=workspace.catalog,
            views=list(workspace.views),
            estimator=workspace.estimator,
            config=workspace.config,
        )

    def _require_catalog(self, what: str) -> Catalog:
        if self._workspace.catalog is None:
            raise ConfigError(
                f"workspace {self._workspace.name!r} was registered without a "
                f"catalog, which {what} requires; register it with one to "
                f"execute or serve plans"
            )
        return self._workspace.catalog

    # ------------------------------------------------------------------ identity
    @property
    def name(self) -> str:
        return self._workspace.name

    @property
    def version(self) -> int:
        return self._workspace.version

    @property
    def catalog(self) -> Optional[Catalog]:
        return self._workspace.catalog

    @property
    def views(self) -> Tuple[LAView, ...]:
        return self._workspace.views

    @property
    def config(self) -> PlannerConfig:
        """This workspace's planner config (engine-wide knobs live on
        :attr:`Engine.config`)."""
        return self._workspace.config  # type: ignore[return-value]

    @property
    def estimator(self) -> Optional[object]:
        return self._workspace.estimator

    @property
    def router(self) -> ExecutionRouter:
        with self._lock:
            if self._router is None:
                catalog = self._require_catalog("execution routing")
                self._router = ExecutionRouter(
                    catalog,
                    self._engine.registry.create_all(catalog),
                    preferred=self._engine.config.service.preferred_backend,
                )
            return self._router

    @property
    def service(self) -> AnalyticsService:
        if self._service is None:
            catalog = self._require_catalog("the service path")
            router = self.router  # resolved before _lock (router takes it too)
            with self._lock:
                if self._service is None:
                    self._service = AnalyticsService(
                        catalog,
                        views=list(self._workspace.views),
                        pool=self.pool,
                        router=router,
                        config=self._engine.config.service,
                        workspace=self._workspace.name,
                    )
        return self._service

    def describe(self) -> dict:
        return self._workspace.describe()

    # ------------------------------------------------------------------ planning
    def rewrite(self, expr: mx.Expr) -> RewriteResult:
        """Find the minimum-cost equivalent of ``expr`` in this workspace.

        Synchronous, thread-safe; plans through the workspace's pooled
        sessions and its single-flight shared cache (whose keys carry the
        workspace identity).
        """
        return self.pool.plan(expr)

    def rewrite_all(self, expressions: Iterable[mx.Expr]) -> List[RewriteResult]:
        """Rewrite a batch, planning each distinct fingerprint exactly once."""
        return [self.pool.plan(expr) for expr in expressions]

    # ------------------------------------------------------------------ deltas
    def apply_delta(self, delta):
        """Apply a catalog delta to this workspace (see
        :meth:`Engine.apply_delta`); plans whose footprint the delta does
        not touch stay warm.  Returns the
        :class:`~repro.catalog.delta.RevalidationReport`."""
        return self._engine.apply_delta(self.name, delta)

    # ------------------------------------------------------------------ service path
    def submit(self, item: RequestLike) -> ServiceResult:
        """Plan (and execute, unless the request opts out) one request."""
        return self.service.submit(item)

    def submit_many(
        self, items: Iterable[RequestLike], workers: Optional[int] = None
    ) -> List[ServiceResult]:
        """Plan a batch concurrently (``config.service.plan_workers`` wide)."""
        return self.service.submit_many(items, workers=workers)

    def submit_hybrid(self, query, execute: bool = True) -> ServiceResult:
        """Route a hybrid RA+LA query through this workspace's service."""
        return self.service.submit_hybrid(query, execute=execute)

    # ------------------------------------------------------------------ execution
    def execute(
        self,
        plan: Union[RewriteResult, mx.Expr],
        backend: Optional[str] = None,
    ) -> RoutedExecution:
        """Run a finished plan on an execution substrate.

        ``plan`` is a :class:`RewriteResult` (typically from
        :meth:`rewrite`) or a bare expression, which executes as-stated.
        ``backend`` names a registered substrate to try first — the router
        still falls back along LA-capable backends on
        :class:`~repro.exceptions.ExecutionError`.
        """
        if isinstance(plan, mx.Expr):
            plan = RewriteResult.as_stated(plan)
        router = self.router
        if backend is not None and backend not in router.backends:
            raise ConfigError(
                f"unknown backend {backend!r}; this engine registered "
                f"{sorted(router.backends)}"
            )
        return router.execute(plan, backend)

    # ------------------------------------------------------------------ stats
    def stats_dict(self) -> dict:
        """JSON-ready snapshot of this workspace's planning-pool counters."""
        return self.pool.stats_dict()


class Engine:
    """The one typed entry point over planner, service, backends and gateway.

    Parameters
    ----------
    catalog / views / estimator:
        The single-catalog surface: these become the registry's
        ``"default"`` workspace (mutually exclusive with ``workspaces``).
        ``catalog`` is optional for plan-only use; execution and serving
        require one and fail with an actionable
        :class:`~repro.exceptions.ConfigError` otherwise.
    config:
        An :class:`~repro.config.EngineConfig` (or a
        :class:`~repro.config.PlannerConfig`, or a mapping of
        ``EngineConfig`` fields).  Validated — invalid values raise at
        construction, not at first use.  ``config.service`` and
        ``config.gateway`` apply engine-wide; ``config.planner`` configures
        the default workspace of the single-catalog surface.  Registered
        workspaces carry their own :class:`~repro.config.PlannerConfig` —
        combining ``workspaces`` with a non-default ``config.planner``
        raises, never silently ignores.
    registry:
        A :class:`~repro.backends.registry.BackendRegistry`; by default the
        stock substrates.  Each workspace's router gets one fresh instance
        of every registered backend; pass a smaller registry for fewer.
    workspaces:
        A :class:`~repro.api.WorkspaceRegistry` of named tenant bundles for
        multi-workspace serving; access them via :meth:`workspace`.
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        views: Sequence[LAView] = (),
        estimator=None,
        config: Union[EngineConfig, PlannerConfig, Mapping, None] = None,
        registry: Optional[BackendRegistry] = None,
        workspaces: Optional[WorkspaceRegistry] = None,
    ):
        self.config = _coerce_engine_config(config)
        self.registry = registry if registry is not None else BackendRegistry.with_defaults()
        self._handles: Dict[str, WorkspaceHandle] = {}
        self._handles_lock = threading.Lock()
        #: Per-workspace build serialization: N racers for one cold tenant
        #: must not each compile a constraint program only to discard all
        #: but one — they wait on the single build instead.  Per-name so
        #: one tenant's build never blocks another's.
        self._build_locks: Dict[str, threading.Lock] = {}
        if workspaces is not None:
            if catalog is not None or len(tuple(views)) or estimator is not None:
                raise ConfigError(
                    "Engine got both a WorkspaceRegistry and single-catalog "
                    "arguments (catalog/views/estimator); register the latter "
                    "as a workspace instead"
                )
            if self.config.planner != PlannerConfig():
                # Planning knobs live on each workspace bundle; silently
                # ignoring an engine-wide planner config here would hand
                # the operator default-knob plans with no error.
                raise ConfigError(
                    "Engine got both a WorkspaceRegistry and a non-default "
                    "EngineConfig.planner; planner options are per-workspace "
                    "— set them on each Workspace's config instead"
                )
            self.workspaces = workspaces
        else:
            self.workspaces = WorkspaceRegistry()
            self.workspaces.register(
                DEFAULT_WORKSPACE,
                catalog=catalog,
                views=views,
                config=self.config.planner,
                estimator=estimator,
            )
            # Built eagerly so configuration errors (bad estimator name,
            # invalid views) surface here.
            self.workspace()
        #: The AnalyticsGateway once built; typed loosely because the
        #: server package is imported lazily (``serve`` is optional).
        self._gateway: Optional[Any] = None

    # ------------------------------------------------------------------ workspaces
    def workspace(self, name: Optional[str] = None) -> WorkspaceHandle:
        """A typed handle on the named workspace (default: the default one).

        Resolves the current bundle from the registry and answers the
        cached handle while it still holds that bundle, so repeated calls
        return the same object.  When the bundle moved since the last
        access (a :meth:`WorkspaceRegistry.update`), a fresh handle — pool,
        sessions, cached plans — is built while every other workspace's
        handle is left untouched.  Unknown names raise
        :class:`~repro.exceptions.UnknownWorkspaceError`.
        """
        if name is None:
            name = self.workspaces.default_name
        while True:
            snapshot = self._snapshot(name)
            handle = self._cached(name, snapshot)
            if handle is not None:
                return handle
            # Built OUTSIDE _handles_lock (one tenant's build must not
            # stall another's handle resolution) but UNDER this name's
            # build lock, so concurrent cold-start racers wait on a single
            # compile instead of each burning one.
            with self._build_lock_for(name):
                handle = self._cached(name, snapshot)
                if handle is not None:
                    return handle  # built while we waited
                # Re-read before compiling: the bundle may have moved while
                # we waited on the lock, and a superseded snapshot must not
                # cost a constraint-program compile just to be discarded.
                if self._snapshot(name) is not snapshot:
                    continue
                fresh = WorkspaceHandle(self, snapshot)
                try:
                    with self._handles_lock:
                        if self.workspaces.get(name) is snapshot:
                            self._handles[name] = fresh
                            return fresh
                except UnknownWorkspaceError:
                    self._reap(name)
                    raise
            # The bundle moved while we were building (update or
            # remove+re-register): never install — or serve — a handle for
            # a superseded snapshot; resolve the current one instead.

    def _snapshot(self, name: str) -> Workspace:
        """The registered bundle of ``name``; an unknown name reaps its handle
        (pool, sessions, cached plans) and raises ``UnknownWorkspaceError``."""
        try:
            return self.workspaces.get(name)
        except UnknownWorkspaceError:
            self._reap(name)
            raise

    def _reap(self, name: str) -> None:
        with self._handles_lock:
            self._handles.pop(name, None)
            self._build_locks.pop(name, None)

    def _cached(self, name: str, snapshot: Workspace) -> Optional[WorkspaceHandle]:
        """The cached handle of ``name`` if it holds ``snapshot``: the registry
        hands out the stored Workspace object itself, so identity, not the
        version number, decides whether a handle reflects the bundle."""
        with self._handles_lock:
            handle = self._handles.get(name)
            return handle if handle is not None and handle._workspace is snapshot else None

    def _build_lock_for(self, name: str) -> threading.Lock:
        with self._handles_lock:
            return self._build_locks.setdefault(name, threading.Lock())

    def workspace_names(self) -> Tuple[str, ...]:
        """The registered workspace names, sorted."""
        return self.workspaces.names()

    def has_workspace(self, name: str) -> bool:
        """Whether ``name`` is registered (cheap; never builds anything)."""
        return name in self.workspaces

    def handle_ready(self, name: str) -> bool:
        """Whether ``name``'s handle is built for its current bundle.

        A cheap probe (two dict lookups, no building): the gateway uses it
        to keep cached-handle resolution inline on the event loop while
        offloading first-request/post-update builds to a worker thread.
        """
        try:
            snapshot = self.workspaces.get(name)
        except UnknownWorkspaceError:
            return False
        return self._cached(name, snapshot) is not None

    def register_workspace(self, name: str, **fields) -> WorkspaceHandle:
        """Register a workspace bundle and return its handle (convenience
        for :meth:`WorkspaceRegistry.register` + :meth:`workspace`)."""
        self.workspaces.register(name, **fields)
        return self.workspace(name)

    def describe_workspaces(self) -> List[dict]:
        """JSON-ready workspace summaries (the ``/v1/workspaces`` payload)."""
        return self.workspaces.describe()

    def describe_workspace(self, name: str) -> dict:
        """JSON-ready summary of one workspace.

        Reads the registry snapshot only — no handle (pool, sessions) is
        built, so describing a registered-but-idle tenant stays cheap.
        """
        return self.workspaces.get(name).describe()

    @property
    def default_workspace_name(self) -> Optional[str]:
        """The default route for requests without a workspace, if present."""
        name = self.workspaces.default_name
        return name if name in self.workspaces else None

    def _default_handle(self, what: str) -> WorkspaceHandle:
        name = self.workspaces.default_name
        if name not in self.workspaces:
            raise ConfigError(
                f"this engine has no {name!r} workspace, which {what} targets; "
                f"use engine.workspace(<name>) with one of "
                f"{list(self.workspaces.names())} or register a default"
            )
        return self.workspace(name)

    # ------------------------------------------------------------------ default-workspace surface
    # The single-catalog attribute and method surface, delegated to the
    # default workspace.
    @property
    def catalog(self) -> Optional[Catalog]:
        return self._default_handle("Engine.catalog").catalog

    @property
    def views(self) -> List[LAView]:
        return list(self._default_handle("Engine.views").views)

    @property
    def estimator(self) -> Optional[object]:
        return self._default_handle("Engine.estimator").estimator

    @property
    def pool(self) -> PlanSessionPool:
        return self._default_handle("Engine.pool").pool

    @property
    def router(self) -> ExecutionRouter:
        """The default workspace's plan router (built on first use)."""
        return self._default_handle("Engine.router").router

    @property
    def service(self) -> AnalyticsService:
        """The default workspace's service (built on first use)."""
        return self._default_handle("Engine.service").service

    def rewrite(self, expr: mx.Expr) -> RewriteResult:
        """Find the minimum-cost equivalent of ``expr``.

        Synchronous, thread-safe, and byte-identical to a bare
        :meth:`PlanSession.rewrite <repro.planner.PlanSession.rewrite>`
        under the same :class:`~repro.config.PlannerConfig`: plans in the
        default workspace, through its pool's shared session.
        """
        return self._default_handle("Engine.rewrite").rewrite(expr)

    def rewrite_all(self, expressions: Iterable[mx.Expr]) -> List[RewriteResult]:
        """Rewrite a batch, planning each distinct fingerprint exactly once."""
        return self._default_handle("Engine.rewrite_all").rewrite_all(expressions)

    def submit(self, item: RequestLike) -> ServiceResult:
        """Plan (and execute, unless the request opts out) one request."""
        return self._default_handle("Engine.submit").submit(item)

    def submit_many(
        self, items: Iterable[RequestLike], workers: Optional[int] = None
    ) -> List[ServiceResult]:
        """Plan a batch concurrently (``config.service.plan_workers`` wide)."""
        return self._default_handle("Engine.submit_many").submit_many(
            items, workers=workers
        )

    def submit_hybrid(self, query, execute: bool = True) -> ServiceResult:
        """Route a hybrid RA+LA query through the service."""
        return self._default_handle("Engine.submit_hybrid").submit_hybrid(
            query, execute=execute
        )

    def execute(
        self,
        plan: Union[RewriteResult, mx.Expr],
        backend: Optional[str] = None,
    ) -> RoutedExecution:
        """Run a finished plan on an execution substrate (default workspace)."""
        return self._default_handle("Engine.execute").execute(plan, backend=backend)

    # ------------------------------------------------------------------ deltas
    def apply_delta(self, name: Optional[str], delta) -> "RevalidationReport":
        """Apply a catalog delta to a workspace, revalidating selectively.

        The registry installs the new snapshot (catalog mutated in place,
        views re-derived, version bumped); if the
        workspace has a built handle, it is *kept* — the engine swaps the
        snapshot in and asks the handle's pool to revalidate its shared
        plan cache against the delta's footprint instead of rebuilding pool,
        sessions and cached plans from scratch (contrast
        :meth:`WorkspaceRegistry.update`, which discards the handle on next
        access).  Returns the pool's
        :class:`~repro.catalog.delta.RevalidationReport`; a workspace with
        no built handle reports zero kept / zero revalidated.
        """
        from repro.catalog.delta import RevalidationReport

        if name is None:
            name = self.workspaces.default_name
        snapshot = self.workspaces.apply_delta(name, delta)
        with self._handles_lock:
            handle = self._handles.get(name)
            if handle is not None:
                # Adopt the new snapshot in place: identity is what
                # :meth:`workspace` checks, so handle resolution keeps
                # hitting this handle instead of rebuilding it.
                handle._workspace = snapshot
        if handle is None:
            return RevalidationReport(
                workspace=snapshot.runtime_key,
                touched=tuple(sorted(delta.touched_names())),
                selective=delta.selective,
            )
        if delta.touches_views:
            # The lazily built service captured the old view list for its
            # hybrid path; drop it so the next use rebuilds against the new
            # snapshot (the router only holds the catalog, shared in place).
            with handle._lock:
                handle._service = None
        # Outside _handles_lock: revalidation may rebuild the pool's
        # session (view-touching deltas), and one tenant's delta must not
        # stall another tenant's handle resolution.  Requests racing this
        # window simply miss (the catalog version already moved) and replan.
        return handle.pool.apply_delta(delta, workspace=snapshot.runtime_key)

    # ------------------------------------------------------------------ serving
    def build_gateway(self, **overrides):
        """The asyncio gateway over this engine's workspaces (not started).

        ``overrides`` patch individual :class:`~repro.config.GatewayConfig`
        fields (validated); the result is cached, so :meth:`serve` and the
        caller observe one gateway per engine.  The gateway routes
        per-request ``workspace`` fields across every registered workspace
        and serves ``/v1/workspaces``.
        """
        if self._gateway is None:
            from repro.server.gateway import AnalyticsGateway

            gateway_config: GatewayConfig = (
                self.config.gateway.with_options(**overrides)
                if overrides
                else self.config.gateway
            )
            # The gateway resolves workspace services lazily (including the
            # default, through its own ``service`` property), so a registry
            # holding plan-only workspaces still serves every other tenant;
            # unservable workspaces answer 422 per request instead of
            # failing the whole gateway here.
            self._gateway = AnalyticsGateway(self, gateway_config)
        elif overrides:
            raise ConfigError(
                "this engine already built its gateway; configure it via "
                "EngineConfig.gateway (or build_gateway overrides) before first use"
            )
        return self._gateway

    async def serve(self, **overrides):
        """Start (and return) the gateway bound to this engine.

        Usage::

            gateway = await engine.serve()
            ...
            await gateway.stop()
        """
        gateway = self.build_gateway(**overrides)
        await gateway.start()
        return gateway

    # ------------------------------------------------------------------ derivation
    def with_views(self, views: Sequence[LAView]) -> "Engine":
        """A new engine over the same catalog/config using another view set.

        A default-workspace convenience (multi-workspace engines
        reconfigure tenants through :meth:`WorkspaceRegistry.update`).
        """
        handle = self._default_handle("Engine.with_views")
        return Engine(
            catalog=handle.catalog,
            views=views,
            estimator=handle.estimator,
            config=self.config,
            registry=self.registry,
        )

    def stats_dict(self) -> dict:
        """JSON-ready snapshot of every built workspace's pool counters.

        Single-workspace engines keep the historical flat shape; engines
        with more than one built handle nest per-workspace summaries under
        ``"workspaces"``.
        """
        registered = set(self.workspaces.names())
        with self._handles_lock:
            # Drop handles (and build locks) of workspaces removed from the
            # registry so the snapshot never reports or retains deleted tenants.
            for name in (set(self._handles) | set(self._build_locks)) - registered:
                self._handles.pop(name, None)
                self._build_locks.pop(name, None)
            handles = dict(self._handles)
        if set(handles) == {self.workspaces.default_name}:
            return handles[self.workspaces.default_name].pool.stats_dict()
        return {
            "workspaces": {
                name: handle.pool.stats_dict() for name, handle in sorted(handles.items())
            }
        }


__all__ = ["Engine", "WorkspaceHandle"]
