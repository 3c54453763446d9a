"""One shared plan session per workspace view set, over one plan store.

A :class:`~repro.planner.session.PlanSession` is frozen after construction:
its :class:`~repro.config.PlannerConfig`, compiled constraint program and
saturation engine are only read by a rewrite, and everything a rewrite
writes lives in that rewrite's own
:class:`~repro.planner.stages.PlanContext` and
:class:`~repro.vrem.instance.VremInstance`.  Any number of threads may
therefore plan on one session at once, and the :class:`PlanSessionPool`
keeps exactly one per *view generation*, that is per view-touching delta:

* **one session per view set** — a session is a function of its views,
  config, estimator and base constraints only: view constraints drop
  ``type`` atoms and carry no shapes, the estimators are stateless, and
  every rewrite reads the catalog live.  A catalog change therefore keeps
  the session; only a view-touching :meth:`apply_delta` rebuilds it, once.
  The session's one write to the catalog — storage-name metadata for its
  views — is re-run after the catalog moved (by :meth:`apply_delta`, or
  by the first planning leader after any other change), so a change that
  drops it (``DropRelation`` of a view's name) or makes it stale (a
  ``ReStat`` of a matrix a view reads) plans as a cold engine would;
* **one plan store** — :meth:`plan` goes through the pool's
  :class:`~repro.planner.cache.PlanStore`, which plans each key once; the
  leader runs the uncached :meth:`PlanSession.plan`, so the session holds
  no plans of its own;
* **non-blocking reads** — :meth:`lookup` answers a stored key and returns
  ``None`` otherwise (a miss, a leader still planning, a busy lock); it
  never builds a session or takes the pool lock, so an event loop can call
  it and send only the ``None`` cases to :meth:`plan`;
* **selective revalidation** — :meth:`apply_delta` evicts the plans whose
  footprint a catalog delta touches and re-keys the rest.

Keys are :meth:`PlanSession.cache_key` in the pool's ``workspace``; they
carry the catalog version, so a catalog change implicitly invalidates
shared plans (and a plan racing one is never published), and two tenants
never share a cached plan.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING

from repro.config import PlannerConfig
from repro.core.result import RewriteResult
from repro.lang import matrix_expr as mx
from repro.planner.cache import PlanKey, PlanStore
from repro.planner.session import PlanSession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.delta import CatalogDelta, RevalidationReport

SessionFactory = Callable[[], PlanSession]


@dataclass
class PoolStats:
    """Counters describing the pool's behaviour; ``sessions_created``
    counts session builds, the plan counters are the store's, read through."""

    store: PlanStore = field(repr=False)
    sessions_created: int = 0
    plans_revalidated: int = 0
    plans_kept_warm: int = 0

    @property
    def plans_computed(self) -> int:
        return self.store.planned

    @property
    def shared_hits(self) -> int:
        return self.store.hits

    @property
    def single_flight_waits(self) -> int:
        return self.store.waits

    def as_dict(self) -> dict:
        """JSON-ready snapshot of the counters."""
        return {
            "sessions_created": self.sessions_created,
            "plans_computed": self.plans_computed,
            "shared_hits": self.shared_hits,
            "single_flight_waits": self.single_flight_waits,
            "plans_revalidated": self.plans_revalidated,
            "plans_kept_warm": self.plans_kept_warm,
        }


class PlanSessionPool:
    """One shared plan session per workspace view set, over one plan store.

    Parameters
    ----------
    session_factory:
        Zero-argument callable building a fresh, fully configured
        :class:`PlanSession` for the current view set.  The pool calls it
        once at construction and once per view-touching delta; every
        session plans under identical options (same constraints, budgets),
        and the pool's :class:`PlanStore` takes its capacity from the first
        one's ``cache_size``.
    workspace:
        Workspace identity set on every stored key (empty for the classic
        single-tenant pool).  The multi-workspace engine passes
        ``"<name>@v<version>"`` so plans cached for one tenant — or one
        version of a tenant's bundle — can never be served to another.
    """

    def __init__(self, session_factory: SessionFactory, workspace: str = ""):
        self._factory = session_factory
        self.workspace = str(workspace)
        self._lock = threading.Lock()
        self._session = self._factory()
        #: Catalog version at which the session's view metadata was last
        #: registered (see :meth:`_current_session`).
        self._metadata_version = self._catalog_version()
        self.store = PlanStore(self._session.store.capacity)
        self.stats = PoolStats(self.store, sessions_created=1)

    # ------------------------------------------------------------------ versioning
    def _catalog_version(self) -> int:
        catalog = self._session.catalog
        return catalog.version if catalog is not None else -1

    def _current_session(self) -> PlanSession:
        """The installed session, its views' storage metadata registered.

        The session survives catalog changes, but the metadata it
        registered for its views' storage names lives in the catalog and
        may have been dropped or made stale since.  The first leader after
        a catalog change :meth:`apply_delta` did not see re-registers it,
        under the pool lock.  That bumps the catalog version when it writes
        anything, so the plan this leader returns is not published (its key
        moved), exactly as after a fresh build; the next miss publishes.
        """
        session = self._session
        if self._metadata_version == self._catalog_version():
            return session
        with self._lock:
            session = self._session
            if self._metadata_version != self._catalog_version():
                session.register_view_metadata()
                self._metadata_version = self._catalog_version()
            return session

    @property
    def planner_config(self) -> PlannerConfig:
        """The config every session of this pool plans with (its
        ``estimator`` is the registered name in use)."""
        return self._session.config

    @property
    def estimator(self) -> object:
        """The estimator object the pool's sessions plan with."""
        return self._session.estimator

    # ------------------------------------------------------------------ planning
    def _shared_key(self, expr: mx.Expr) -> PlanKey:
        """The session key in this pool's workspace (builds nothing, takes
        no pool lock: it only reads the installed session's configuration)."""
        return self._session.cache_key(expr, self.workspace)

    def lookup(self, expr: mx.Expr) -> Optional[RewriteResult]:
        """The cached plan of ``expr`` as :meth:`plan` would return it, or ``None``.

        Never plans, waits, builds a session or blocks (see
        :meth:`PlanStore.lookup`), so it is safe to call from an event loop.
        ``None`` means "go through :meth:`plan`", not "not cached".
        """
        return self.store.lookup(self._shared_key(expr))

    def plan(self, expr: mx.Expr) -> RewriteResult:
        """Rewrite ``expr``, planning each distinct key exactly once.

        Safe to call from any number of threads concurrently; single
        flight, hit copies and failure handling are
        :meth:`PlanStore.get_or_plan`'s.  The leader plans on the installed
        session (see :meth:`_current_session`).
        """
        return self.store.get_or_plan(
            lambda: self._shared_key(expr), lambda: self._current_session().plan(expr)
        )

    def invalidate(self) -> None:
        """Drop every shared plan (catalog changes do this implicitly)."""
        self.store.clear()

    # ------------------------------------------------------------------ deltas
    def apply_delta(
        self, delta: "CatalogDelta", workspace: Optional[str] = None
    ) -> "RevalidationReport":
        """Selectively revalidate the warm cache after a catalog delta.

        Call *after* the delta has been applied to the catalog (and the new
        workspace snapshot installed, for pools serving a multi-tenant
        engine — pass its new ``runtime_key`` as ``workspace``).  Entries
        whose footprint intersects the delta's touched names — plus every
        entry without a footprint, and everything when the delta is
        non-selective — are evicted; all other plans are re-keyed under the
        new *(workspace, view-set, catalog-version)* coordinates and stay
        warm.  A view-touching delta additionally rebuilds the session at
        once (the old compiled constraint program no longer matches); any
        other delta keeps it.  Either way the session re-derives its views'
        storage metadata first, and the names it rewrites count as touched:
        a plan costed with a view's old numbers is evicted.

        Soundness of keeping a plan rests on the footprint argument (see
        :mod:`repro.catalog.footprint`): a mutation touching none of the
        names a plan consulted cannot change what the chase derives or any
        cost the extractor reads, so the cached bytes equal a cold re-plan.
        """
        from repro.catalog.delta import RevalidationReport

        with self._lock:
            if workspace is not None:
                self.workspace = str(workspace)
            if delta.touches_views:
                # The compiled view constraints changed shape: rebuild the
                # session against the new view set (the factory reads the
                # updated workspace snapshot).  The view metadata the old
                # session registered stays the new one's to re-derive.
                fresh = self._factory()
                fresh.view_metadata = {**self._session.view_metadata, **fresh.view_metadata}
                self._session = fresh
                self.stats.sessions_created += 1
            session = self._session
            touched = delta.touched_names() | session.register_view_metadata()
            self._metadata_version = self._catalog_version()
            kept, revalidated = self.store.revalidate(
                touched if delta.selective else None,
                workspace=self.workspace,
                viewset=session.viewset_key,
                catalog_version=self._catalog_version(),
                options=session.options_key,
            )
            self.stats.plans_revalidated += revalidated
            self.stats.plans_kept_warm += kept
            workspace_name = self.workspace
        return RevalidationReport(
            workspace=workspace_name,
            touched=tuple(sorted(touched)),
            selective=delta.selective,
            plans_kept_warm=kept,
            plans_revalidated=revalidated,
        )

    def stats_dict(self) -> dict:
        """JSON-ready snapshot: pool counters plus shared-cache stats.

        Taken without ``_lock``: the gateway's ``/healthz`` calls this on the
        event loop, and a delta can hold the lock for a whole session
        rebuild.  Every value is one attribute or ``len`` read, so a snapshot
        taken beside a running plan may be a counter behind, never torn
        inside a value; at rest it is exact.
        """
        summary = self.stats.as_dict()
        summary["result_cache"] = self.store.stats()
        summary["revalidation_index"] = len(self.store)
        if self.workspace:
            summary["workspace"] = self.workspace
        return summary


__all__ = ["PlanSessionPool", "PoolStats", "SessionFactory"]
