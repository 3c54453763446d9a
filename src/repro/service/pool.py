"""Thread-safe pooling of plan sessions over one shared plan store.

A :class:`~repro.planner.session.PlanSession` is deliberately
single-threaded: a rewrite mutates the saturation engine, so N concurrent
planners must not share one.  The :class:`PlanSessionPool` solves this the
way connection pools do:

* **exclusive checkout** — :meth:`acquire` hands each thread a session no
  other thread holds, building new ones from the pool's factory on demand;
* **catalog-version generations** — only idle sessions built against the
  current catalog version are handed out; a catalog change evicts the stale
  generation wholesale, and a session checked out across a change is
  dropped on release;
* **LRU bounding** — at most ``max_sessions`` idle sessions are retained;
* **one plan store** — :meth:`plan` goes through the pool's
  :class:`~repro.planner.cache.PlanStore`, which plans each key once; the
  leader runs the uncached :meth:`PlanSession.plan` on a checked-out
  session, so pooled sessions hold no plans of their own;
* **non-blocking reads** — :meth:`lookup` answers a stored key and returns
  ``None`` otherwise (a miss, a leader still planning, a busy lock), so an
  event loop can call it and send only the ``None`` cases to :meth:`plan`;
* **selective revalidation** — :meth:`apply_delta` evicts the plans whose
  footprint a catalog delta touches and re-keys the rest.

Keys are :meth:`PlanSession.cache_key` in the pool's ``workspace``, so
a catalog change implicitly invalidates shared plans and two tenants never
share a cached plan.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple, TYPE_CHECKING

from repro.core.result import RewriteResult
from repro.lang import matrix_expr as mx
from repro.planner.cache import PlanKey, PlanStore
from repro.planner.session import PlanSession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.delta import CatalogDelta, RevalidationReport

SessionFactory = Callable[[], PlanSession]


@dataclass
class PoolStats:
    """Counters describing the pool's behaviour (exposed in benchmarks).

    The plan counters are the pool's store's own, read through.
    """

    store: PlanStore = field(repr=False)
    sessions_created: int = 0
    sessions_evicted: int = 0
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
            "sessions_evicted": self.sessions_evicted,
            "plans_computed": self.plans_computed,
            "shared_hits": self.shared_hits,
            "single_flight_waits": self.single_flight_waits,
            "plans_revalidated": self.plans_revalidated,
            "plans_kept_warm": self.plans_kept_warm,
        }


class PlanSessionPool:
    """A bounded pool of exclusive plan sessions, keyed to the catalog version.

    Parameters
    ----------
    session_factory:
        Zero-argument callable building a fresh, fully configured
        :class:`PlanSession`.  Every session the pool manages comes from
        this factory, so all of them plan under identical options (same
        views, constraints, budgets) and produce identical plans.  The
        pool's :class:`PlanStore` takes its capacity from the first one's
        ``cache_size``.
    max_sessions:
        Upper bound on *idle* sessions retained in the current
        catalog-version generation (older generations are evicted wholesale
        on any catalog change, never kept).  Checked-out sessions are never
        counted or reclaimed; releasing beyond the bound drops the
        least-recently-released session.
    workspace:
        Workspace identity set on every stored key (empty for the classic
        single-tenant pool).  The multi-workspace engine passes
        ``"<name>@v<version>"`` so plans cached for one tenant — or one
        version of a tenant's bundle — can never be served to another.
    """

    def __init__(
        self,
        session_factory: SessionFactory,
        max_sessions: int = 8,
        workspace: str = "",
    ):
        if max_sessions <= 0:
            raise ValueError("PlanSessionPool max_sessions must be positive")
        self._factory = session_factory
        self.workspace = str(workspace)
        self.max_sessions = int(max_sessions)
        self._lock = threading.Lock()
        #: Idle sessions of the current generation, oldest release first
        #: (the LRU order); ``_idle_version`` is the catalog version the
        #: whole generation is valid for.
        self._idle: List[PlanSession] = []
        self._idle_version: Optional[Tuple[int, int]] = None
        #: Generation each live session was built against — the pair
        #: *(catalog version, view generation)*.  A session checked out
        #: across a catalog or view-set change must not be re-tagged as
        #: fresh on release — its view metadata and constraint program may
        #: predate the change — so eviction decisions use this tag, not the
        #: generation current at release time.
        self._built_under: "weakref.WeakKeyDictionary[PlanSession, Tuple[int, int]]" = (
            weakref.WeakKeyDictionary()
        )
        #: Bumped whenever a delta swaps the view set: the catalog version
        #: alone cannot see a pure view change (dropping a view leaves the
        #: catalog untouched), so idle-session staleness keys on the pair.
        self._view_generation = 0
        #: Built eagerly: computes cache keys for :meth:`plan` without a
        #: checkout (key computation only reads session configuration).
        self._prototype = self._factory()
        self.store = PlanStore(self._prototype.store.capacity)
        self.stats = PoolStats(self.store, sessions_created=1)
        self._built_under[self._prototype] = self._generation()
        self.release(self._prototype)

    # ------------------------------------------------------------------ versioning
    def _catalog_version(self) -> int:
        catalog = self._prototype.catalog
        return catalog.version if catalog is not None else -1

    def _generation(self) -> Tuple[int, int]:
        return (self._catalog_version(), self._view_generation)

    def _evict_stale_locked(self, current: Tuple[int, int]) -> None:
        if self._idle_version != current:
            self.stats.sessions_evicted += len(self._idle)
            self._idle.clear()
            self._idle_version = current

    # ------------------------------------------------------------------ checkout
    def acquire(self) -> PlanSession:
        """Check out a session for exclusive use (build one if none is idle).

        An idle generation parked under a stale catalog version is evicted
        on the way; the returned session always matches the current catalog.
        """
        with self._lock:
            self._evict_stale_locked(self._generation())
            if self._idle:
                return self._idle.pop()
        session, tag = self._build_session()
        with self._lock:
            self.stats.sessions_created += 1
            self._built_under[session] = tag
        return session

    def _build_session(self):
        """Build a session and determine the catalog version it reflects.

        Construction itself may bump the catalog (first-time registration
        of view metadata), and unrelated threads may register matrices
        concurrently; either way the version moving during construction
        means the session's derived state cannot be trusted to reflect the
        final catalog.  Retry until a build completes with the version
        unchanged; if churn persists past the retry budget, tag the session
        with the pre-build version so :meth:`release` conservatively drops
        it after one use instead of pooling possibly-stale state.
        """
        for _ in range(3):
            before = self._generation()
            session = self._factory()
            after = self._generation()
            if after == before:
                return session, after
        return session, before

    def release(self, session: PlanSession) -> None:
        """Return a session to the pool (or drop it when stale / over the bound).

        A session whose build-time catalog version no longer matches the
        current one is dropped rather than parked: re-tagging it as fresh
        would hand out a planner whose derived view metadata predates the
        catalog change.
        """
        with self._lock:
            version = self._generation()
            self._evict_stale_locked(version)
            if self._built_under.get(session, version) != version:
                self.stats.sessions_evicted += 1
                return
            self._idle.append(session)
            while len(self._idle) > self.max_sessions:
                self._idle.pop(0)
                self.stats.sessions_evicted += 1

    @property
    def idle_count(self) -> int:
        with self._lock:
            return len(self._idle)

    @property
    def estimator_name(self) -> str:
        """The registered estimator name every pooled session plans with
        (read off the prototype; public so describe surfaces need not
        reach into pool internals)."""
        return self._prototype.config.estimator

    @contextmanager
    def checkout(self) -> Iterator[PlanSession]:
        """``with pool.checkout() as session:`` — acquire/release guard."""
        session = self.acquire()
        try:
            yield session
        finally:
            self.release(session)

    # ------------------------------------------------------------------ planning
    def _shared_key(self, expr: mx.Expr) -> PlanKey:
        """The session key in this pool's workspace.

        Key computation (expression fingerprint + view-set key) only reads
        the prototype's configuration, so it is safe concurrently and needs
        no checkout.
        """
        return self._prototype.cache_key(expr, self.workspace)

    def _plan_checked_out(self, expr: mx.Expr) -> RewriteResult:
        with self.checkout() as session:
            return session.plan(expr)

    def lookup(self, expr: mx.Expr) -> Optional[RewriteResult]:
        """The cached plan of ``expr`` as :meth:`plan` would return it, or ``None``.

        Never plans, waits, checks out a session or blocks (see
        :meth:`PlanStore.lookup`), so it is safe to call from an event loop.
        ``None`` means "go through :meth:`plan`", not "not cached".
        """
        return self.store.lookup(self._shared_key(expr))

    def plan(self, expr: mx.Expr) -> RewriteResult:
        """Rewrite ``expr``, planning each distinct key exactly once.

        Safe to call from any number of threads concurrently; single
        flight, hit copies and failure handling are
        :meth:`PlanStore.get_or_plan`'s.
        """
        return self.store.get_or_plan(
            lambda: self._shared_key(expr), lambda: self._plan_checked_out(expr)
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
        warm.  A view-touching delta additionally rebuilds the prototype
        (the old compiled constraint program no longer matches) and retires
        the idle session generation.

        Soundness of keeping a plan rests on the footprint argument (see
        :mod:`repro.catalog.footprint`): a mutation touching none of the
        names a plan consulted cannot change what the chase derives or any
        cost the extractor reads, so the cached bytes equal a cold re-plan.
        """
        from repro.catalog.delta import RevalidationReport

        touched = delta.touched_names()
        with self._lock:
            if workspace is not None:
                self.workspace = str(workspace)
            if delta.touches_views:
                # The compiled view constraints changed shape: retire every
                # pooled session and rebuild the key-computing prototype
                # against the new view set (the factory reads the updated
                # workspace snapshot).
                self._view_generation += 1
                self.stats.sessions_evicted += len(self._idle)
                self._idle.clear()
                self._prototype = self._factory()
                self.stats.sessions_created += 1
                self._built_under[self._prototype] = self._generation()
            self._evict_stale_locked(self._generation())
            prototype = self._prototype
            kept, revalidated = self.store.revalidate(
                touched if delta.selective else None,
                workspace=self.workspace,
                viewset=prototype.viewset_key,
                catalog_version=self._catalog_version(),
                options=prototype.options_key,
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
        event loop, and a delta can hold the lock for a whole prototype
        rebuild.  Every value is one attribute or ``len`` read, so a snapshot
        taken beside a running plan may be a counter behind, never torn
        inside a value; at rest it is exact.
        """
        summary = self.stats.as_dict()
        summary["idle_sessions"] = len(self._idle)
        summary["result_cache"] = self.store.stats()
        summary["revalidation_index"] = len(self.store)
        if self.workspace:
            summary["workspace"] = self.workspace
        return summary


__all__ = ["PlanSessionPool", "PoolStats", "SessionFactory"]
