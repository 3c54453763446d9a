"""Thread-safe pooling of plan sessions with single-flight shared planning.

A :class:`~repro.planner.session.PlanSession` is deliberately
single-threaded: a rewrite mutates the saturation engine and the session's
LRU cache, so N concurrent planners must not share one.  The
:class:`PlanSessionPool` solves this the way connection pools do:

* **exclusive checkout** — :meth:`acquire` hands each thread a session no
  other thread holds, building new ones from the pool's factory on demand;
* **catalog-version generations** — every idle session belongs to the
  catalog version it was built and validated against, and only the current
  generation is ever handed out; when the catalog changes (registrations
  bump :attr:`repro.data.catalog.Catalog.version`), the stale generation is
  evicted wholesale instead of serving sessions with possibly stale view
  metadata, and a session checked out across a change is dropped on
  release;
* **LRU bounding** — at most ``max_sessions`` idle sessions are retained;
  beyond that the least-recently-released one is dropped (compiled
  constraint programs are cheap to rebuild, memory is not free);
* **single-flight planning** — :meth:`plan` memoizes finished plans in a
  pool-level, lock-guarded :class:`~repro.planner.cache.RewriteCache` and
  coordinates concurrent requests for the same cache key so that the plan
  is computed exactly once: one thread (the leader) plans, every other
  thread waits on an event and is then served a private copy marked
  ``cache_hit=True``;
* **non-blocking reads** — :meth:`lookup` answers a key whose plan is
  already in that cache with the same private copy, and ``None`` in every
  other case (a miss, a leader still planning, a busy lock), so an event
  loop can call it and send only the ``None`` cases on to :meth:`plan`.

The pool never inspects expression semantics; keys come from
:meth:`PlanSession.cache_key`, i.e. *(expression fingerprint, view-set key,
catalog version)*, so a catalog change implicitly invalidates shared plans
exactly as it does per-session ones.  A pool built for a tenant workspace
additionally prefixes every key with its ``workspace`` identity — two
tenants can therefore never share a cached plan even if their pools were
ever handed the same underlying cache, while identical *(fingerprint,
view-set, config)* requests still dedup within one tenant.
"""

from __future__ import annotations

import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.core.result import RewriteResult
from repro.lang import matrix_expr as mx
from repro.planner.cache import CacheKey, RewriteCache
from repro.planner.session import PlanSession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.delta import CatalogDelta, RevalidationReport
    from repro.catalog.footprint import PlanFootprint

SessionFactory = Callable[[], PlanSession]


@dataclass
class PoolStats:
    """Counters describing the pool's behaviour (exposed in benchmarks)."""

    sessions_created: int = 0
    sessions_evicted: int = 0
    plans_computed: int = 0
    shared_hits: int = 0
    single_flight_waits: int = 0
    plans_revalidated: int = 0
    plans_kept_warm: int = 0

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


class RevalidationIndex:
    """Inverted index: catalog name → shared-cache keys depending on it.

    Maintained at publish time from each result's
    :class:`~repro.catalog.footprint.PlanFootprint`, it lets
    :meth:`PlanSessionPool.apply_delta` identify the entries a delta can
    affect in time proportional to the delta's touched-name set, not the
    cache size.  Entries published without a footprint (results predating
    capture) land in a wildcard bucket and are doomed by *any* delta —
    correctness never depends on capture being present.
    """

    def __init__(self):
        self._by_name: Dict[str, Set[CacheKey]] = {}
        self._wildcard: Set[CacheKey] = set()
        self._names_by_key: Dict[CacheKey, Tuple[str, ...]] = {}

    def record(self, key: CacheKey, footprint: Optional["PlanFootprint"]) -> None:
        self.forget(key)
        if footprint is None:
            self._wildcard.add(key)
            self._names_by_key[key] = ()
            return
        names = tuple(footprint.relations)
        self._names_by_key[key] = names
        for name in names:
            self._by_name.setdefault(name, set()).add(key)

    def forget(self, key: CacheKey) -> None:
        names = self._names_by_key.pop(key, None)
        if names is None:
            return
        if not names:
            self._wildcard.discard(key)
            return
        for name in names:
            bucket = self._by_name.get(name)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_name[name]

    def forget_many(self, keys: Iterable[CacheKey]) -> None:
        for key in keys:
            self.forget(key)

    def candidates(self, touched: Iterable[str]) -> Set[CacheKey]:
        """Keys whose plan a delta touching ``touched`` names might affect."""
        doomed = set(self._wildcard)
        for name in touched:
            doomed.update(self._by_name.get(name, ()))
        return doomed

    def clear(self) -> None:
        self._by_name.clear()
        self._wildcard.clear()
        self._names_by_key.clear()

    def __len__(self) -> int:
        return len(self._names_by_key)


class PlanSessionPool:
    """A bounded pool of exclusive plan sessions, keyed to the catalog version.

    Parameters
    ----------
    session_factory:
        Zero-argument callable building a fresh, fully configured
        :class:`PlanSession`.  Every session the pool manages comes from
        this factory, so all of them plan under identical options (same
        views, constraints, budgets) and produce identical plans.
    max_sessions:
        Upper bound on *idle* sessions retained in the current
        catalog-version generation (older generations are evicted wholesale
        on any catalog change, never kept).  Checked-out sessions are never
        counted or reclaimed; releasing beyond the bound drops the
        least-recently-released session.
    result_cache_size:
        Capacity of the pool-level shared :class:`RewriteCache`.
    workspace:
        Workspace identity prefixed to every shared-cache key (empty for
        the classic single-tenant pool).  The multi-workspace engine passes
        ``"<name>@v<version>"`` so plans cached for one tenant — or one
        version of a tenant's bundle — can never be served to another.
    """

    def __init__(
        self,
        session_factory: SessionFactory,
        max_sessions: int = 8,
        result_cache_size: int = 1024,
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
        self._inflight: Dict[CacheKey, threading.Event] = {}
        self.results = RewriteCache(result_cache_size)
        self.revalidation = RevalidationIndex()
        self.stats = PoolStats()
        #: Built eagerly: computes cache keys for :meth:`plan` without a
        #: checkout (key computation only reads session configuration).
        self._prototype = self._factory()
        self.stats.sessions_created += 1
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
        return self._prototype.estimator_name

    @property
    def planner_config(self):
        """The live :class:`~repro.config.PlannerConfig` snapshot every
        pooled session is built from (read off the prototype)."""
        return self._prototype.current_config()

    @contextmanager
    def checkout(self) -> Iterator[PlanSession]:
        """``with pool.checkout() as session:`` — acquire/release guard."""
        session = self.acquire()
        try:
            yield session
        finally:
            self.release(session)

    # ------------------------------------------------------------------ planning
    def _shared_key(self, expr: mx.Expr) -> CacheKey:
        """The shared-cache key: the session key prefixed by the workspace.

        The workspace component makes tenant isolation structural — a key
        computed for one workspace cannot collide with another's even under
        identical fingerprints, view sets, catalog versions and options.
        """
        return (self.workspace, *self._prototype.cache_key(expr))

    def _hit_locked(self, key: CacheKey, start: float) -> Optional[RewriteResult]:
        """The cached plan under ``key`` as a caller-private hit, or ``None``.

        The one place a shared-cache hit is built (callers hold ``_lock``):
        the stored result is shared, so a hit is always a copy, marked
        ``cache_hit=True`` and carrying the lookup time since ``start``.
        """
        cached = self.results.get(key)
        if cached is None:
            return None
        self.stats.shared_hits += 1
        return cached.copy(cache_hit=True, rewrite_seconds=time.perf_counter() - start)

    def lookup(self, expr: mx.Expr) -> Optional[RewriteResult]:
        """The cached plan of ``expr`` as :meth:`plan` would return it, or ``None``.

        A read that never plans, never waits on an in-flight leader, never
        checks out a session and never blocks: when another thread holds the
        pool lock (a delta revalidating, a leader publishing) the answer is
        ``None`` as well, so it is safe to call from an event loop.  ``None``
        means "go through :meth:`plan`", not "not cached".
        """
        start = time.perf_counter()
        key = self._shared_key(expr)
        if not self._lock.acquire(blocking=False):
            return None
        try:
            # An absent key is not counted as a cache miss here: the request
            # goes on to plan(), whose own probe counts it once.
            return self._hit_locked(key, start) if key in self.results else None
        finally:
            self._lock.release()

    def plan(self, expr: mx.Expr) -> RewriteResult:
        """Rewrite ``expr``, planning each distinct cache key exactly once.

        Safe to call from any number of threads concurrently.  The first
        caller for a key plans on a checked-out session and publishes the
        result in the shared cache; concurrent callers for the same key
        block until it lands and receive private copies marked
        ``cache_hit=True`` whose ``rewrite_seconds`` is the (near-zero)
        lookup time, matching session-level cache-hit semantics — so
        aggregating RW_find over served requests never double-counts the
        leader's planning cost.  A leader that fails wakes the waiters, and
        the next one retries (so deterministic planner errors surface in
        every caller rather than hanging the queue).
        """
        while True:
            # The clock restarts every attempt: a waiter woken by the leader
            # must report its own (near-zero) lookup time, not inherit the
            # leader's planning time through the wait.
            start = time.perf_counter()
            # Key computation (expression fingerprint + view-set key) is
            # read-only on the prototype and safe concurrently; keeping it
            # outside the lock stops it from serializing every planner.
            key = self._shared_key(expr)
            with self._lock:
                hit = self._hit_locked(key, start)
                if hit is not None:
                    return hit
                event = self._inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    leader = True
                else:
                    self.stats.single_flight_waits += 1
                    leader = False
            if not leader:
                event.wait()
                continue
            try:
                with self.checkout() as session:
                    result = session.rewrite(expr)
                with self._lock:
                    # Publish only when the key is unchanged since the probe:
                    # if the catalog (or view set, or workspace identity)
                    # moved mid-plan, this result was planned against the old
                    # state and must not be published under the new key — a
                    # delta that already revalidated the cache would otherwise
                    # be bypassed by a stale leader.  The caller still gets
                    # its result; the next probe simply replans.
                    if self._shared_key(expr) == key:
                        published = result.copy()
                        stale = self.results.put(key, published)
                        self.revalidation.record(key, published.footprint)
                        self.revalidation.forget_many(stale)
                    self.stats.plans_computed += 1
                return result
            finally:
                with self._lock:
                    self._inflight.pop(key, None)
                event.set()

    def invalidate(self) -> None:
        """Drop every shared plan (catalog changes do this implicitly)."""
        with self._lock:
            self.results.clear()
            self.revalidation.clear()

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
        selective = delta.selective
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
            current = self._generation()
            self._evict_stale_locked(current)
            doomed = None if not selective else self.revalidation.candidates(touched)
            survivors = []
            revalidated = 0
            for key, result in self.results.items():
                if doomed is None or key in doomed:
                    revalidated += 1
                else:
                    survivors.append((key, result))
            # Every surviving key carries the old view-set/catalog-version
            # components; rebuild the cache under the new coordinates.
            self.results.clear()
            self.revalidation.clear()
            new_viewset = self._prototype._compute_viewset_key()
            new_version = self._catalog_version()
            new_options = self._prototype.options_key()
            kept = 0
            for key, result in survivors:
                new_key = (self.workspace, key[1], new_viewset, new_version, new_options)
                self.results.put(new_key, result)
                self.revalidation.record(new_key, result.footprint)
                kept += 1
            self.stats.plans_revalidated += revalidated
            self.stats.plans_kept_warm += kept
            workspace_name = self.workspace
        return RevalidationReport(
            workspace=workspace_name,
            touched=tuple(sorted(touched)),
            selective=selective,
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
        summary["result_cache"] = self.results.stats()
        summary["revalidation_index"] = len(self.revalidation)
        if self.workspace:
            summary["workspace"] = self.workspace
        return summary


__all__ = ["PlanSessionPool", "PoolStats", "RevalidationIndex", "SessionFactory"]
