"""The plan store: every cached rewrite result lives in one of these.

HADAD's rewrite overhead stays negligible (§9.1.3) because a finished
rewriting is reused, not re-derived.  A :class:`PlanStore` keeps finished
:class:`~repro.core.result.RewriteResult` objects under a :class:`PlanKey`:
workspace identity (empty for a bare session), expression fingerprint,
view-set key, catalog version (any registration bumps it) and the
plan-affecting options (``PlanSession.options_key``).

Each path has one owner: a bare :class:`~repro.planner.session.PlanSession`
owns one store, and a :class:`~repro.service.PlanSessionPool` owns one for
its workspace (the session it shares caches nothing).

Beside the LRU entries the store keeps a footprint index — catalog name →
keys whose :class:`~repro.catalog.footprint.PlanFootprint` mentions it, plus
a wildcard bucket for entries without one — so :meth:`PlanStore.revalidate`
finds the plans a catalog delta can affect without scanning the others,
and the in-flight events that make :meth:`PlanStore.get_or_plan` single
flight.  Revalidation as a whole is still linear in the store: every
surviving plan is re-keyed, because keys carry the catalog version so that
a request racing the delta misses.  One lock guards all of it.  Stored
results are private copies and every hit is another copy, so callers may
mutate what they are given.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Iterable, NamedTuple, Optional, Set, Tuple

from repro.core.result import RewriteResult


class PlanKey(NamedTuple):
    """The key every cached plan is stored under."""

    workspace: str
    fingerprint: str
    viewset: Hashable
    catalog_version: int
    options: Tuple


class PlanStore:
    """A bounded, lock-guarded, single-flight LRU of finished plans."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("PlanStore capacity must be positive")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[PlanKey, RewriteResult]" = OrderedDict()
        self._by_name: Dict[str, Set[PlanKey]] = {}
        self._wildcard: Set[PlanKey] = set()
        self._inflight: Dict[PlanKey, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Callers that waited on another thread planning the same key.
        self.waits = 0
        #: Plans computed through :meth:`get_or_plan`, published or not.
        self.planned = 0

    # ------------------------------------------------------------------ locked helpers
    def _hit_locked(self, key: PlanKey, start: float) -> Optional[RewriteResult]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry.copy(cache_hit=True, rewrite_seconds=time.perf_counter() - start)

    def _put_locked(self, key: PlanKey, result: RewriteResult) -> None:
        self._forget_locked(key)
        self._entries[key] = result
        if result.footprint is None:
            self._wildcard.add(key)
        else:
            for name in result.footprint.relations:
                self._by_name.setdefault(name, set()).add(key)
        while len(self._entries) > self.capacity:
            self._forget_locked(next(iter(self._entries)))
            self.evictions += 1

    def _forget_locked(self, key: PlanKey) -> None:
        result = self._entries.pop(key, None)
        if result is None:
            return
        if result.footprint is None:
            self._wildcard.discard(key)
            return
        for name in result.footprint.relations:
            bucket = self._by_name[name]
            bucket.discard(key)
            if not bucket:
                del self._by_name[name]

    def _clear_locked(self) -> None:
        self._entries.clear()
        self._by_name.clear()
        self._wildcard.clear()

    # ------------------------------------------------------------------ operations
    def lookup(self, key: PlanKey) -> Optional[RewriteResult]:
        """The stored plan under ``key`` as a caller-private hit, or ``None``.

        Never plans, never waits on an in-flight leader and never blocks:
        when another thread holds the lock the answer is ``None`` as well,
        so an event loop may call it.  ``None`` means "go through
        :meth:`get_or_plan`", not "not cached"; it is not counted as a miss.
        """
        start = time.perf_counter()
        if not self._lock.acquire(blocking=False):
            return None
        try:
            return self._hit_locked(key, start)
        finally:
            self._lock.release()

    def get_or_plan(
        self, key_of: Callable[[], PlanKey], plan: Callable[[], RewriteResult]
    ) -> RewriteResult:
        """The plan under ``key_of()``, calling ``plan`` once per key.

        The first caller for a key (the leader) runs ``plan`` outside the
        lock and publishes a copy; concurrent callers for the same key wait
        on an event and are then served private copies marked
        ``cache_hit=True`` whose ``rewrite_seconds`` is their own lookup
        time, so summing RW_find over served requests never double-counts
        the leader's planning.  A leader that fails wakes the waiters, and
        the next one retries, so a deterministic planner error surfaces in
        every caller instead of hanging them.  The leader publishes only if
        ``key_of()`` is unchanged after planning: a result planned against a
        catalog or view set that moved mid-plan must not land under the new
        key (a revalidation would be bypassed); the caller still gets it.
        """
        while True:
            # The clock restarts every attempt: a woken waiter reports its
            # own lookup time, not the leader's planning time.
            start = time.perf_counter()
            key = key_of()
            with self._lock:
                hit = self._hit_locked(key, start)
                if hit is not None:
                    return hit
                self.misses += 1
                event = self._inflight.get(key)
                leader = event is None
                if leader:
                    event = self._inflight[key] = threading.Event()
                else:
                    self.waits += 1
            if not leader:
                event.wait()
                continue
            try:
                result = plan()
                with self._lock:
                    self.planned += 1
                    if key_of() == key:
                        self._put_locked(key, result.copy())
                return result
            finally:
                with self._lock:
                    del self._inflight[key]
                event.set()

    def revalidate(self, touched: Optional[Iterable[str]], **coordinates) -> Tuple[int, int]:
        """Evict the plans a catalog delta touches, re-key the survivors.

        ``touched`` is the delta's touched-name set, or ``None`` for a
        non-selective delta, which evicts everything.  A plan is evicted
        when its footprint mentions a touched name or when it has no
        footprint; every other plan is stored again, in the same LRU order
        and as the same object, under its key with ``coordinates`` (the new
        values of :class:`PlanKey` fields) replaced.  Returns
        ``(kept, evicted)``.
        """
        with self._lock:
            survivors = []
            if touched is not None:
                doomed = set(self._wildcard)
                for name in touched:
                    doomed.update(self._by_name.get(name, ()))
                survivors = [item for item in self._entries.items() if item[0] not in doomed]
            evicted = len(self._entries) - len(survivors)
            self._clear_locked()
            for key, result in survivors:
                self._put_locked(key._replace(**coordinates), result)
            return len(survivors), evicted

    def clear(self) -> None:
        """Drop every stored plan (plans in flight may still publish)."""
        with self._lock:
            self._clear_locked()

    # ------------------------------------------------------------------ inspection
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        return key in self._entries

    def stats(self) -> dict:
        """Counters for reports and ``/healthz``.

        Read without the lock (each value is one attribute or ``len``
        read), so it answers while a delta holds the lock.
        """
        hits, probes = self.hits, self.hits + self.misses
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": hits / probes if probes else 0.0,
        }


__all__ = ["PlanKey", "PlanStore"]
