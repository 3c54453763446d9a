"""Multi-process sharded planner workers behind the gateway.

The gateway's in-process path plans on a thread pool, so saturation-heavy
(chase-bound) planning serializes on the GIL no matter how many threads
:class:`~repro.server.planner.LocalPlanner` runs.  This module adds
the worker-pool tier the ROADMAP calls "the single biggest unlock": a pool
of N planner worker *processes*, each owning its own engine — plan session
pools, warm rewrite caches, execution backends — with workspaces sharded
across them by consistent hashing, so one tenant's plans always land on the
same warm cache.

Three pieces:

* :class:`HashRing` — a deterministic consistent-hash ring (BLAKE2-based,
  never Python's seeded ``hash()``) mapping workspace names to worker
  slots.  Adding a worker moves only the keys that land on the new worker's
  virtual points (~1/N of the keyspace); removing one moves only the
  removed worker's keys.
* :func:`planner_worker_main` — the spawn-safe child entry point: build the
  engine once from a picklable factory, then serve ``(request_id, body)``
  messages off a pipe until EOF or the ``None`` shutdown sentinel.
  Requests and responses cross the process boundary as the same typed JSON
  documents the HTTP wire uses (:mod:`repro.server.protocol`), so plans are
  byte-identical to the in-process path by construction.
* :class:`WorkerSupervisor` — the parent-side pool manager: spawns workers,
  routes ``submit()`` by ring, pumps responses back onto the caller's
  event loop, health-checks the pool, respawns crashed workers with bounded
  exponential backoff, replays the crashed worker's in-flight requests to
  the respawn (failing them cleanly once a retry budget is exhausted),
  forwards the parent's catalog deltas to the owning worker (and
  invalidates its runtime when a
  :class:`~repro.api.workspace.WorkspaceRegistry` change has no delta
  chain; the worker then rebuilds from its own factory-built registry,
  not from the parent's bundle), and drains
  gracefully: flush every worker's queue, send the shutdown sentinel, join
  the pool.

Crash / respawn state machine (per worker slot)::

    SPAWNING --ready--> SERVING --EOF/SIGKILL--> DEAD
        ^                                          |
        |   backoff = base * 2^(consecutive-1),    |
        +--------------- capped, then respawn -----+

    on DEAD:  pending requests with attempts <= retry budget are replayed
              to the respawned worker; the rest fail cleanly (the gateway
              answers 500, never silently drops).

Everything here is stdlib-only and spawn-safe: the worker factory must be
picklable (a module-level function or a dataclass with ``__call__``), and
the spawn start method is used unconditionally — forking a process that
already runs an asyncio loop and pump threads is how deadlocks are made.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import multiprocessing as mp
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.api.engine import Engine
from repro.catalog.delta import CatalogDelta
from repro.server.metrics import MetricsRegistry
from repro.server.planner import PlannerClosed, error_envelope, result_envelope
from repro.server.protocol import parse_plan_request, request_to_json
from repro.service.service import ServiceRequest

__all__ = ["HashRing", "WorkerSupervisor", "SupervisorClosed", "planner_worker_main"]


class SupervisorClosed(PlannerClosed):
    """Raised by :meth:`WorkerSupervisor.submit` after :meth:`~WorkerSupervisor.stop`."""


# ---------------------------------------------------------------------------
# Consistent hashing
# ---------------------------------------------------------------------------

def _stable_hash(data: str) -> int:
    """A 64-bit digest that is identical across processes and runs.

    Python's builtin ``hash()`` is randomized per process
    (``PYTHONHASHSEED``); using it would re-shard every tenant on every
    restart and silently scatter warm caches.
    """
    return int.from_bytes(
        hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """A consistent-hash ring over worker slots.

    Each node contributes ``replicas`` virtual points; a key routes to the
    first point clockwise from the key's own hash.  The classic guarantees
    follow: routing is a pure function of (key, node set), adding a node
    reassigns only keys that now land on the new node's points (≈ 1/N of
    the keyspace), and removing a node reassigns only that node's keys.
    """

    def __init__(self, nodes: Sequence[int] = (), replicas: int = 96):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self._replicas = replicas
        self._nodes: Set[int] = set()
        self._points: List[int] = []       # sorted virtual-point hashes
        self._owners: Dict[int, int] = {}  # point hash -> node
        for node in nodes:
            self.add(node)

    def add(self, node: int) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for replica in range(self._replicas):
            point = _stable_hash(f"worker:{node}:{replica}")
            # Collisions across 64-bit digests are ignorable; last add wins.
            bisect.insort(self._points, point)
            self._owners[point] = node

    def remove(self, node: int) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        for replica in range(self._replicas):
            point = _stable_hash(f"worker:{node}:{replica}")
            if self._owners.get(point) == node:
                del self._owners[point]
                index = bisect.bisect_left(self._points, point)
                if index < len(self._points) and self._points[index] == point:
                    del self._points[index]

    def nodes(self) -> Tuple[int, ...]:
        return tuple(sorted(self._nodes))

    def route(self, key: str) -> int:
        """The node owning ``key`` (clockwise successor on the ring)."""
        if not self._points:
            raise ValueError("cannot route on an empty ring")
        position = _stable_hash(f"key:{key}")
        index = bisect.bisect(self._points, position)
        if index == len(self._points):
            index = 0
        return self._owners[self._points[index]]


# ---------------------------------------------------------------------------
# Worker child process
# ---------------------------------------------------------------------------

class _Worker:
    """One planner worker's state and message handling (no pipes here)."""

    def __init__(self, engine: Engine, worker_id: int):
        self.engine = engine
        self.worker_id = worker_id
        self.served = 0
        #: Forwarded delta chains that could not be applied and were
        #: answered with a per-workspace invalidation instead.
        self.delta_fallbacks = 0

    def handle(self, item: tuple) -> Optional[tuple]:
        """Process one inbound message; the ``("res", id, envelope)`` reply
        for ``req`` / ``introspect``, ``None`` for the one-way messages."""
        kind = item[0]
        if kind == "req":
            _, request_id, body = item
            self.served += 1
            return ("res", request_id, self._serve(body))
        if kind == "introspect":
            return ("res", item[1], self._introspect())
        if kind == "invalidate":
            self.engine.invalidate_workspace(item[1])
        elif kind == "apply_delta":
            _, name, payloads = item
            self._apply_delta(name, payloads)
        return None

    def _serve(self, body: dict) -> dict:
        """Plan (and maybe execute) one request; never raises."""
        try:
            request = parse_plan_request(body)
            service = self.engine.workspace(request.workspace).service
            # submit_many (not submit), the call LocalPlanner makes: execution
            # failures ride back on the result instead of raising.
            envelope = result_envelope(service.submit_many([request], workers=1)[0])
        except Exception as exc:  # noqa: BLE001 — the worker must stay alive
            envelope = error_envelope(exc)
        envelope["worker"] = self.worker_id
        envelope["pid"] = os.getpid()
        return envelope

    def _introspect(self) -> dict:
        """Worker-side state for tests and ``/healthz``: what is warm where."""
        engine = self.engine
        return {
            "ok": True,
            "worker": self.worker_id,
            "pid": os.getpid(),
            "served": self.served,
            "warm_runtimes": [
                name for name in engine.workspace_names() if engine.runtime_ready(name)
            ],
            "delta_fallbacks": self.delta_fallbacks,
        }

    def _apply_delta(self, name: str, payloads: List[dict]) -> None:
        """Replay a chain of wire-format catalog deltas on the worker engine.

        The selective path: the worker's catalog converges to the parent's
        by applying the same delta documents, and the engine's
        ``apply_delta`` revalidates its warm pool instead of dropping it.
        A chain inconsistent with this worker's state (e.g. a respawned
        worker rebuilt from the factory's original bundle) falls back to
        the per-workspace invalidation, counted in ``delta_fallbacks``.
        That drops the warm runtime but does not converge: the worker
        rebuilds it from its own registry, which still holds the bundle
        the factory built.
        """
        try:
            for payload in payloads:
                self.engine.apply_delta(name, CatalogDelta.from_json(payload))
        except Exception:  # noqa: BLE001 — any failure degrades to invalidation
            self.delta_fallbacks += 1
            self.engine.invalidate_workspace(name)


def planner_worker_main(
    worker_id: int,
    factory: Callable[[], Engine],
    request_conn: Any,
    response_conn: Any,
) -> None:
    """Child entry point: build the engine once, serve the pipe until EOF.

    Spawn-safe: runs fresh in a spawned interpreter, so ``factory`` must be
    importable/picklable; it must return a :class:`repro.api.Engine`.
    Messages in: ``("req", id, body)``, ``("introspect", id)``,
    ``("invalidate", name)``, ``("apply_delta", name, [delta_json, ...])``,
    or the ``None`` shutdown sentinel.  Messages out: ``("ready",
    worker_id, pid)`` once (or ``("fatal", worker_id, reason)``), then
    ``("res", id, envelope)`` per request.
    """
    try:
        engine = factory()
        if not isinstance(engine, Engine):
            raise TypeError(
                f"worker factory must return a repro.api.Engine, got {type(engine).__name__}"
            )
    except BaseException as exc:  # noqa: BLE001 — report, then die
        try:
            response_conn.send(
                ("fatal", worker_id, f"{type(exc).__name__}: {exc}")
            )
        except (OSError, BrokenPipeError):
            pass
        return
    response_conn.send(("ready", worker_id, os.getpid()))
    worker = _Worker(engine, worker_id)
    while True:
        try:
            item = request_conn.recv()
        except (EOFError, OSError):
            break
        if item is None:
            break
        try:
            reply = worker.handle(item)
            if reply is not None:
                response_conn.send(reply)
        except (OSError, BrokenPipeError):
            break
    try:
        response_conn.close()
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Parent-side supervisor
# ---------------------------------------------------------------------------

#: Sentinel telling a slot's sender thread to exit without notifying the
#: child (used on respawn, where the old pipe is already dead).
_STOP_SENDER = object()
#: Sentinel telling the sender to forward the child's shutdown ``None`` and
#: then exit (graceful drain).
_SEND_SHUTDOWN = object()


@dataclass
class _Pending:
    request_id: int
    workspace: str
    item: tuple
    future: "asyncio.Future[dict]"
    loop: asyncio.AbstractEventLoop
    attempts: int = 0


@dataclass
class _Slot:
    id: int
    generation: int = 0
    process: Optional[Any] = None
    request_conn: Optional[Any] = None
    response_conn: Optional[Any] = None
    outbox: "queue.Queue" = field(default_factory=queue.Queue)
    sender: Optional[threading.Thread] = None
    pump: Optional[threading.Thread] = None
    ready: threading.Event = field(default_factory=threading.Event)
    pid: Optional[int] = None
    restarts: int = 0
    consecutive_failures: int = 0
    last_fatal: Optional[str] = None


class WorkerSupervisor:
    """Own a pool of planner worker processes and keep it healthy.

    Parameters
    ----------
    factory:
        Zero-argument picklable callable building the worker-side
        :class:`repro.api.Engine`.  Runs once inside each spawned worker.
    workers:
        Pool size (>= 1).
    metrics:
        A :class:`MetricsRegistry` to publish per-worker labeled series on
        (``repro_worker_restarts_total``, ``repro_worker_in_flight``,
        ``repro_worker_queue_depth``, ``repro_worker_requests_total``); a
        private registry is created when omitted.
    retry_budget:
        Replays per request across crashes before failing it cleanly.
    backoff_seconds / backoff_cap_seconds:
        Bounded exponential respawn backoff.
    health_interval_seconds:
        Cadence of the health thread (queue-depth sampling, liveness
        backstop, registry-delta detection).
    workspaces:
        The parent-side :class:`repro.api.Engine`, or ``None``; when given,
        the health thread watches its registry and forwards delta chains
        (or ``invalidate``) to the owning worker when a workspace is
        removed or its version bumps.  An ``invalidate`` does not bring
        the worker to the parent's bundle (see
        :meth:`_sync_workspaces_locked`).

    Implements the gateway's :class:`~repro.server.planner.Planner` seam
    (:meth:`open` / :meth:`submit` / :meth:`describe` / :meth:`stats_dict`
    / :meth:`forget` / :meth:`close`) on top of the blocking
    :meth:`start` / :meth:`stop` a direct caller drives.
    """

    def __init__(
        self,
        factory: Callable[[], Engine],
        workers: int,
        *,
        metrics: Optional[MetricsRegistry] = None,
        retry_budget: int = 2,
        backoff_seconds: float = 0.05,
        backoff_cap_seconds: float = 2.0,
        health_interval_seconds: float = 0.25,
        spawn_timeout_seconds: float = 120.0,
        workspaces: Optional[Engine] = None,
        ring_replicas: int = 96,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._factory = factory
        self._workspaces = workspaces
        self._retry_budget = retry_budget
        self._backoff_seconds = backoff_seconds
        self._backoff_cap_seconds = backoff_cap_seconds
        self._health_interval = health_interval_seconds
        self._spawn_timeout = spawn_timeout_seconds
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._context = mp.get_context("spawn")
        self._ring = HashRing(range(workers), replicas=ring_replicas)
        self._slots = [_Slot(id=index) for index in range(workers)]
        self._lock = threading.Lock()
        self._pending: Dict[int, _Pending] = {}
        self._by_worker: Dict[int, Set[int]] = {index: set() for index in range(workers)}
        self._request_ids = itertools.count()
        self._closed = False
        self._started = False
        self._health_stop = threading.Event()
        self._health_thread: Optional[threading.Thread] = None
        self._known_versions: Dict[str, int] = {}
        # Instruments exist (at zero) before the first crash/request, so
        # the chaos test can scrape repro_worker_restarts_total up front.
        self._instruments = []
        for index in range(workers):
            labels = {"worker": str(index)}
            self._instruments.append(
                {
                    "restarts": self.metrics.counter(
                        "repro_worker_restarts_total",
                        "Worker processes respawned after a crash",
                        labels=labels,
                    ),
                    "requests": self.metrics.counter(
                        "repro_worker_requests_total",
                        "Requests dispatched to this worker",
                        labels=labels,
                    ),
                    "in_flight": self.metrics.gauge(
                        "repro_worker_in_flight",
                        "Requests dispatched to this worker and not yet answered",
                        labels=labels,
                    ),
                    "queue_depth": self.metrics.gauge(
                        "repro_worker_queue_depth",
                        "Requests queued toward this worker, not yet written to its pipe",
                        labels=labels,
                    ),
                }
            )

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Spawn the pool and block until every worker is ready.

        Synchronous by design — the gateway calls it through
        ``run_in_executor`` so engine builds in the children never stall
        the event loop.
        """
        with self._lock:
            if self._started:
                return
            self._started = True
            if self._workspaces is not None:
                self._known_versions = self._registry_versions(self._workspaces)
            for slot in self._slots:
                self._spawn_locked(slot)
        deadline = time.monotonic() + self._spawn_timeout
        for slot in self._slots:
            remaining = max(0.0, deadline - time.monotonic())
            if not slot.ready.wait(remaining):
                fatal = slot.last_fatal or "no ready handshake"
                self.stop()
                raise RuntimeError(
                    f"planner worker {slot.id} failed to start within "
                    f"{self._spawn_timeout:.0f}s: {fatal}"
                )
        self._health_thread = threading.Thread(
            target=self._health_loop, name="repro-worker-health", daemon=True
        )
        self._health_thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful drain: flush queues, send sentinels, join the pool."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            slots = list(self._slots)
            leftovers = list(self._pending.values())
            self._pending.clear()
            for ids in self._by_worker.values():
                ids.clear()
        self._health_stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=timeout)
        # Anything still pending at stop() is failed cleanly, never dropped
        # (the gateway drains in-flight requests *before* stopping the
        # supervisor, so this only fires on abortive shutdown).
        for pending in leftovers:
            self._fail_pending(pending, "supervisor stopped during drain")
        for slot in slots:
            # The shutdown sentinel rides the outbox, *behind* every queued
            # request: the worker finishes its queue, then exits.
            slot.outbox.put(_SEND_SHUTDOWN)
        deadline = time.monotonic() + timeout
        for slot in slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        for slot in slots:
            for conn in (slot.request_conn, slot.response_conn):
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass

    async def open(self) -> None:
        # start() blocks until every worker's ready handshake (each child
        # builds a full engine) — run it off the event loop.
        await asyncio.get_running_loop().run_in_executor(None, self.start)

    async def close(self) -> None:
        # The gateway answered every admitted request before closing its
        # planner, so each worker's queue holds at most the shutdown
        # sentinel: flush, join, reap.
        await asyncio.get_running_loop().run_in_executor(None, self.stop)

    def forget(self, workspace: str) -> None:
        """Nothing to drop here: the health thread already tells the owning
        worker to invalidate a workspace that left the registry."""

    # ------------------------------------------------------------ submission
    async def submit(self, workspace: str, request: Union[ServiceRequest, dict]) -> dict:
        """Dispatch one request to the workspace's worker; await the envelope.

        The request crosses to the worker process as the same typed JSON
        body the HTTP wire uses (``request`` may already be that body), so
        worker plans are byte-identical to the in-process path by
        construction.  Raises :class:`SupervisorClosed` after :meth:`stop`.
        """
        body = dict(request) if isinstance(request, dict) else request_to_json(request)
        body["workspace"] = workspace
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[dict]" = loop.create_future()
        with self._lock:
            if self._closed:
                raise SupervisorClosed("worker pool is stopped")
            worker_id = self._ring.route(workspace)
            slot = self._slots[worker_id]
            request_id = next(self._request_ids)
            pending = _Pending(
                request_id=request_id,
                workspace=workspace,
                item=("req", request_id, body),
                future=future,
                loop=loop,
            )
            self._pending[request_id] = pending
            self._by_worker[worker_id].add(request_id)
            instruments = self._instruments[worker_id]
            instruments["requests"].inc()
            instruments["in_flight"].inc()
            slot.outbox.put(pending.item)
        return await future

    async def introspect(self, worker_id: int) -> dict:
        """Ask one worker what it has warm (tests, health documents)."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[dict]" = loop.create_future()
        with self._lock:
            if self._closed:
                raise SupervisorClosed("worker pool is stopped")
            slot = self._slots[worker_id]
            request_id = next(self._request_ids)
            pending = _Pending(
                request_id=request_id,
                workspace="",
                item=("introspect", request_id),
                future=future,
                loop=loop,
            )
            self._pending[request_id] = pending
            self._by_worker[worker_id].add(request_id)
            self._instruments[worker_id]["in_flight"].inc()
            slot.outbox.put(pending.item)
        return await future

    def route(self, workspace: str) -> int:
        """The worker slot a workspace shards to (pure, stable)."""
        return self._ring.route(workspace)

    def assignments(self) -> Dict[str, int]:
        """workspace name -> worker slot, for every registered workspace."""
        if self._workspaces is None:
            return {}
        return {
            name: self._ring.route(name)
            for name in self._workspaces.workspace_names()
        }

    def describe(self) -> dict:
        """JSON-ready per-slot state: the ``workers`` key of ``/healthz``."""
        with self._lock:
            return {
                "workers": [
                    {
                        "worker": slot.id,
                        "pid": slot.pid,
                        "alive": bool(slot.process is not None and slot.process.is_alive()),
                        "ready": slot.ready.is_set(),
                        "restarts": slot.restarts,
                        "in_flight": len(self._by_worker[slot.id]),
                    }
                    for slot in self._slots
                ]
            }

    def stats_dict(self) -> dict:
        return {**self.describe(), "worker_assignments": self.assignments()}

    @property
    def workers(self) -> int:
        return len(self._slots)

    @property
    def restarts_total(self) -> int:
        with self._lock:
            return sum(slot.restarts for slot in self._slots)

    def worker_pid(self, worker_id: int) -> Optional[int]:
        with self._lock:
            return self._slots[worker_id].pid

    # ------------------------------------------------------------ internals
    def _spawn_locked(self, slot: _Slot) -> None:
        """Start one worker generation.  Caller holds the lock."""
        slot.generation += 1
        generation = slot.generation
        slot.ready.clear()
        slot.last_fatal = None
        request_recv, request_send = self._context.Pipe(duplex=False)
        response_recv, response_send = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=planner_worker_main,
            args=(slot.id, self._factory, request_recv, response_send),
            name=f"repro-planner-{slot.id}",
            daemon=True,
        )
        process.start()
        # Close the parent's copies of the child's ends: the pump thread's
        # recv() then raises EOFError the instant the child dies, which is
        # the crash-detection signal the whole respawn path hangs off.
        request_recv.close()
        response_send.close()
        slot.process = process
        slot.request_conn = request_send
        slot.response_conn = response_recv
        slot.outbox = queue.Queue()
        slot.sender = threading.Thread(
            target=self._sender_loop,
            args=(slot.outbox, request_send),
            name=f"repro-worker-send-{slot.id}-g{generation}",
            daemon=True,
        )
        slot.sender.start()
        slot.pump = threading.Thread(
            target=self._pump_loop,
            args=(slot, generation, response_recv),
            name=f"repro-worker-pump-{slot.id}-g{generation}",
            daemon=True,
        )
        slot.pump.start()

    @staticmethod
    def _sender_loop(outbox: "queue.Queue", conn: Any) -> None:
        """Write queued items to one generation's request pipe.

        A dedicated thread because ``Connection.send`` can block when the
        OS pipe buffer fills — never on the event loop.  Send failures are
        swallowed: the pending map still tracks the request, and the
        respawn path replays it.
        """
        while True:
            item = outbox.get()
            if item is _STOP_SENDER:
                return
            try:
                if item is _SEND_SHUTDOWN:
                    conn.send(None)
                    return
                conn.send(item)
            except (OSError, BrokenPipeError, ValueError):
                if item is _SEND_SHUTDOWN:
                    return

    def _pump_loop(self, slot: _Slot, generation: int, conn: Any) -> None:
        """Read one generation's responses; on EOF, run the death protocol."""
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "ready":
                with self._lock:
                    slot.pid = message[2]
                slot.ready.set()
            elif kind == "fatal":
                slot.last_fatal = message[2]
                slot.ready.set()  # unblock start(); start() checks last_fatal
            elif kind == "res":
                _, request_id, envelope = message
                self._complete(slot, request_id, envelope)
        self._worker_died(slot, generation)

    def _complete(self, slot: _Slot, request_id: int, envelope: dict) -> None:
        with self._lock:
            pending = self._pending.pop(request_id, None)
            if pending is None:
                return
            self._by_worker[slot.id].discard(request_id)
            slot.consecutive_failures = 0
            self._instruments[slot.id]["in_flight"].dec()
        self._resolve(pending, envelope)

    @staticmethod
    def _resolve(pending: _Pending, envelope: dict) -> None:
        def deliver() -> None:
            if not pending.future.done():
                pending.future.set_result(envelope)

        try:
            pending.loop.call_soon_threadsafe(deliver)
        except RuntimeError:
            pass  # caller's loop already closed; nothing to deliver to

    def _fail_pending(self, pending: _Pending, reason: str) -> None:
        self._resolve(
            pending,
            {"ok": False, "kind": "worker_crashed", "error": reason},
        )

    def _worker_died(self, slot: _Slot, generation: int) -> None:
        """Death protocol: collect pendings, back off, respawn, replay."""
        with self._lock:
            if self._closed or slot.generation != generation:
                return
            slot.ready.clear()
            slot.consecutive_failures += 1
            failures = slot.consecutive_failures
            slot.restarts += 1
            self._instruments[slot.id]["restarts"].inc()
            # Stop the old sender; its pipe is dead.
            slot.outbox.put(_STOP_SENDER)
            failed: List[_Pending] = []
            for request_id in list(self._by_worker[slot.id]):
                pending = self._pending[request_id]
                pending.attempts += 1
                if pending.attempts > self._retry_budget:
                    del self._pending[request_id]
                    self._by_worker[slot.id].discard(request_id)
                    self._instruments[slot.id]["in_flight"].dec()
                    failed.append(pending)
        reason = slot.last_fatal or "worker process died"
        for pending in failed:
            self._fail_pending(
                pending,
                f"{reason}; retry budget ({self._retry_budget}) exhausted",
            )
        backoff = min(
            self._backoff_cap_seconds,
            self._backoff_seconds * (2 ** (failures - 1)),
        )
        if backoff > 0:
            time.sleep(backoff)
        with self._lock:
            if self._closed:
                leftovers = []
                for request_id in list(self._by_worker[slot.id]):
                    leftovers.append(self._pending.pop(request_id))
                    self._by_worker[slot.id].discard(request_id)
            else:
                self._spawn_locked(slot)
                # Replay in arrival order onto the fresh generation's
                # outbox; the worker answers them after its ready handshake.
                # Everything still charged to the slot goes — the pendings
                # collected at death time plus any submit() that raced the
                # respawn window and enqueued behind the old generation's
                # stop sentinel (that copy is unreadable garbage now).
                for pending in sorted(
                    (
                        self._pending[request_id]
                        for request_id in self._by_worker[slot.id]
                    ),
                    key=lambda p: p.request_id,
                ):
                    slot.outbox.put(pending.item)
                leftovers = []
        for pending in leftovers:
            self._fail_pending(pending, "supervisor stopped during respawn")

    # ------------------------------------------------------------ health
    @staticmethod
    def _registry_versions(engine: Engine) -> Dict[str, int]:
        return {
            doc["name"]: int(doc.get("version", 0))
            for doc in engine.describe_workspaces()
        }

    def _health_loop(self) -> None:
        while not self._health_stop.wait(self._health_interval):
            stale: List[Any] = []
            with self._lock:
                if self._closed:
                    return
                for slot in self._slots:
                    self._instruments[slot.id]["queue_depth"].set(
                        float(slot.outbox.qsize())
                    )
                    # Liveness backstop: the pump thread's EOF is the
                    # primary signal; is_alive() catches a child that died
                    # without closing its pipe end (should not happen, but
                    # a supervisor that can hang is not a supervisor).
                    process = slot.process
                    if (
                        process is not None
                        and not process.is_alive()
                        and slot.ready.is_set()
                    ):
                        stale.append(slot.response_conn)
                if self._workspaces is not None:
                    self._sync_workspaces_locked(self._workspaces)
            for conn in stale:
                # Force the pump loop's EOF by closing our read end.
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass

    def _sync_workspaces_locked(self, engine: Engine) -> None:
        """React to registry changes: forward deltas, invalidate otherwise.

        The ring itself only changes with the worker count; a registry
        change alters *which bundle* a name means.  When the registry's
        delta journal can bridge the version gap (the change came through
        ``apply_delta``), the owning worker receives the wire-format delta
        chain and revalidates its warm runtime selectively — plans whose
        footprint the deltas never touch keep serving without a replan.
        When no chain exists (a wholesale ``update``/``register``, a
        follower too far behind, or no journal at all) the worker is sent
        an ``invalidate``: it drops its runtime and rebuilds it on the next
        request from its *own* registry.  That registry was built by the
        factory and never sees the parent's wholesale changes, so the
        worker keeps planning against the bundle it had.
        """
        try:
            current = self._registry_versions(engine)
        except Exception:  # registry mid-mutation; retry next tick
            return
        previous = self._known_versions
        if current == previous:
            return
        for name, version in current.items():
            prior = previous.get(name)
            if prior == version:
                continue
            worker_id = self._ring.route(name)
            chain = None
            if prior is not None:
                try:
                    chain = engine.delta_chain(name, prior, version)
                except Exception:  # journal mid-mutation; fall back
                    chain = None
            if chain:
                self._slots[worker_id].outbox.put(("apply_delta", name, chain))
            else:
                self._slots[worker_id].outbox.put(("invalidate", name))
        for name in previous:
            if name not in current:
                worker_id = self._ring.route(name)
                self._slots[worker_id].outbox.put(("invalidate", name))
        self._known_versions = current
