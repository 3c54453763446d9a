"""Micro-batching bridge between the event loop and the sync service.

The gateway's problem shape: hundreds of tiny plan requests arrive on one
event loop, while :class:`repro.service.AnalyticsService` is synchronous and
most efficient when handed *batches* (fingerprint dedup before fan-out,
single-flight shared planning).  The :class:`MicroBatcher` closes the gap:

* awaiting callers enqueue ``(request, future)`` pairs;
* a collector task waits ``window_seconds`` from the first enqueue (or until
  ``max_batch`` requests are pending), then cuts a batch;
* the batch runs through ``service.submit_many`` on a thread-pool executor
  (``loop.run_in_executor``), so planning never blocks the loop;
* results are fanned back out to the per-request futures in input order.

Batches *pipeline*: while one batch plans on the executor, the collector is
already accumulating the next window, so a slow plan never gates admission.
The executor bounds how many batches plan concurrently.

Cancellation safety: a caller that goes away (client disconnect) cancels its
future; the batch still runs to completion — plans are shared work, one
deserter must not waste the others' results — and fan-out simply skips done
futures.  Batcher shutdown (:meth:`drain`) flushes the pending queue, waits
for every in-flight batch, then cancels the collector.
"""

from __future__ import annotations

import asyncio
import collections
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, List, Optional, Set, Tuple

from repro.service.service import AnalyticsService, ServiceRequest, ServiceResult

from repro.server.metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry


class BatcherClosed(RuntimeError):
    """Raised to callers submitting after :meth:`MicroBatcher.drain`."""


class MicroBatcher:
    """Collect requests over a window, plan them as one service batch.

    Parameters
    ----------
    service:
        The synchronous :class:`AnalyticsService` doing the actual work.
    window_seconds:
        How long the collector waits after the *first* request of a batch
        before cutting it.  0 still batches whatever arrived in the same
        loop iteration burst.
    max_batch:
        Cut a batch early once this many requests are pending.  A batch is
        planned ``ServiceConfig.plan_workers`` wide
        (:meth:`AnalyticsService.submit_many`'s default).
    executor:
        Thread pool the batches run on; by default a private 2-thread pool
        (one batch planning while the next is collected — more threads only
        help when execution, not planning, dominates).
    metrics:
        Optional registry; when given the batcher records batch sizes,
        dedup and cache-hit counts, and per-batch latency.
    """

    def __init__(
        self,
        service: AnalyticsService,
        window_seconds: float = 0.005,
        max_batch: int = 128,
        executor: Optional[ThreadPoolExecutor] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if window_seconds < 0:
            raise ValueError("window_seconds must be >= 0")
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self.service = service
        self.window_seconds = float(window_seconds)
        self.max_batch = int(max_batch)
        self._own_executor = executor is None
        self._executor = executor or ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-batch"
        )
        self.metrics = metrics
        self._queue: Deque[Tuple[ServiceRequest, "asyncio.Future[ServiceResult]"]] = (
            collections.deque()
        )
        self._wakeup: Optional[asyncio.Event] = None
        self._collector: Optional[asyncio.Task] = None
        self._inflight_batches: Set[asyncio.Task] = set()
        self._closed = False
        if metrics is not None:
            self._batch_size = metrics.histogram(
                "gateway_batch_size",
                "Requests per micro-batch",
                buckets=DEFAULT_SIZE_BUCKETS,
            )
            self._batch_seconds = metrics.histogram(
                "gateway_batch_seconds", "Wall-clock seconds per micro-batch"
            )
            self._batches_total = metrics.counter(
                "gateway_batches_total", "Micro-batches submitted to the service"
            )
            self._batched_requests_total = metrics.counter(
                "gateway_batched_requests_total", "Requests that went through a batch"
            )
            self._dedup_total = metrics.counter(
                "gateway_deduped_requests_total",
                "Requests answered by another request's plan (fingerprint dedup)",
            )

    # ------------------------------------------------------------------ lifecycle
    def _ensure_started(self) -> None:
        if self._collector is None or self._collector.done():
            self._wakeup = asyncio.Event()
            self._collector = asyncio.get_running_loop().create_task(
                self._collect_forever()
            )

    async def submit(self, request: ServiceRequest) -> ServiceResult:
        """Enqueue one request and await its result."""
        if self._closed:
            raise BatcherClosed("batcher is draining")
        self._ensure_started()
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[ServiceResult]" = loop.create_future()
        self._queue.append((request, future))
        assert self._wakeup is not None
        self._wakeup.set()
        return await future

    @property
    def pending(self) -> int:
        """Requests collected but not yet cut into a batch."""
        return len(self._queue)

    async def drain(self) -> None:
        """Flush the queue, finish in-flight batches, stop the collector.

        Idempotent.  After draining, :meth:`submit` raises
        :class:`BatcherClosed`; requests already accepted all complete.
        """
        self._closed = True
        if self._queue:
            self._cut_batch(len(self._queue))
        while self._inflight_batches:
            await asyncio.gather(*list(self._inflight_batches), return_exceptions=True)
        if self._collector is not None:
            self._collector.cancel()
            try:
                await self._collector
            except (asyncio.CancelledError, Exception):
                pass
            self._collector = None
        if self._own_executor:
            self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------ collection
    async def _collect_forever(self) -> None:
        assert self._wakeup is not None
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            if not self._queue:
                continue
            if self.window_seconds > 0 and len(self._queue) < self.max_batch:
                # The window opens at the first request of the batch; late
                # arrivals within it ride along but never extend it.
                await asyncio.sleep(self.window_seconds)
            self._cut_batch(self.max_batch)
            if self._queue:
                # More than max_batch arrived inside the window: loop again
                # immediately for the remainder.
                self._wakeup.set()

    def _cut_batch(self, limit: int) -> None:
        batch: List[Tuple[ServiceRequest, "asyncio.Future[ServiceResult]"]] = []
        while self._queue and len(batch) < limit:
            batch.append(self._queue.popleft())
        if not batch:
            return
        task = asyncio.get_running_loop().create_task(self._run_batch(batch))
        self._inflight_batches.add(task)
        task.add_done_callback(self._inflight_batches.discard)

    async def _run_batch(
        self, batch: List[Tuple[ServiceRequest, "asyncio.Future[ServiceResult]"]]
    ) -> None:
        loop = asyncio.get_running_loop()
        requests = [request for request, _ in batch]
        started = loop.time()
        try:
            results = await loop.run_in_executor(
                self._executor,
                lambda: self.service.submit_many(requests),
            )
        except Exception as exc:
            # submit_many isolates per-request failures, so reaching here
            # means infrastructure trouble (executor shutdown, pool bug):
            # fail the whole batch's waiters with the real error.
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        seconds = loop.time() - started
        if self.metrics is not None:
            self._record(requests, results, seconds)
        for (_, future), result in zip(batch, results):
            if not future.done():  # caller may have been cancelled meanwhile
                future.set_result(result)

    def _record(
        self,
        requests: List[ServiceRequest],
        results: List[ServiceResult],
        seconds: float,
    ) -> None:
        self._batches_total.inc()
        self._batched_requests_total.inc(len(requests))
        self._batch_size.observe(len(requests))
        self._batch_seconds.observe(seconds)
        distinct = len({request.expression.fingerprint() for request in requests})
        self._dedup_total.inc(len(requests) - distinct)


__all__ = ["BatcherClosed", "MicroBatcher"]
