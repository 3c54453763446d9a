"""The service layer: concurrent plan-and-execute on top of the planner.

PR 1 left a gap: :class:`~repro.planner.PlanSession` produces plans, the
:mod:`repro.backends` engines execute expressions, but nothing routed one to
the other — and every caller planned serially on a single session.  This
package closes the loop, mirroring HADAD's own end-to-end evaluation
(rewritten pipelines executed on the LA / relational engines):

* :class:`~repro.service.pool.PlanSessionPool` — a thread-safe pool of
  exclusive plan sessions (LRU-bounded, with the idle generation keyed to
  the catalog version and evicted on any catalog change) over one
  single-flight :class:`~repro.planner.PlanStore`, so N worker threads
  plan in parallel without sharing mutable saturation state and never
  plan one fingerprint twice;
* :class:`~repro.service.router.ExecutionRouter` — picks an execution
  backend per plan via a pluggable :class:`~repro.service.router.RoutingPolicy`,
  binds catalog data through the backends' common ``execute_plan`` entry
  point, and falls back across backends on
  :class:`~repro.exceptions.ExecutionError`;
* :class:`~repro.service.service.AnalyticsService` — the front door:
  ``submit`` / batched ``submit_many`` (fingerprint-deduped before fan-out)
  / ``submit_hybrid``, each answering with a
  :class:`~repro.service.service.ServiceResult` carrying per-phase
  queue / plan / execute timings.

See ``docs/architecture.md`` for where this layer sits in the system and
``docs/api.md`` for the full API reference.
"""

from repro.service.pool import PlanSessionPool, PoolStats
from repro.service.router import (
    DefaultPolicy,
    ExecutionRouter,
    RoutedExecution,
    RoutingPolicy,
    StaticPolicy,
)
from repro.service.service import (
    AnalyticsService,
    BatchHook,
    BatchStats,
    ServiceRequest,
    ServiceResult,
)

__all__ = [
    "AnalyticsService",
    "BatchHook",
    "BatchStats",
    "DefaultPolicy",
    "ExecutionRouter",
    "PlanSessionPool",
    "PoolStats",
    "RoutedExecution",
    "RoutingPolicy",
    "ServiceRequest",
    "ServiceResult",
    "StaticPolicy",
]
