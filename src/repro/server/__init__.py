"""The serving layer: an asyncio gateway in front of the analytics service.

PR 2 built a concurrent :class:`~repro.service.AnalyticsService`, reachable
only in-process.  This package puts it on the network without adding a
single dependency:

* :mod:`repro.server.protocol` — a JSON expression codec (round trips
  preserve structural equality and fingerprints) plus minimal HTTP/1.1
  framing over :mod:`asyncio` streams;
* :mod:`repro.server.metrics` — a thread-safe counter/gauge/histogram
  registry with a Prometheus-style text exposition;
* :mod:`repro.server.gateway` — :class:`AnalyticsGateway`, the asyncio
  server: ``/v1/plan``, ``/v1/pipeline``, ``/metrics``, ``/healthz``,
  admission control with 429 backpressure, and graceful drain;
* :mod:`repro.server.planner` — the one seam the gateway plans through,
  and its in-process implementation: a warm plan is answered on the event
  loop, anything else runs ``submit_many([request], workers=1)`` on a
  planner thread as it arrives;
* :mod:`repro.server.workers` — the multi-process planner tier:
  :class:`HashRing` (consistent workspace → worker sharding),
  :func:`planner_worker_main` (spawn-safe child loop) and
  :class:`WorkerSupervisor` (health checks, bounded-backoff respawn,
  in-flight replay, graceful pool drain), enabled with
  ``GatewayConfig.planner_workers > 0``;
* :mod:`repro.server.client` — :class:`GatewayClient`, the asyncio client
  the tests and the layered benchmark drive.

See ``docs/api.md`` for the wire protocol and ``docs/architecture.md`` for
the request → plan → route path.
"""

from repro.server.client import GatewayClient, GatewayError, parse_prometheus
from repro.server.gateway import AnalyticsGateway, run_gateway
from repro.server.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.server.protocol import (
    ProtocolError,
    expr_from_json,
    expr_to_json,
    parse_plan_request,
    request_to_json,
    result_to_json,
)
from repro.server.workers import (
    HashRing,
    SupervisorClosed,
    WorkerSupervisor,
    planner_worker_main,
)

__all__ = [
    "AnalyticsGateway",
    "Counter",
    "Gauge",
    "GatewayClient",
    "GatewayError",
    "HashRing",
    "Histogram",
    "MetricsRegistry",
    "ProtocolError",
    "SupervisorClosed",
    "WorkerSupervisor",
    "planner_worker_main",
    "expr_from_json",
    "expr_to_json",
    "parse_plan_request",
    "parse_prometheus",
    "request_to_json",
    "result_to_json",
    "run_gateway",
]
