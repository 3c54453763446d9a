"""The asyncio serving gateway in front of tenant workspaces.

``AnalyticsGateway`` is the network front door the ROADMAP's production
story needs: stdlib-asyncio HTTP/JSON serving, planning off the event loop, and
the production behaviours a load balancer assumes:

* **admission control** — at most ``max_in_flight`` requests are admitted
  at once; request number ``max_in_flight + 1`` is answered ``429 Too Many
  Requests`` immediately (with a ``Retry-After`` hint) instead of queueing
  without bound.  With ``workspace_max_in_flight`` set, each tenant
  workspace additionally gets its own admission quota, so one noisy tenant
  cannot starve the others;
* **workspace routing** — a request body naming a ``workspace`` is
  dispatched to that tenant's service (its own catalog, views, planner
  config and caches); unknown names are answered ``404``.  Requests
  without the field route to the default workspace;
* **one planner seam** — every admitted request goes through
  ``gateway.planner`` (:class:`~repro.server.planner.LocalPlanner`, or a
  fake a test assigns) and comes back as a ``ServiceResult`` that one
  function maps to the HTTP response and one records in the metrics, or as
  an exception whose type picks the status;
* **graceful drain** — :meth:`stop` stops accepting connections, lets every
  admitted request finish, closes the planner, then closes; requests
  arriving on open connections during the drain get ``503``;
* **observability** — ``GET /metrics`` renders the full registry in the
  Prometheus text format, including per-workspace labeled series
  (``gateway_workspace_requests_total{workspace="tenant-a"}``); ``GET
  /healthz`` answers a JSON liveness document.

Endpoints
---------
``POST /v1/plan``
    Body ``{"expression": <tree>, "name"?, "backend"?, "execute"?,
    "workspace"?}`` (see :mod:`repro.server.protocol`).  ``execute``
    defaults to **false** here: the endpoint answers with the plan and
    timings only.
``POST /v1/pipeline``
    Same body; ``execute`` defaults to **true** — the plan is routed to a
    backend and the (size-capped) value rides back on the response.
``GET /v1/workspaces`` / ``GET /v1/workspaces/<name>``
    List every registered workspace / describe one (``404`` when unknown).
``GET /metrics`` / ``GET /healthz``
    Exposition and liveness.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Set

from repro.api.engine import Engine
from repro.catalog.delta import CatalogDelta
from repro.config import GatewayConfig
from repro.exceptions import CatalogError, ConfigError, UnknownWorkspaceError
from repro.service.service import AnalyticsService, BatchStats, ServiceRequest, ServiceResult

from repro.server.metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from repro.server.planner import LocalPlanner, Planner, PlannerClosed
from repro.server.protocol import (
    HttpRequest,
    ProtocolError,
    format_http_response,
    json_response,
    parse_plan_request,
    read_http_request,
    result_to_json,
)


class AnalyticsGateway:
    """Serve an engine's workspaces over asyncio-native HTTP/JSON.

    Built by :meth:`repro.api.Engine.build_gateway` /
    :meth:`~repro.api.Engine.serve`, which also patch individual
    :class:`~repro.config.GatewayConfig` fields.

    Parameters
    ----------
    engine:
        The :class:`repro.api.Engine` whose workspaces this gateway
        routes requests to.
    config:
        The frozen, validated :class:`~repro.config.GatewayConfig`: bind
        address (``port=0`` picks an ephemeral port, exposed as
        :attr:`port` after :meth:`start`), admission bounds, backlog.
    """

    def __init__(self, engine: Engine, config: GatewayConfig):
        self.config = config
        self.engine = engine
        self.max_in_flight = config.max_in_flight
        self.workspace_max_in_flight = config.workspace_max_in_flight
        self.metrics = MetricsRegistry()
        #: Per-workspace labeled instruments, resolved once per workspace
        #: instead of through the registry lock on every request.
        self._workspace_instruments: Dict[str, dict] = {}
        self._server: Optional[asyncio.Server] = None
        self._draining = False
        self._in_flight = 0
        self._workspace_in_flight: Dict[str, int] = {}
        self._idle = asyncio.Event()
        self._idle.set()
        #: Open connection writers, so :meth:`stop` can close idle
        #: keep-alive connections: on Python 3.12+ ``Server.wait_closed``
        #: waits for every connection handler, and a handler parked in
        #: ``readline`` on an idle client would otherwise hang the drain
        #: forever.
        self._connection_writers: Set[asyncio.StreamWriter] = set()
        #: Running connection handlers, so :meth:`stop` can await them:
        #: before 3.12 ``Server.wait_closed`` does not, and ``asyncio.run``
        #: would cancel one still closing its writer.
        self._connection_handlers: Set[asyncio.Task] = set()
        # Instruments are created up front so a scrape before the first
        # request still shows every series at zero.
        self._requests_total = self.metrics.counter(
            "gateway_requests_total", "Requests admitted, by eventual status"
        )
        self._responses_2xx = self.metrics.counter(
            "gateway_responses_2xx_total", "Successful responses"
        )
        self._responses_4xx = self.metrics.counter(
            "gateway_responses_4xx_total", "Client-error responses"
        )
        self._responses_5xx = self.metrics.counter(
            "gateway_responses_5xx_total", "Server-error responses"
        )
        self._rejected_total = self.metrics.counter(
            "gateway_rejected_total", "Requests rejected by admission control (429)"
        )
        self._drain_rejected_total = self.metrics.counter(
            "gateway_drain_rejected_total", "Requests rejected while draining (503)"
        )
        self._protocol_errors_total = self.metrics.counter(
            "gateway_protocol_errors_total", "Malformed requests (400/404/405)"
        )
        self._unknown_workspace_total = self.metrics.counter(
            "gateway_unknown_workspace_total",
            "Requests naming an unregistered workspace (404)",
        )
        self._plan_failures_total = self.metrics.counter(
            "gateway_plan_failures_total", "Requests whose expression failed to plan"
        )
        self._in_flight_gauge = self.metrics.gauge(
            "gateway_in_flight_requests", "Requests admitted and not yet answered"
        )
        self._connections_gauge = self.metrics.gauge(
            "gateway_open_connections", "Open client connections"
        )
        self._cache_hits_total = self.metrics.counter(
            "gateway_cache_hits_total", "Requests answered by a cached/shared plan"
        )
        self._chase_pruned_total = self.metrics.counter(
            "repro_chase_pruned_total",
            "Chase applications rejected by the cost-threshold pruner",
        )
        self._chase_pruned_tightening_total = self.metrics.counter(
            "repro_chase_pruned_by_tightening_total",
            "Chase applications rejected only because the threshold tightened",
        )
        self._queue_seconds = self.metrics.histogram(
            "gateway_queue_seconds", "Per-request queue phase"
        )
        self._plan_seconds = self.metrics.histogram(
            "gateway_plan_seconds", "Per-request plan phase"
        )
        self._execute_seconds = self.metrics.histogram(
            "gateway_execute_seconds", "Per-request execute phase"
        )
        self._total_seconds = self.metrics.histogram(
            "gateway_total_seconds", "Per-request end-to-end latency"
        )
        self._service_batch_size = self.metrics.histogram(
            "service_batch_size",
            "Requests per submit_many batch, as the service saw them",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._service_batch_seconds = self.metrics.histogram(
            "service_batch_seconds", "Wall-clock seconds per submit_many batch"
        )
        self._service_cache_hits_total = self.metrics.counter(
            "service_cache_hits_total",
            "Batch requests served from a cached or deduped plan",
        )
        self._catalog_deltas_total = self.metrics.counter(
            "repro_catalog_deltas_total",
            "Catalog deltas applied through the gateway",
        )
        self._plans_revalidated_total = self.metrics.counter(
            "repro_plans_revalidated_total",
            "Cached plans evicted by delta revalidation (footprint hit)",
        )
        self._plans_kept_warm_total = self.metrics.counter(
            "repro_plans_kept_warm_total",
            "Cached plans kept warm across a delta (footprint miss)",
        )
        #: Where every admitted request is planned.
        self.planner: Planner = LocalPlanner(engine, batch_hook=self._observe_batch)

    @property
    def service(self) -> Optional[AnalyticsService]:
        """The default workspace's *current* service.

        Resolved through the engine on every access — never pinned — so a
        registry update of the default workspace is reflected here and
        ``/healthz`` / :meth:`stats_dict` cannot report a superseded pool.
        ``None`` when there is no default workspace, its handle was never
        built (nothing to report yet), or it has no catalog.
        """
        default = self.engine.default_workspace_name
        if default is None or not self.engine.handle_ready(default):
            return None
        try:
            return self.engine.workspace(default).service
        except (UnknownWorkspaceError, ConfigError):
            return None

    # ------------------------------------------------------------------ workspaces
    def _instruments_for(self, workspace_name: str) -> dict:
        """This workspace's labeled instruments, resolved once and cached.

        The admit/release/observe hot path reuses these handles instead of
        re-walking the (locked) registry on every request.
        """
        instruments = self._workspace_instruments.get(workspace_name)
        if instruments is None:
            labels = {"workspace": workspace_name}
            instruments = {
                "requests": self.metrics.counter(
                    "gateway_workspace_requests_total",
                    "Requests admitted, per workspace",
                    labels=labels,
                ),
                "rejected": self.metrics.counter(
                    "gateway_workspace_rejected_total",
                    "Requests rejected by a per-workspace quota (429)",
                    labels=labels,
                ),
                "in_flight": self.metrics.gauge(
                    "gateway_workspace_in_flight",
                    "Admitted, unanswered requests per workspace",
                    labels=labels,
                ),
                "total_seconds": self.metrics.histogram(
                    "gateway_workspace_total_seconds",
                    "Per-request end-to-end latency, per workspace",
                    labels=labels,
                ),
            }
            self._workspace_instruments[workspace_name] = instruments
        return instruments

    def _unknown_workspace_response(self, error: object, keep_alive: bool) -> bytes:
        """The canonical unknown-workspace ``404`` (counted as a 4xx)."""
        self._unknown_workspace_total.inc()
        self._responses_4xx.inc()
        return json_response(
            404,
            {
                "error": str(error),
                "workspaces": list(self.engine.workspace_names()),
            },
            keep_alive=keep_alive,
        )

    def _draining_response(self) -> bytes:
        """The ``503`` of a request arriving while the gateway drains."""
        self._drain_rejected_total.inc()
        return json_response(503, {"error": "gateway is draining"}, keep_alive=False)

    def _unprocessable(self, exc: Exception, workspace: str, keep_alive: bool) -> bytes:
        """The ``422`` of a condition the client must resolve."""
        self._responses_4xx.inc()
        body = {"error": str(exc), "workspace": workspace}
        return json_response(422, body, keep_alive=keep_alive)

    def _internal_error(self, exc: Exception, keep_alive: bool) -> bytes:
        """The ``500`` of a bug, naming the exception's type."""
        self._responses_5xx.inc()
        body = {"error": f"{type(exc).__name__}: {exc}"}
        return json_response(500, body, keep_alive=keep_alive)

    def _reap_workspace(self, name: str) -> None:
        """Drop the per-workspace state of a workspace no longer registered.

        Called when a lookup raises :class:`UnknownWorkspaceError` — the
        same reap-on-access discipline the engine applies to its handles,
        so tenant churn on a long-lived gateway never accumulates
        instruments or in-flight counters for deleted tenants.  The
        labeled series are removed from the registry too, so ``/metrics``
        stops rendering a deleted tenant instead of exposing its stale
        values forever.
        """
        self._workspace_instruments.pop(name, None)
        # Keep a non-zero in-flight count: requests of the removed bundle
        # still draining must stay visible to the quota of a re-registered
        # same-name tenant (the entry empties through _release).
        if not self._workspace_in_flight.get(name):
            self._workspace_in_flight.pop(name, None)
        for metric in (
            "gateway_workspace_requests_total",
            "gateway_workspace_rejected_total",
            "gateway_workspace_in_flight",
            "gateway_workspace_total_seconds",
        ):
            self.metrics.remove_series(metric, labels={"workspace": name})

    def _route_name(self, requested: Optional[str]) -> str:
        """The workspace name a request routes to (``None`` → the default).

        A missing default raises :class:`UnknownWorkspaceError`; existence
        of a *named* workspace is checked separately (cheaply, through
        ``engine.has_workspace``) before admission.
        """
        if requested is None:
            default = self.engine.default_workspace_name
            if default is None:
                known = ", ".join(self.engine.workspace_names()) or "<none>"
                raise UnknownWorkspaceError(
                    f"this gateway has no default workspace; name one of: {known}"
                )
            requested = default
        return requested

    # ------------------------------------------------------------------ lifecycle
    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("gateway already started")
        self._server = await asyncio.start_server(
            self._serve_connection,
            host=self.config.host,
            port=self.config.port,
            # Sized for connect storms: a client storm opens hundreds of
            # connections in one burst, and the kernel's default backlog
            # (asyncio passes 100) turns the overflow into 1s+ SYN
            # retransmits that silently serialize the storm.
            backlog=self.config.backlog,
        )

    async def stop(self, timeout: Optional[float] = None) -> None:
        """Graceful drain: refuse new work, finish admitted work, close.

        ``timeout`` bounds the wait for in-flight requests; on expiry the
        gateway closes anyway (the remaining waiters see reset
        connections).  Idempotent.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        try:
            waiter = self._idle.wait()
            if timeout is not None:
                await asyncio.wait_for(waiter, timeout)
            else:
                await waiter
        except asyncio.TimeoutError:
            pass
        await self.planner.close()
        # Every admitted request is answered by now; the remaining
        # connections are idle keep-alive clients whose handlers sit in
        # readline.  Close their transports so the handlers return —
        # otherwise wait_closed() (which awaits all handlers on 3.12+)
        # would wait on clients that never hang up.
        for writer in list(self._connection_writers):
            writer.close()
        if self._connection_handlers:
            await asyncio.wait(list(self._connection_handlers), timeout=timeout)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        """Convenience runner: start (if needed) and block until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    # ------------------------------------------------------------------ serving
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections_gauge.inc()
        self._connection_writers.add(writer)
        handler = asyncio.current_task()
        if handler is not None:
            self._connection_handlers.add(handler)
            handler.add_done_callback(self._connection_handlers.discard)
        try:
            while True:
                try:
                    request = await read_http_request(reader)
                except ProtocolError as exc:
                    self._protocol_errors_total.inc()
                    writer.write(
                        json_response(400, {"error": str(exc)}, keep_alive=False)
                    )
                    await writer.drain()
                    return
                except asyncio.IncompleteReadError:
                    return
                if request is None:
                    return
                response = await self._dispatch(request)
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections_gauge.dec()
            self._connection_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: HttpRequest) -> bytes:
        keep_alive = request.keep_alive
        if request.path == "/metrics":
            if request.method != "GET":
                return self._method_not_allowed(keep_alive)
            return format_http_response(
                200,
                self.metrics.render().encode("utf-8"),
                content_type="text/plain; version=0.0.4",
                keep_alive=keep_alive,
            )
        if request.path == "/healthz":
            if request.method != "GET":
                return self._method_not_allowed(keep_alive)
            return json_response(
                200 if not self._draining else 503,
                self._health_document(),
                keep_alive=keep_alive,
            )
        if request.path == "/v1/workspaces" or request.path.startswith("/v1/workspaces/"):
            parts = [
                part
                for part in request.path[len("/v1/workspaces"):].split("/")
                if part
            ]
            if len(parts) == 2 and parts[1] == "delta":
                if request.method != "POST":
                    return self._method_not_allowed(keep_alive)
                return await self._handle_delta(request, parts[0])
            if request.method != "GET":
                return self._method_not_allowed(keep_alive)
            return self._handle_workspaces(request.path, keep_alive)
        if request.path in ("/v1/plan", "/v1/pipeline"):
            if request.method != "POST":
                return self._method_not_allowed(keep_alive)
            return await self._handle_submit(
                request, execute_default=request.path == "/v1/pipeline"
            )
        self._protocol_errors_total.inc()
        return json_response(
            404, {"error": f"no such endpoint {request.path}"}, keep_alive=keep_alive
        )

    def _method_not_allowed(self, keep_alive: bool) -> bytes:
        self._protocol_errors_total.inc()
        return json_response(405, {"error": "method not allowed"}, keep_alive=keep_alive)

    def _health_document(self) -> dict:
        default = self.engine.default_workspace_name
        document = {
            "status": "draining" if self._draining else "ok",
            "in_flight": self._in_flight,
            "max_in_flight": self.max_in_flight,
            "workspaces": list(self.engine.workspace_names()),
            "default_workspace": default,
        }
        if self.service is not None:
            document["pool"] = self.service.pool.stats_dict()
        return document

    def _handle_workspaces(self, path: str, keep_alive: bool) -> bytes:
        """``GET /v1/workspaces`` (list) and ``/v1/workspaces/<name>``."""
        suffix = path[len("/v1/workspaces"):].strip("/")
        if not suffix:
            return json_response(
                200,
                {
                    "default": self.engine.default_workspace_name,
                    "workspaces": self.engine.describe_workspaces(),
                },
                keep_alive=keep_alive,
            )
        try:
            # Registry snapshot only — describing a registered-but-idle
            # tenant must not build its handle (pool, plan session).
            description = self.engine.describe_workspace(suffix)
        except UnknownWorkspaceError as exc:
            self._reap_workspace(suffix)
            return self._unknown_workspace_response(exc, keep_alive)
        description = dict(description)
        description["in_flight"] = self._workspace_in_flight.get(suffix, 0)
        if self.workspace_max_in_flight:
            description["max_in_flight"] = self.workspace_max_in_flight
        return json_response(200, description, keep_alive=keep_alive)

    async def _handle_delta(self, request: HttpRequest, name: str) -> bytes:
        """``POST /v1/workspaces/<name>/delta`` — apply a typed catalog delta.

        The body is the :meth:`repro.catalog.delta.CatalogDelta.to_json`
        wire document.  The delta is applied through the engine's
        revalidating path on an executor thread (it may rebuild the
        plan session), and the response is the
        :class:`~repro.catalog.delta.RevalidationReport`.
        """
        keep_alive = request.keep_alive
        if self._draining:
            return self._draining_response()
        try:
            delta = CatalogDelta.from_json(request.json())
        except (ProtocolError, ConfigError) as exc:
            self._protocol_errors_total.inc()
            return json_response(400, {"error": str(exc)}, keep_alive=keep_alive)
        if not self.engine.has_workspace(name):
            self._reap_workspace(name)
            return self._unknown_workspace_response(
                f"unknown workspace {name!r}", keep_alive
            )
        loop = asyncio.get_running_loop()
        try:
            # Off the event loop: revalidation holds the pool lock and may
            # rebuild the plan session for view-touching deltas.
            report = await loop.run_in_executor(
                None, self.engine.apply_delta, name, delta
            )
        except UnknownWorkspaceError as exc:
            self._reap_workspace(name)
            return self._unknown_workspace_response(exc, keep_alive)
        except (CatalogError, ConfigError) as exc:
            # A delta inconsistent with the live catalog (duplicate adds,
            # unknown names, dimension changes on value-backed matrices) is
            # the client's condition to resolve.
            return self._unprocessable(exc, name, keep_alive)
        except Exception as exc:
            return self._internal_error(exc, keep_alive)
        self._catalog_deltas_total.inc()
        self._plans_revalidated_total.inc(report.plans_revalidated)
        self._plans_kept_warm_total.inc(report.plans_kept_warm)
        self._responses_2xx.inc()
        return json_response(200, report.as_dict(), keep_alive=keep_alive)

    async def _handle_submit(self, request: HttpRequest, execute_default: bool) -> bytes:
        keep_alive = request.keep_alive
        if self._draining:
            return self._draining_response()
        if self._in_flight >= self.max_in_flight:
            self._rejected_total.inc()
            return json_response(
                429,
                {"error": "too many in-flight requests", "max_in_flight": self.max_in_flight},
                keep_alive=keep_alive,
                extra_headers={"retry-after": "0"},
            )
        try:
            body = request.json()
            if isinstance(body, dict) and "execute" not in body:
                body = dict(body, execute=execute_default)
            service_request = parse_plan_request(body)
        except ProtocolError as exc:
            self._protocol_errors_total.inc()
            return json_response(400, {"error": str(exc)}, keep_alive=keep_alive)

        try:
            workspace_name = self._route_name(service_request.workspace)
            if not self.engine.has_workspace(workspace_name):
                known = ", ".join(self.engine.workspace_names()) or "<none>"
                raise UnknownWorkspaceError(
                    f"unknown workspace {workspace_name!r}; "
                    f"registered workspaces: {known}"
                )
        except UnknownWorkspaceError as exc:
            if service_request.workspace is not None:
                self._reap_workspace(service_request.workspace)
            return self._unknown_workspace_response(exc, keep_alive)
        if (
            self.workspace_max_in_flight
            and self._workspace_in_flight.get(workspace_name, 0)
            >= self.workspace_max_in_flight
        ):
            self._rejected_total.inc()
            self._instruments_for(workspace_name)["rejected"].inc()
            return json_response(
                429,
                {
                    "error": f"workspace {workspace_name!r} is over its quota",
                    "workspace": workspace_name,
                    "workspace_max_in_flight": self.workspace_max_in_flight,
                },
                keep_alive=keep_alive,
                extra_headers={"retry-after": "0"},
            )

        # Admitted BEFORE any await: requests parked on a cold-start
        # handle build count against (and are bounded by) the in-flight
        # bounds exactly like requests planning on a thread.
        instruments = self._admit(workspace_name)
        # Each failure costs one response of its own status, never the
        # connection; the request is released before it is answered.
        try:
            try:
                result = await self.planner.submit(workspace_name, service_request)
            finally:
                self._release(workspace_name, instruments)
        except UnknownWorkspaceError as exc:
            # Removed between the existence check and planning.
            self._reap_workspace(workspace_name)
            return self._unknown_workspace_response(exc, keep_alive)
        except ConfigError as exc:
            # A plan-only workspace (registered without a catalog) cannot
            # go through the service path; a well-formed request against it
            # is the client's condition to resolve.
            return self._unprocessable(exc, workspace_name, keep_alive)
        except PlannerClosed:
            return self._draining_response()
        except Exception as exc:  # noqa: BLE001 — a planner bug
            return self._internal_error(exc, keep_alive)
        return self._respond(result, service_request, workspace_name, instruments, keep_alive)

    # ------------------------------------------------------------------ accounting
    def _admit(self, workspace_name: str) -> dict:
        """Count one request in; returns the workspace's instrument epoch.

        The caller hands the returned handle back to :meth:`_release` /
        :meth:`_observe`, which touch it only while it is still the
        live epoch — a request outliving its tenant's reap (and even a
        same-name re-registration) can then never resurrect removed series
        or drive a fresh tenant's gauge negative.
        """
        self._in_flight += 1
        self._requests_total.inc()
        self._in_flight_gauge.inc()
        self._workspace_in_flight[workspace_name] = (
            self._workspace_in_flight.get(workspace_name, 0) + 1
        )
        instruments = self._instruments_for(workspace_name)
        instruments["requests"].inc()
        instruments["in_flight"].inc()
        self._idle.clear()
        return instruments

    def _release(self, workspace_name: str, instruments: dict) -> None:
        self._in_flight -= 1
        self._in_flight_gauge.dec()
        if workspace_name in self._workspace_in_flight:
            self._workspace_in_flight[workspace_name] = max(
                0, self._workspace_in_flight[workspace_name] - 1
            )
        if self._workspace_instruments.get(workspace_name) is instruments:
            instruments["in_flight"].dec()
        if self._in_flight == 0:
            self._idle.set()

    def _respond(
        self,
        result: ServiceResult,
        service_request: ServiceRequest,
        workspace_name: str,
        instruments: dict,
        keep_alive: bool,
    ) -> bytes:
        """Map a planned request to its HTTP response (422/500/200) and
        count it — the one place a planning outcome becomes a status."""
        payload = result_to_json(result)
        if any(who == "planner" for who, _ in result.failures):
            self._plan_failures_total.inc()
            self._responses_4xx.inc()
            return json_response(422, payload, keep_alive=keep_alive)
        if service_request.execute and result.value is None and result.failures:
            self._responses_5xx.inc()
            return json_response(500, payload, keep_alive=keep_alive)
        self._observe(result, workspace_name, instruments)
        self._responses_2xx.inc()
        return json_response(200, payload, keep_alive=keep_alive)

    def _observe(self, result: ServiceResult, workspace_name: str, instruments: dict) -> None:
        """Record one successfully answered request in the metrics."""
        rewrite = result.rewrite
        if rewrite.cache_hit:
            self._cache_hits_total.inc()
        elif rewrite.saturation is not None:
            # Cache hits reuse a plan whose saturation already ran (and was
            # already counted); only fresh rewrites contribute prune counts.
            self._chase_pruned_total.inc(rewrite.saturation.pruned_applications)
            self._chase_pruned_tightening_total.inc(rewrite.saturation.pruned_by_tightening)
        self._queue_seconds.observe(result.queue_seconds)
        self._plan_seconds.observe(result.plan_seconds)
        self._execute_seconds.observe(result.execute_seconds)
        total = result.total_seconds
        self._total_seconds.observe(total)
        if self._workspace_instruments.get(workspace_name) is instruments:
            instruments["total_seconds"].observe(total)

    def _observe_batch(self, stats: BatchStats) -> None:
        # Arrives from the submit_many caller thread via the service batch
        # hook (the registry is thread-safe).  These are the *service-side*
        # numbers — they also cover batches other callers push through the
        # same service.
        self._service_batch_size.observe(stats.size)
        self._service_batch_seconds.observe(stats.seconds)
        self._service_cache_hits_total.inc(stats.cache_hits)

    # ------------------------------------------------------------------ summaries
    def stats_dict(self) -> dict:
        """JSON-ready snapshot for benchmarks: metrics + pool counters."""
        summary = {
            "metrics": self.metrics.as_dict(),
            "max_in_flight": self.max_in_flight,
            "workspace_max_in_flight": self.workspace_max_in_flight,
        }
        if self.service is not None:
            summary["pool"] = self.service.pool.stats_dict()
        summary.update(self.planner.stats_dict())
        return summary


def run_gateway(gateway: AnalyticsGateway) -> None:
    """Blocking convenience entry point (``python -m``-style scripts)."""
    async def main() -> None:
        await gateway.start()
        try:
            await gateway.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await gateway.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


__all__ = ["AnalyticsGateway", "run_gateway"]
