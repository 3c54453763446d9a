"""Tests of the serving layer: wire protocol, metrics, planner, gateway.

The behaviours the gateway promises:

* the expression codec round-trips every benchmark pipeline with structural
  equality and identical fingerprints (the property all cache keys rest on);
* a concurrent client storm — on one tenant or two — produces plans
  byte-identical to each tenant's serial ``rewrite_all`` over the same
  expressions, each tenant planning each fingerprint once;
* admission control answers 429 beyond ``max_in_flight`` while every
  admitted request still completes;
* graceful drain finishes in-flight work, 503s late arrivals, and leaves
  nothing hanging;
* per-request failures (an unplannable expression) cost exactly one 422,
  never a neighbouring request.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.api import Engine, WorkspaceRegistry
from repro.backends.numpy_backend import NumpyBackend
from repro.benchkit.datasets import ROLE_BINDINGS_DENSE, benchmark_catalog
from repro.benchkit.harness import materialize_views
from repro.benchkit.pipelines import build_pipeline, default_roles, pipeline_names
from repro.benchkit.views_vexp import build_vexp_views
from repro.catalog import CatalogDelta, ReStat
from repro.lang import colsums, inv, matrix, sum_all, transpose
from repro.lang import matrix_expr as mx
from repro.planner import PlanSession
from repro.server import (
    GatewayClient,
    GatewayError,
    MetricsRegistry,
    ProtocolError,
    expr_from_json,
    expr_to_json,
    parse_plan_request,
    parse_prometheus,
)
from repro.server.metrics import DEFAULT_SIZE_BUCKETS
from repro.server.planner import LocalPlanner, PlannerClosed
from repro.service import ServiceRequest


def _engine(catalog) -> Engine:
    return Engine(catalog)


def _sample_exprs():
    """A small, structurally diverse expression set over the test catalog."""
    M, N, A, B, C = (matrix(name) for name in "MNABC")
    return [
        transpose(M @ N),
        (A + B) @ matrix("vA"),
        sum_all(M @ N),
        colsums(M @ N),
        inv(C),
        transpose(transpose(A)),
    ]


# ---------------------------------------------------------------------------
# Expression codec
# ---------------------------------------------------------------------------


class TestExprCodec:
    def test_round_trip_all_benchmark_pipelines(self):
        roles = default_roles(ROLE_BINDINGS_DENSE)
        for name in pipeline_names():
            expr = build_pipeline(name, roles)
            decoded = expr_from_json(expr_to_json(expr))
            assert decoded == expr, name
            assert decoded.fingerprint() == expr.fingerprint(), name

    def test_payload_types_survive(self):
        # Identity carries an int, ScalarConst a float; the fingerprint
        # hashes the payload type names, so a codec that collapsed 2 and
        # 2.0 would silently split the cache.
        identity = mx.Identity(4)
        const = mx.ScalarConst(4.0)
        for expr in (identity, const, mx.MatPow(matrix("M"), 3)):
            decoded = expr_from_json(expr_to_json(expr))
            assert decoded == expr
            assert decoded.fingerprint() == expr.fingerprint()
            assert [type(p) for p in decoded.payload] == [type(p) for p in expr.payload]

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown expression op"):
            expr_from_json({"op": "evil", "payload": [], "children": []})

    def test_arity_mismatch_rejected(self):
        encoded = expr_to_json(transpose(matrix("M")))
        encoded["children"] = []
        with pytest.raises(ProtocolError, match="expects 1 children"):
            expr_from_json(encoded)

    def test_leaf_invariants_enforced(self):
        # Leaves must not smuggle children, and payloads go through the
        # real constructors: empty names, non-positive sizes and wrong
        # types are protocol errors, not downstream planner surprises.
        leaf_with_child = {
            "op": "name",
            "payload": [{"t": "str", "v": "M"}],
            "children": [expr_to_json(matrix("N"))],
        }
        with pytest.raises(ProtocolError, match="expects 0 children"):
            expr_from_json(leaf_with_child)
        for bad_payload in (
            [{"t": "str", "v": ""}],  # empty matrix name
            [{"t": "int", "v": 5}],  # int where a name belongs
        ):
            with pytest.raises(ProtocolError):
                expr_from_json({"op": "name", "payload": bad_payload, "children": []})
        with pytest.raises(ProtocolError, match="invalid 'identity'"):
            expr_from_json(
                {"op": "identity", "payload": [{"t": "int", "v": 0}], "children": []}
            )

    def test_node_budget_enforced(self):
        expr = matrix("M")
        for _ in range(10):
            expr = expr + matrix("M")
        with pytest.raises(ProtocolError, match="exceeds"):
            expr_from_json(expr_to_json(expr), max_nodes=5)

    def test_parse_plan_request_validates(self):
        body = {"expression": expr_to_json(matrix("M")), "name": "p", "execute": False}
        request = parse_plan_request(body)
        assert isinstance(request, ServiceRequest)
        assert request.name == "p" and request.execute is False
        with pytest.raises(ProtocolError, match="expression"):
            parse_plan_request({"name": "no-expr"})
        with pytest.raises(ProtocolError, match="'execute'"):
            parse_plan_request(dict(body, execute="yes"))


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram_semantics(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        with pytest.raises(ValueError):
            counter.inc(-1)

        gauge = registry.gauge("g", "help")
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 2 and gauge.max_value == 5

        histogram = registry.histogram("h", "help", buckets=DEFAULT_SIZE_BUCKETS)
        for value in (1, 3, 200, 500):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 4 and snap["max"] == 500
        assert snap["buckets"]["1.0"] == 1  # cumulative: only the 1
        assert snap["buckets"]["4.0"] == 2  # 1 and 3

    def test_instruments_are_idempotent_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("y") is registry.histogram("y")

    def test_render_is_prometheus_parseable(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", "requests").inc(7)
        registry.histogram("lat_seconds", "latency").observe(0.003)
        parsed = parse_prometheus(registry.render())
        assert parsed["reqs_total"] == 7
        assert parsed["lat_seconds_count"] == 1
        assert 'lat_seconds_bucket{le="0.005"}' in parsed


# ---------------------------------------------------------------------------
# In-process planner
# ---------------------------------------------------------------------------


def _gated(service):
    """Hold every ``submit_many`` of ``service`` until the returned event is
    set; the second event is set once the first call is held."""
    original = service.submit_many
    release, entered = threading.Event(), threading.Event()

    def gated_submit_many(requests, workers=8):
        entered.set()
        release.wait(timeout=10)
        return original(requests, workers=workers)

    service.submit_many = gated_submit_many  # type: ignore[method-assign]
    return release, entered


async def _until(condition, timeout=10.0):
    """Poll ``condition`` on the loop; fail the test after ``timeout`` s."""
    deadline = time.perf_counter() + timeout
    while not condition():
        assert time.perf_counter() < deadline, "condition not reached in time"
        await asyncio.sleep(0.005)


class TestLocalPlanner:
    def test_disconnecting_client_fails_no_other_request(self, small_catalog):
        engine = _engine(small_catalog)
        release, entered = _gated(engine.service)
        exprs = _sample_exprs()

        async def main():
            gateway = engine.build_gateway()
            await gateway.start()
            clients = await asyncio.gather(
                *[GatewayClient("127.0.0.1", gateway.port).connect() for _ in exprs]
            )
            tasks = [
                asyncio.ensure_future(client.plan(expr, name=str(index)))
                for index, (client, expr) in enumerate(zip(clients, exprs))
            ]
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, entered.wait, 5)
            await _until(lambda: gateway.in_flight == len(exprs))
            tasks[0].cancel()  # the client goes away mid-request
            await clients[0].close()
            release.set()
            survivors = await asyncio.gather(*tasks[1:])
            await _until(lambda: gateway.in_flight == 0)
            await asyncio.gather(*[client.close() for client in clients[1:]])
            await gateway.stop()
            return tasks[0].cancelled(), survivors, gateway.in_flight

        cancelled, survivors, in_flight = asyncio.run(main())
        assert cancelled and in_flight == 0
        referee = PlanSession(small_catalog)
        assert [response["plan"] for response in survivors] == [
            referee.rewrite(expr).best.to_string() for expr in exprs[1:]
        ]

    def test_submit_after_close_raises_planner_closed(self, small_catalog):
        engine = _engine(small_catalog)
        exprs = _sample_exprs()

        async def main():
            planner = LocalPlanner(engine, batch_hook=lambda stats: None)
            request = ServiceRequest(expression=exprs[0], execute=False)
            result = await planner.submit("default", request)
            await planner.close()
            with pytest.raises(PlannerClosed):
                await planner.submit(
                    "default", ServiceRequest(expression=exprs[1], execute=False)
                )
            return result

        result = asyncio.run(main())
        assert result.rewrite.best.to_string() and not result.failures

    def test_a_held_tenant_does_not_hold_another_tenants_miss(self, small_catalog):
        """Tenants plan side by side: while tenant ``slow``'s batch is held,
        tenant ``fast`` still gets its cold plan."""
        registry = WorkspaceRegistry()
        registry.register("slow", catalog=small_catalog)
        registry.register("fast", catalog=small_catalog)
        engine = Engine(workspaces=registry)
        release, entered = _gated(engine.workspace("slow").service)
        slow_expr, fast_expr = _sample_exprs()[:2]

        async def main():
            gateway = engine.build_gateway()
            await gateway.start()
            try:
                async with GatewayClient("127.0.0.1", gateway.port) as slow:
                    async with GatewayClient("127.0.0.1", gateway.port) as fast:
                        held = asyncio.ensure_future(
                            slow.plan(slow_expr, name="slow", workspace="slow")
                        )
                        await asyncio.get_running_loop().run_in_executor(
                            None, entered.wait, 5
                        )
                        answer = await asyncio.wait_for(
                            fast.plan(fast_expr, name="fast", workspace="fast"), 5
                        )
                        still_held = not held.done()
                        release.set()
                        slow_answer = await held
            finally:
                release.set()
                await gateway.stop()
            return answer, still_held, slow_answer

        answer, still_held, slow_answer = asyncio.run(main())
        referee = PlanSession(small_catalog)
        assert still_held and not answer["cache_hit"]
        assert answer["plan"] == referee.rewrite(fast_expr).best.to_string()
        assert slow_answer["plan"] == referee.rewrite(slow_expr).best.to_string()

    def test_execute_requests_run_side_by_side(self, small_catalog):
        """Two ``/v1/pipeline`` requests are in their service batches at
        the same time, so their executions can overlap."""
        engine = _engine(small_catalog)
        service = engine.service
        original = service.submit_many
        both_in = threading.Barrier(2, timeout=5)

        def meeting(requests, workers=8):
            both_in.wait()  # broken, and raises, if the other never arrives
            return original(requests, workers=workers)

        service.submit_many = meeting  # type: ignore[method-assign]
        exprs = _sample_exprs()[:2]

        async def main():
            gateway = engine.build_gateway()
            await gateway.start()
            clients = await asyncio.gather(
                *[GatewayClient("127.0.0.1", gateway.port).connect() for _ in exprs]
            )
            responses = await asyncio.gather(
                *[client.execute(expr) for client, expr in zip(clients, exprs)]
            )
            await asyncio.gather(*[client.close() for client in clients])
            await gateway.stop()
            return responses

        numpy = NumpyBackend(small_catalog)
        for expr, response in zip(exprs, asyncio.run(main())):
            assert response["failures"] == [] and response["backend"] is not None
            expected = np.asarray(numpy.evaluate(expr))
            value = response["value"]
            assert value["shape"] == list(expected.shape)
            if "data" in value:
                np.testing.assert_allclose(np.asarray(value["data"]), expected, rtol=1e-6)


# ---------------------------------------------------------------------------
# Gateway end to end
# ---------------------------------------------------------------------------


def _named_pipelines(names):
    roles = default_roles(ROLE_BINDINGS_DENSE)
    return [(name, build_pipeline(name, roles)) for name in names]


def _sample_storm(small_catalog):
    """One tenant asked for the six sample expressions."""
    return _engine(small_catalog), {
        "default": [(str(index), expr) for index, expr in enumerate(_sample_exprs())]
    }


def _pipeline_storm(small_catalog):
    """One tenant asked for six structurally distinct paper pipelines."""
    pipelines = _named_pipelines(["P1.1", "P1.4", "P1.13", "P1.15", "P2.10", "P2.25"])
    return _engine(benchmark_catalog(scale=0.01)), {"default": pipelines}


def _two_tenant_storm(small_catalog):
    """Two tenants over one catalog, without and with the V_exp views: the
    same fingerprints, with plans that differ where a view applies."""
    catalog = benchmark_catalog(scale=0.01)
    views = build_vexp_views(default_roles(ROLE_BINDINGS_DENSE))
    with np.errstate(over="ignore"):  # det views V10 / V11 overflow at this scale
        materialize_views(views, catalog)
    registry = WorkspaceRegistry()
    registry.register("noviews", catalog=catalog)
    registry.register("vexp", catalog=catalog, views=views)
    pipelines = _named_pipelines(["P1.1", "P1.4", "P2.14", "P2.25"])
    return Engine(workspaces=registry), {"noviews": pipelines, "vexp": pipelines}


#: (build, clients per tenant, requests per client, in-flight peak held)
STORMS = [
    pytest.param(_sample_storm, 64, 1, 2, id="64-clients"),
    pytest.param(_pipeline_storm, 220, 2, 200, id="220-clients", marks=pytest.mark.slow),
    pytest.param(_two_tenant_storm, 12, 2, 16, id="2-tenants-x-12-clients"),
]


class TestGateway:
    @pytest.mark.parametrize("build, clients_per_tenant, requests_per_client, peak", STORMS)
    def test_storm_plans_byte_identical_to_serial(
        self, small_catalog, build, clients_per_tenant, requests_per_client, peak
    ):
        """Simultaneous clients: every plan equals its own tenant's serial
        rewrite_all, nothing is rejected or lost, and each tenant plans each
        fingerprint once.  Misses are held at the planner until ``peak``
        requests are in flight at once."""
        engine, pipelines = build(small_catalog)
        tenants = list(pipelines)
        releases = [_gated(engine.workspace(tenant).service)[0] for tenant in tenants]
        serial = {}
        for tenant, named in pipelines.items():
            bundle = engine.workspaces.get(tenant)
            session = PlanSession(
                catalog=bundle.catalog,
                views=list(bundle.views),
                estimator=bundle.estimator,
                config=bundle.config,
            )
            results = session.rewrite_all([expr for _, expr in named])
            serial[tenant] = {
                name: result.best.to_string() for (name, _), result in zip(named, results)
            }
        clients = clients_per_tenant * len(tenants)

        async def main():
            gateway = engine.build_gateway(max_in_flight=2 * clients)
            await gateway.start()
            connections = await asyncio.gather(
                *[
                    GatewayClient("127.0.0.1", gateway.port).connect()
                    for _ in range(clients)
                ]
            )

            async def release_at_peak():
                await _until(lambda: gateway.in_flight >= peak)
                for release in releases:
                    release.set()

            releasing = asyncio.ensure_future(release_at_peak())

            async def one(index):
                # A tenant's k-th client starts k requests into the tenant's
                # list, so every tenant is asked for all of it.
                tenant = tenants[index % len(tenants)]
                named = pipelines[tenant]
                first = index // len(tenants) * requests_per_client
                answers = []
                for turn in range(requests_per_client):
                    name, expr = named[(first + turn) % len(named)]
                    response = await connections[index].plan(expr, name=name, workspace=tenant)
                    answers.append((tenant, name, response["plan"]))
                return answers

            answers = await asyncio.gather(*[one(i) for i in range(clients)])
            await releasing
            await asyncio.gather(*[connection.close() for connection in connections])
            snapshot = gateway.metrics.as_dict()
            await gateway.stop()
            return [answer for per_client in answers for answer in per_client], snapshot

        answers, snapshot = asyncio.run(main())
        assert len(answers) == clients * requests_per_client
        for tenant, name, plan in answers:
            assert plan == serial[tenant][name], (tenant, name)
        counters = snapshot["counters"]
        assert counters["gateway_rejected_total"] == 0
        assert snapshot["gauges"]["gateway_in_flight_requests"]["max"] >= peak
        for tenant, named in pipelines.items():
            series = f'gateway_workspace_requests_total{{workspace="{tenant}"}}'
            assert counters[series] == clients_per_tenant * requests_per_client
            # Dedup: each tenant plans each distinct fingerprint once.
            assert engine.workspace(tenant).pool.stats.plans_computed == len(named)
        # With two tenants the isolation is load-bearing: their plans differ.
        assert len({tuple(plans.items()) for plans in serial.values()}) == len(tenants)

    def test_execute_value_matches_backend(self, small_catalog):
        expr = transpose(matrix("M") @ matrix("N"))
        expected = NumpyBackend(small_catalog).evaluate(expr)
        engine = _engine(small_catalog)

        async def main():
            gateway = engine.build_gateway()
            await gateway.start()
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                response = await client.execute(expr, name="exec")
            await gateway.stop()
            return response

        response = asyncio.run(main())
        assert response["backend"] is not None
        value = response["value"]
        assert value["kind"] == "dense"
        assert value["shape"] == list(expected.shape)
        if "data" in value:
            np.testing.assert_allclose(np.asarray(value["data"]), expected, rtol=1e-6)
        timings = response["timings"]
        assert timings["total_seconds"] == pytest.approx(
            timings["queue_seconds"]
            + timings["plan_seconds"]
            + timings["execute_seconds"]
        )

    def test_backpressure_rejects_over_limit(self, small_catalog):
        engine = _engine(small_catalog)
        service = engine.service
        original = service.submit_many
        expected = PlanSession(small_catalog).rewrite(_sample_exprs()[0]).best.to_string()

        def slow_submit_many(requests, workers=8):
            time.sleep(0.25)
            return original(requests, workers=workers)

        service.submit_many = slow_submit_many  # type: ignore[method-assign]
        clients = 10

        async def main():
            gateway = engine.build_gateway(max_in_flight=2)
            await gateway.start()
            connections = await asyncio.gather(
                *[
                    GatewayClient("127.0.0.1", gateway.port).connect()
                    for _ in range(clients)
                ]
            )

            async def one(index):
                try:
                    response = await connections[index].plan(_sample_exprs()[0], name=str(index))
                    # An admitted request is answered with the right plan.
                    assert response["plan"] == expected
                    return "ok"
                except GatewayError as error:
                    assert error.status == 429
                    assert "max_in_flight" in error.payload
                    return "rejected"

            outcomes = await asyncio.gather(*[one(i) for i in range(clients)])
            await asyncio.gather(*[connection.close() for connection in connections])
            snapshot = gateway.metrics.as_dict()
            await gateway.stop()
            return outcomes, snapshot

        outcomes, snapshot = asyncio.run(main())
        assert outcomes.count("rejected") >= 1
        assert outcomes.count("ok") >= 2
        assert len(outcomes) == clients
        assert snapshot["counters"]["gateway_rejected_total"] == outcomes.count(
            "rejected"
        )
        # Admission control never exceeded its bound.
        assert snapshot["gauges"]["gateway_in_flight_requests"]["max"] <= 2

    def test_graceful_drain_completes_inflight_and_503s_late(self, small_catalog):
        engine = _engine(small_catalog)
        service = engine.service
        original = service.submit_many

        def slow_submit_many(requests, workers=8):
            time.sleep(0.3)
            return original(requests, workers=workers)

        service.submit_many = slow_submit_many  # type: ignore[method-assign]

        async def main():
            gateway = engine.build_gateway()
            await gateway.start()
            early = await GatewayClient("127.0.0.1", gateway.port).connect()
            late = await GatewayClient("127.0.0.1", gateway.port).connect()

            inflight = asyncio.ensure_future(
                early.plan(_sample_exprs()[0], name="inflight")
            )
            await asyncio.sleep(0.1)  # admitted, planning on a thread
            stopping = asyncio.ensure_future(gateway.stop())
            await asyncio.sleep(0.05)
            assert gateway.draining
            status, payload = await late.request(
                "POST",
                "/v1/plan",
                {"expression": expr_to_json(_sample_exprs()[1])},
            )
            response = await inflight
            await stopping
            await early.close()
            await late.close()
            return status, payload, response, gateway.in_flight

        status, payload, response, in_flight = asyncio.run(main())
        assert status == 503 and "drain" in payload["error"]
        assert response["plan"]  # the admitted request completed with a plan
        assert in_flight == 0

    def test_unplannable_expression_answers_422_not_batch_failure(self, small_catalog):
        # M (40x6) @ A (30x8): a shape error the planner raises on.  Sent
        # beside a healthy request, only the poisoned one may fail.
        bad = matrix("M") @ matrix("A")
        good = transpose(matrix("M") @ matrix("N"))
        engine = _engine(small_catalog)

        async def main():
            gateway = engine.build_gateway()
            await gateway.start()
            async with GatewayClient("127.0.0.1", gateway.port) as bad_client:
                async with GatewayClient("127.0.0.1", gateway.port) as good_client:
                    bad_task = asyncio.ensure_future(
                        bad_client.submit(bad, name="bad", raise_on_error=False)
                    )
                    good_task = asyncio.ensure_future(
                        good_client.plan(good, name="good")
                    )
                    bad_response, good_response = await asyncio.gather(
                        bad_task, good_task
                    )
            snapshot = gateway.metrics.as_dict()
            await gateway.stop()
            return bad_response, good_response, snapshot

        bad_response, good_response, snapshot = asyncio.run(main())
        assert bad_response["status"] == 422
        assert any(who == "planner" for who, _ in bad_response["failures"])
        # Unplannable requests have no costs; the body must stay strict
        # JSON (null), never the spec-invalid NaN literal.
        assert bad_response["original_cost"] is None
        assert bad_response["best_cost"] is None
        assert good_response["plan"]
        assert snapshot["counters"]["gateway_plan_failures_total"] == 1

    def test_stop_returns_despite_idle_keepalive_connections(self, small_catalog):
        """A client that holds its keep-alive connection open must not hang
        the drain (Server.wait_closed awaits all handlers on 3.12+)."""
        engine = _engine(small_catalog)

        async def main():
            gateway = engine.build_gateway()
            await gateway.start()
            idle_client = await GatewayClient("127.0.0.1", gateway.port).connect()
            await idle_client.plan(_sample_exprs()[0])
            # idle_client keeps its connection open; stop() must still finish.
            await asyncio.wait_for(gateway.stop(), timeout=10)
            await idle_client.close()

        asyncio.run(main())

    def test_stop_leaves_no_connection_handler_to_cancel(self, small_catalog):
        """stop() returns after every connection handler has: before 3.12,
        Server.wait_closed does not wait for them, and asyncio.run then
        cancels a handler the loop reports as an exception in a callback."""
        expr = _sample_exprs()[0]
        engine = _engine(small_catalog)
        engine.rewrite(expr)  # a warm hit, answered on the event loop
        recorded = []

        async def main():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: recorded.append(context)
            )
            gateway = await engine.serve()
            client = await GatewayClient("127.0.0.1", gateway.port).connect()
            await client.plan(expr)
            await client.close()
            await gateway.stop()

        asyncio.run(main())
        assert recorded == []

    def test_oversized_request_line_answers_400(self, small_catalog):
        """A request line past the stream limit is a 400, not a reset."""
        engine = _engine(small_catalog)

        async def main():
            gateway = engine.build_gateway()
            await gateway.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            writer.write(b"GET /" + b"a" * 100_000 + b" HTTP/1.1\r\n\r\n")
            await writer.drain()
            status_line = await reader.readline()
            writer.close()
            await gateway.stop()
            return status_line

        status_line = asyncio.run(main())
        assert b"400" in status_line

    def test_http_errors(self, small_catalog):
        engine = _engine(small_catalog)

        async def main():
            gateway = engine.build_gateway()
            await gateway.start()
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                missing = await client.request("GET", "/nope")
                bad_method = await client.request("GET", "/v1/plan")
                bad_body = await client.request("POST", "/v1/plan", {"no": "expr"})
                health = await client.health()
            await gateway.stop()
            return missing, bad_method, bad_body, health

        missing, bad_method, bad_body, health = asyncio.run(main())
        assert missing[0] == 404
        assert bad_method[0] == 405
        assert bad_body[0] == 400
        assert health["status_code"] == 200 and health["status"] == "ok"

    def test_metrics_endpoint_exposes_serving_series(self, small_catalog):
        engine = _engine(small_catalog)
        expr = _sample_exprs()[0]

        async def main():
            gateway = engine.build_gateway()
            await gateway.start()
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                for _ in range(3):
                    await client.plan(expr)
                text = await client.metrics_text()
            await gateway.stop()
            return text

        parsed = parse_prometheus(asyncio.run(main()))
        assert parsed["gateway_requests_total"] == 3
        assert parsed["gateway_responses_2xx_total"] == 3
        assert parsed["service_batch_size_count"] >= 1
        assert parsed["gateway_total_seconds_count"] == 3
        # 3 identical expressions: at least 2 answered from cached plans.
        assert parsed["gateway_cache_hits_total"] >= 2


# ---------------------------------------------------------------------------
# The read path: a warm plan is a lookup on the event loop
# ---------------------------------------------------------------------------


def _planned(gateway) -> int:
    """Requests that reached a planner thread: each is one service batch."""
    return gateway.metrics.as_dict()["histograms"]["service_batch_size"]["count"]


class TestWarmPlanReadPath:
    def _serve(self, engine, drive):
        async def main():
            gateway = await engine.serve()
            try:
                async with GatewayClient("127.0.0.1", gateway.port) as client:
                    return await drive(gateway, client)
            finally:
                await asyncio.wait_for(gateway.stop(), timeout=30)

        return asyncio.run(main())

    def test_warm_plan_is_answered_without_a_planner_thread(self, small_catalog):
        expr = _sample_exprs()[0]
        engine = _engine(small_catalog)
        engine.rewrite(expr)  # the tenant arrives warm, as serve_churn's do

        async def drive(gateway, client):
            await client.health()  # connection up before the clock starts
            started = time.perf_counter()
            response = await client.plan(expr, name="warm")
            elapsed = time.perf_counter() - started
            return response, elapsed, _planned(gateway)

        response, elapsed, planned = self._serve(engine, drive)
        assert response["cache_hit"] and response["name"] == "warm"
        assert response["plan"] == PlanSession(small_catalog).rewrite(expr).best.to_string()
        assert elapsed < 0.05
        assert planned == 0
        assert response["timings"]["queue_seconds"] == 0.0
        assert response["timings"]["total_seconds"] == response["timings"]["plan_seconds"]

    def test_tenant_served_only_from_the_loop_is_listed_in_workspace_pools(
        self, small_catalog
    ):
        expr = _sample_exprs()[0]
        engine = _engine(small_catalog)
        engine.rewrite(expr)

        async def drive(gateway, client):
            assert (await client.plan(expr))["cache_hit"]
            return gateway.stats_dict(), _planned(gateway)

        stats, planned = self._serve(engine, drive)
        assert planned == 0
        assert list(stats["workspace_pools"]) == ["default"]
        pool = stats["workspace_pools"]["default"]
        assert pool == engine.pool.stats_dict()
        assert pool["shared_hits"] == 1 and pool["plans_computed"] == 1

    def test_warm_pipeline_request_still_goes_to_a_planner_thread(self, small_catalog):
        expr = _sample_exprs()[0]
        engine = _engine(small_catalog)
        engine.rewrite(expr)

        async def drive(gateway, client):
            response = await client.execute(expr, name="exec")
            return response, _planned(gateway)

        response, planned = self._serve(engine, drive)
        assert response["cache_hit"] and response["value"] is not None
        assert response["backend"] is not None
        assert planned == 1

    def test_concurrent_cold_duplicates_plan_once(self, small_catalog):
        expr = _sample_exprs()[1]
        engine = _engine(small_catalog)
        release, _ = _gated(engine.service)

        async def drive(gateway, client):
            async with GatewayClient("127.0.0.1", gateway.port) as other:
                both = asyncio.gather(
                    client.plan(expr, name="a"), other.plan(expr, name="b")
                )
                await _until(lambda: gateway.in_flight == 2)  # both missed, both held
                release.set()
                responses = await both
            return responses, _planned(gateway)

        responses, planned = self._serve(engine, drive)
        assert planned == 2  # one service batch each
        assert sorted(r["cache_hit"] for r in responses) == [False, True]
        assert responses[0]["plan"] == responses[1]["plan"]
        assert engine.pool.stats.plans_computed == 1

    def test_delta_evicts_to_a_planner_thread_and_keeps_the_rest_on_the_loop(
        self, small_catalog
    ):
        touched = inv(matrix("C")) @ matrix("v1")  # footprint {C, v1}
        untouched = sum_all(matrix("M") @ matrix("N"))  # footprint {M, N}
        engine = _engine(small_catalog)
        engine.rewrite(touched)
        engine.rewrite(untouched)
        delta = CatalogDelta((ReStat(name="C", nnz=9),)).to_json()

        async def drive(gateway, client):
            status, report = await client.request(
                "POST", "/v1/workspaces/default/delta", delta
            )
            assert status == 200
            reads = []
            for expr in (untouched, touched, touched):
                response = await client.plan(expr)
                reads.append((response, _planned(gateway)))
            return report, reads

        report, reads = self._serve(engine, drive)
        assert report["plans_kept_warm"] == 1 and report["plans_revalidated"] == 1
        (kept, kept_planned), (miss, miss_planned), (hit, hit_planned) = reads
        assert kept["cache_hit"] and kept_planned == 0  # outside the footprint
        assert not miss["cache_hit"] and miss_planned == 1  # re-planned on a thread
        assert hit["cache_hit"] and hit_planned == 1  # and warm again on the loop
        referee = PlanSession(engine.workspaces.get("default").catalog)
        for response, expr in ((kept, untouched), (miss, touched), (hit, touched)):
            cold = referee.rewrite(expr)
            assert response["plan"] == cold.best.to_string()
            assert response["best_cost"] == cold.best_cost
            assert response["used_views"] == list(cold.used_views)

    def test_busy_pool_lock_never_stalls_the_loop(self, small_catalog):
        """A delta holds the pool's store lock for a whole revalidation.
        While it is held a warm read goes to a planner thread (which waits),
        the loop keeps serving, and the answer is the hit it would
        have been: the loop-hit body in every field but ``timings``.

        (A named tenant; the default workspace's lock is held in
        :meth:`test_health_never_waits_for_the_default_pool_lock`.)"""
        expr = _sample_exprs()[0]
        registry = WorkspaceRegistry()
        registry.register("busy", catalog=small_catalog)
        engine = Engine(workspaces=registry)
        engine.workspace("busy").rewrite(expr)
        pool = engine.workspace("busy").pool
        held, release = threading.Event(), threading.Event()

        def hold():
            with pool.store._lock:
                held.set()
                release.wait(timeout=10)

        async def drive(gateway, client):
            loop_hit = await client.plan(expr, name="read", workspace="busy")
            assert _planned(gateway) == 0
            holder = threading.Thread(target=hold)
            holder.start()
            try:
                await asyncio.get_running_loop().run_in_executor(None, held.wait, 5)
                async with GatewayClient("127.0.0.1", gateway.port) as other:
                    await other.health()  # connection up before the clock starts
                    blocked = asyncio.ensure_future(
                        client.plan(expr, name="read", workspace="busy")
                    )
                    await asyncio.sleep(0.02)  # admitted, its lookup refused
                    started = time.perf_counter()
                    health = await other.health()
                    health_seconds = time.perf_counter() - started
                await asyncio.sleep(0.2)
                still_waiting = not blocked.done()
            finally:
                release.set()
                holder.join(timeout=10)
            thread_hit = await asyncio.wait_for(blocked, timeout=10)
            return loop_hit, thread_hit, health, health_seconds, still_waiting, _planned(gateway)

        loop_hit, thread_hit, health, health_seconds, still_waiting, planned = self._serve(
            engine, drive
        )
        assert health["status_code"] == 200 and health["in_flight"] == 1
        assert health_seconds < 0.05
        assert still_waiting and planned == 1
        assert loop_hit["cache_hit"] and thread_hit["cache_hit"]
        assert loop_hit["timings"]["queue_seconds"] == 0.0
        assert thread_hit["timings"]["plan_seconds"] >= 0.15  # waited, on a thread
        loop_hit.pop("timings"), thread_hit.pop("timings")
        assert loop_hit == thread_hit

    def test_health_never_waits_for_the_default_pool_lock(self, small_catalog):
        """``/healthz`` and ``gateway.stats_dict()`` report the *default*
        workspace's pool counters from the event loop: they read them without
        the pool lock, which a view-touching delta holds for a whole
        prototype rebuild."""
        engine = _engine(small_catalog)
        engine.rewrite(_sample_exprs()[0])
        pool = engine.pool
        held = threading.Event()

        def hold():
            with pool._lock:
                held.set()
                time.sleep(0.2)

        async def drive(gateway, client):
            await client.health()  # connection up before the clock starts
            holder = threading.Thread(target=hold)
            holder.start()
            try:
                await asyncio.get_running_loop().run_in_executor(None, held.wait, 5)
                started = time.perf_counter()
                health = await client.health()
                stats = gateway.stats_dict()
                elapsed = time.perf_counter() - started
                lock_still_held = pool._lock.locked()
            finally:
                holder.join(timeout=10)
            return health, stats, elapsed, lock_still_held, holder.is_alive()

        health, stats, elapsed, lock_still_held, alive = self._serve(engine, drive)
        assert lock_still_held and not alive
        assert elapsed < 0.05
        assert health["status_code"] == 200 and health["status"] == "ok"
        assert {"in_flight", "max_in_flight", "workspaces", "default_workspace"} <= set(health)
        assert health["pool"] == stats["pool"] == pool.stats_dict()
        assert health["pool"]["plans_computed"] == 1
