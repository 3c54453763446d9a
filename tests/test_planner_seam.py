"""Tests of the planner seam: the gateway against a fake and the local
planner.

The gateway plans through one object (``gateway.planner``) and maps the
envelope it answers to an HTTP response in one function.  That makes these
things checkable:

* every status the gateway can answer a submit with (200 hit, 200 miss,
  422 planner failure, 422 plan-only workspace, 404 unknown workspace, 500
  execute failure, 503 closed), driven by a ``FakePlanner`` returning canned
  envelopes — status, body and ``/metrics`` delta each, without a socket;
* what the local planner answers a client over real HTTP for a miss and
  then a hit: status, the ``cache_hit`` flag and the response counters;
* the local planner's warm read path, answered on the event loop;
* the envelopes themselves: which exception becomes which failure kind,
  and which keys a planned or failed request's envelope carries.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import Engine, WorkspaceRegistry
from repro.exceptions import ConfigError, UnknownWorkspaceError
from repro.lang import matrix, transpose
from repro.server import GatewayClient
from repro.server.planner import LocalPlanner, Planner, PlannerClosed, error_envelope
from repro.server.protocol import HttpRequest, expr_to_json
from repro.service import ServiceRequest


def _flat(metrics) -> dict:
    """Counters, gauge values and histogram counts as one flat dict."""
    snapshot = metrics.as_dict()
    flat = dict(snapshot["counters"])
    flat.update({name: gauge["value"] for name, gauge in snapshot["gauges"].items()})
    flat.update(
        {f"{name}:count": histogram["count"] for name, histogram in snapshot["histograms"].items()}
    )
    return flat


def _delta(before: dict, after: dict) -> dict:
    return {
        name: after.get(name, 0) - before.get(name, 0)
        for name in set(before) | set(after)
        if after.get(name, 0) != before.get(name, 0)
    }


# ---------------------------------------------------------------------------
# The gateway against a fake planner
# ---------------------------------------------------------------------------


class FakePlanner:
    """Answers every submit with one canned envelope."""

    def __init__(self, envelope: dict):
        self.envelope = envelope
        self.submitted = []

    async def submit(self, workspace, request) -> dict:
        self.submitted.append((workspace, request))
        return self.envelope

    def stats_dict(self) -> dict:
        return {}

    async def close(self) -> None:
        pass


def _payload(**overrides) -> dict:
    payload = {
        "name": "q",
        "fingerprint": "f" * 16,
        "plan": "t(M)",
        "changed": True,
        "cache_hit": False,
        "original_cost": 2.0,
        "best_cost": 1.0,
        "used_views": [],
        "backend": None,
        "value": None,
        "failures": [],
        "timings": {
            "queue_seconds": 0.001,
            "plan_seconds": 0.002,
            "execute_seconds": 0.0,
            "total_seconds": 0.003,
        },
    }
    payload.update(overrides)
    return payload


def _submit(gateway, endpoint: str):
    """Drive ``_handle_submit`` with one well-formed request; (status, head, body)."""
    request = HttpRequest(
        "POST",
        endpoint,
        {},
        json.dumps({"expression": expr_to_json(matrix("M"))}).encode("utf-8"),
    )
    raw = asyncio.run(
        gateway._handle_submit(request, execute_default=endpoint == "/v1/pipeline")
    )
    head, _, answered = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), head, json.loads(answered)


WS = '{workspace="default"}'
ADMITTED = {"gateway_requests_total": 1, f"gateway_workspace_requests_total{WS}": 1}
OBSERVED = {
    "gateway_responses_2xx_total": 1,
    "gateway_queue_seconds:count": 1,
    "gateway_plan_seconds:count": 1,
    "gateway_execute_seconds:count": 1,
    "gateway_total_seconds:count": 1,
    f"gateway_workspace_total_seconds{WS}:count": 1,
}
HIT = _payload(cache_hit=True)
MISS = _payload()
UNPLANNABLE = _payload(failures=[["planner", "ShapeError: 40x6 @ 30x8"]])
UNEXECUTABLE = _payload(failures=[["router", "every candidate failed"]])

#: (id, endpoint, envelope, status, body, metrics delta)
CASES = [
    (
        "200-hit",
        "/v1/plan",
        # A hit's prune counters were counted when the plan was made.
        {"ok": True, "payload": HIT, "pruned": [5, 2]},
        200,
        HIT,
        {**ADMITTED, **OBSERVED, "gateway_cache_hits_total": 1},
    ),
    (
        "200-miss",
        "/v1/plan",
        {"ok": True, "payload": MISS, "pruned": [5, 2]},
        200,
        MISS,
        {
            **ADMITTED,
            **OBSERVED,
            "repro_chase_pruned_total": 5,
            "repro_chase_pruned_by_tightening_total": 2,
        },
    ),
    (
        "422-planner-failure",
        "/v1/plan",
        {"ok": True, "payload": UNPLANNABLE, "pruned": [0, 0]},
        422,
        UNPLANNABLE,
        {**ADMITTED, "gateway_plan_failures_total": 1, "gateway_responses_4xx_total": 1},
    ),
    (
        "422-plan-only-workspace",
        "/v1/plan",
        {"ok": False, "kind": "config", "error": "registered without a catalog"},
        422,
        {"error": "registered without a catalog", "workspace": "default"},
        {**ADMITTED, "gateway_responses_4xx_total": 1},
    ),
    (
        "404-unknown-workspace",
        "/v1/plan",
        {"ok": False, "kind": "unknown_workspace", "error": "unknown workspace 'default'"},
        404,
        {"error": "unknown workspace 'default'", "workspaces": ["default"]},
        # The tenant's labeled series are reaped with it.
        {
            "gateway_requests_total": 1,
            "gateway_unknown_workspace_total": 1,
            "gateway_responses_4xx_total": 1,
        },
    ),
    (
        "500-execute-failure",
        "/v1/pipeline",
        {"ok": True, "payload": UNEXECUTABLE, "pruned": [0, 0]},
        500,
        UNEXECUTABLE,
        {**ADMITTED, "gateway_responses_5xx_total": 1},
    ),
    (
        "503-closed",
        "/v1/plan",
        {"ok": False, "kind": "closed", "error": "batcher is draining"},
        503,
        {"error": "gateway is draining"},
        {**ADMITTED, "gateway_drain_rejected_total": 1},
    ),
]


class TestGatewayAgainstFakePlanner:
    @pytest.mark.parametrize(
        "endpoint, envelope, status, body, delta",
        [case[1:] for case in CASES],
        ids=[case[0] for case in CASES],
    )
    def test_envelope_maps_to_status_body_and_metrics(
        self, small_catalog, endpoint, envelope, status, body, delta
    ):
        gateway = Engine(small_catalog).build_gateway()
        gateway.planner = planner = FakePlanner(envelope)
        before = _flat(gateway.metrics)
        answered_status, head, answered = _submit(gateway, endpoint)
        assert answered_status == status
        assert answered == body
        assert _delta(before, _flat(gateway.metrics)) == delta
        assert gateway.in_flight == 0

        [(workspace, submitted)] = planner.submitted
        assert workspace == "default"
        assert isinstance(submitted, ServiceRequest)
        assert submitted.execute == (endpoint == "/v1/pipeline")
        if status == 503:
            assert b"connection: close" in head

    def test_a_raising_planner_costs_one_500(self, small_catalog):
        class Broken(FakePlanner):
            async def submit(self, workspace, request):
                raise RuntimeError("pipe burst")

        gateway = Engine(small_catalog).build_gateway()
        gateway.planner = Broken({})
        status, _, answered = _submit(gateway, "/v1/plan")
        assert status == 500
        assert answered == {"error": "RuntimeError: pipe burst"}
        assert gateway.in_flight == 0

    def test_stats_dict_carries_the_planners_keys(self, small_catalog):
        class Reporting(FakePlanner):
            def stats_dict(self):
                return {"workspace_pools": {"default": {"plans_computed": 3}}}

        gateway = Engine(small_catalog).build_gateway()
        gateway.planner = Reporting({})
        stats = gateway.stats_dict()
        assert stats["workspace_pools"] == {"default": {"plans_computed": 3}}
        assert stats["max_in_flight"] == gateway.max_in_flight

    def test_stop_closes_the_planner(self, small_catalog):
        class Closing(FakePlanner):
            closed = 0

            async def close(self):
                self.closed += 1

        gateway = Engine(small_catalog).build_gateway()
        gateway.planner = planner = Closing({})
        asyncio.run(gateway.stop())
        assert planner.closed == 1

    def test_planners_provide_exactly_the_protocol(self):
        members = {name for name in vars(Planner) if not name.startswith("_")}
        assert members == {"submit", "stats_dict", "close"}
        for planner in (LocalPlanner, FakePlanner):
            assert all(callable(getattr(planner, name)) for name in members)


# ---------------------------------------------------------------------------
# The local planner over real HTTP
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def miss_then_hit() -> dict:
    """``{"miss" | "hit": (status, body, metrics delta)}`` over real HTTP."""
    from repro.benchkit.datasets import ROLE_BINDINGS_DENSE, benchmark_catalog
    from repro.benchkit.pipelines import build_pipeline, default_roles

    expression = build_pipeline("P1.4", default_roles(ROLE_BINDINGS_DENSE))
    registry = WorkspaceRegistry()
    registry.register("solo", catalog=benchmark_catalog(scale=0.01))
    engine = Engine(workspaces=registry)

    async def main() -> dict:
        gateway = await engine.serve()
        outcomes = {}
        try:
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                for kind in ("miss", "hit"):
                    before = _flat(gateway.metrics)
                    body = await client.submit(
                        expression, name=kind, workspace="solo", raise_on_error=False
                    )
                    delta = _delta(before, _flat(gateway.metrics))
                    outcomes[kind] = (body.pop("status", 200), body, delta)
        finally:
            await asyncio.wait_for(gateway.stop(), timeout=30)
        return outcomes

    return asyncio.run(main())


class TestLocalPlannerOverHttp:
    @pytest.mark.parametrize("kind", ["miss", "hit"])
    def test_miss_then_hit(self, miss_then_hit, kind):
        status, body, delta = miss_then_hit[kind]
        assert status == 200
        assert body["cache_hit"] is (kind == "hit")
        assert delta["gateway_responses_2xx_total"] == 1
        assert ("gateway_cache_hits_total" in delta) == (kind == "hit")


# ---------------------------------------------------------------------------
# The local planner's read path, without a socket
# ---------------------------------------------------------------------------


class TestLocalPlannerAnswersWarmPlansItself:
    def _submit(self, engine, request) -> tuple:
        async def main():
            gateway = engine.build_gateway()
            try:
                envelope = await gateway.planner.submit("default", request)
                histograms = gateway.metrics.as_dict()["histograms"]
                return envelope, histograms["service_batch_size"]["count"]
            finally:
                await gateway.planner.close()

        return asyncio.run(main())

    def test_hit_envelope_has_no_queue_and_no_planner_thread(self, small_catalog):
        expression = transpose(matrix("M") @ matrix("N"))
        engine = Engine(small_catalog)
        cold = engine.rewrite(expression)
        envelope, planned = self._submit(
            engine, ServiceRequest(expression=expression, name="q", execute=False)
        )
        assert envelope["ok"] and envelope["pruned"] == [0, 0]
        assert planned == 0  # no service batch ran on a planner thread
        payload = envelope["payload"]
        assert payload["cache_hit"] and payload["name"] == "q"
        assert payload["plan"] == cold.best.to_string()
        assert payload["timings"]["queue_seconds"] == 0.0
        assert payload["backend"] is None and payload["value"] is None

    def test_plan_only_workspace_is_still_a_config_error_when_warm(self):
        """A workspace without a catalog cannot take the service path; a
        plan warmed through its handle does not change that answer."""
        expression = transpose(transpose(matrix("M")))
        engine = Engine()
        engine.workspace().rewrite(expression)
        # Raised to the gateway, which encodes it as the 422 "config" envelope.
        with pytest.raises(ConfigError, match="without a catalog"):
            self._submit(engine, ServiceRequest(expression=expression, execute=False))


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------


class TestEnvelopes:
    @pytest.mark.parametrize(
        "exc, kind, error",
        [
            (UnknownWorkspaceError("unknown workspace 'nope'"), "unknown_workspace", None),
            (ConfigError("registered without a catalog"), "config", None),
            (PlannerClosed("planner is closed"), "closed", None),
            (RuntimeError("pipe burst"), "internal", "RuntimeError: pipe burst"),
        ],
        ids=["unknown_workspace", "config", "closed", "internal"],
    )
    def test_error_envelope_kind(self, exc, kind, error):
        assert error_envelope(exc) == {
            "ok": False,
            "kind": kind,
            "error": str(exc) if error is None else error,
        }

    @pytest.fixture
    def local_envelopes(self, small_catalog) -> dict:
        """``{"miss" | "hit": envelope}`` from a local planner, no socket."""
        expression = transpose(matrix("M") @ matrix("N"))
        engine = Engine(small_catalog)

        async def main() -> dict:
            planner = LocalPlanner(engine, batch_hook=lambda stats: None)
            try:
                return {
                    kind: await planner.submit(
                        "default", ServiceRequest(expression=expression, execute=False)
                    )
                    for kind in ("miss", "hit")
                }
            finally:
                await planner.close()

        return asyncio.run(main())

    @pytest.mark.parametrize("kind", ["miss", "hit"])
    def test_planned_envelope_keys(self, local_envelopes, kind):
        envelope = local_envelopes[kind]
        assert set(envelope) == {"ok", "payload", "pruned"}
        assert envelope["ok"] is True
        assert envelope["payload"]["cache_hit"] is (kind == "hit")
        assert "worker" not in envelope["payload"]
        assert len(envelope["pruned"]) == 2
        if kind == "hit":
            # Prunes were counted when the plan was made, not again.
            assert envelope["pruned"] == [0, 0]

    def test_unknown_workspace_is_raised_for_the_gateway_to_encode(self, small_catalog):
        async def main():
            planner = LocalPlanner(Engine(small_catalog), batch_hook=lambda stats: None)
            try:
                await planner.submit("nope", ServiceRequest(expression=matrix("M")))
            finally:
                await planner.close()

        with pytest.raises(UnknownWorkspaceError) as raised:
            asyncio.run(main())
        assert error_envelope(raised.value)["kind"] == "unknown_workspace"

    def test_local_stats_list_only_ready_runtimes(self):
        registry = WorkspaceRegistry()
        registry.register("cold")
        registry.register("warm")
        engine = Engine(workspaces=registry)
        planner = LocalPlanner(engine, batch_hook=lambda stats: None)
        try:
            assert planner.stats_dict() == {}
            engine.workspace("warm").rewrite(transpose(transpose(matrix("M"))))
            assert list(planner.stats_dict()["workspace_pools"]) == ["warm"]
        finally:
            asyncio.run(planner.close())
