"""Tests for the multi-tenant Workspace API.

Covers the workspace registry (named, versioned bundles), tenant isolation
(different view sets over the same pipeline fingerprints produce different
plans and never cross-hit each other's caches; one tenant's catalog bump
never evicts another's sessions), the single-catalog constructor's default
workspace, the workspace field of the wire schema, per-request
gateway routing with 404-on-unknown and per-tenant quotas, per-workspace
metrics labels, and the pluggable cost-estimator registry.
"""

from __future__ import annotations

import asyncio
import time
import warnings

import numpy as np
import pytest

from repro.api import (
    DEFAULT_WORKSPACE,
    ConfigError,
    Engine,
    EngineConfig,
    PlanRequest,
    PlannerConfig,
    UnknownWorkspaceError,
    Workspace,
    WorkspaceHandle,
    WorkspaceRegistry,
)
from repro.api.schema import ProtocolError
from repro.benchkit.harness import materialize_views
from repro.constraints.views import LAView
from repro.cost import (
    MNCEstimator,
    NaiveMetadataEstimator,
    estimator_name_for,
    estimator_names,
    register_estimator,
    resolve_estimator,
)
from repro.data.catalog import Catalog
from repro.lang import inv, matrix, sum_all, transpose
from repro.planner import PlanSession
from repro.server.client import GatewayClient, GatewayError
from repro.server.metrics import MetricsRegistry


def _sample_expr():
    return sum_all(matrix("M") @ matrix("N"))


def _view_expr():
    return inv(matrix("C")) @ matrix("v1")


def _mini_catalog(seed: int = 0) -> Catalog:
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    catalog.register_dense("M", rng.random((40, 6)))
    catalog.register_dense("N", rng.random((6, 40)))
    square = rng.random((7, 7)) + 7 * np.eye(7)
    catalog.register_dense("C", square)
    catalog.register_dense("v1", rng.random((7, 1)))
    return catalog


def _two_tenant_engine(catalog, **engine_config):
    """An engine with tenants ``plain`` (no views) and ``viewed`` (VC_inv)."""
    view = LAView("VC_inv", inv(matrix("C")))
    materialize_views([view], catalog)
    registry = WorkspaceRegistry()
    registry.register("plain", catalog=catalog)
    registry.register("viewed", catalog=catalog, views=[view])
    return Engine(workspaces=registry, config=EngineConfig(**engine_config))


# ---------------------------------------------------------------------------
# Workspace and registry semantics
# ---------------------------------------------------------------------------


class TestWorkspaceRegistry:
    def test_register_get_and_versioning(self, small_catalog):
        registry = WorkspaceRegistry()
        workspace = registry.register("tenant-a", catalog=small_catalog)
        assert workspace.version == 1
        assert registry.get("tenant-a").catalog is small_catalog
        updated = registry.update("tenant-a", config={"max_rounds": 6})
        assert updated.version == 2
        assert updated.config.max_rounds == 6
        assert registry.get("tenant-a").version == 2

    def test_duplicate_names_and_unknown_lookups(self, small_catalog):
        registry = WorkspaceRegistry()
        registry.register("tenant-a", catalog=small_catalog)
        with pytest.raises(ConfigError, match="already registered"):
            registry.register("tenant-a", catalog=small_catalog)
        with pytest.raises(UnknownWorkspaceError, match="tenant-a"):
            registry.get("tenant-b")
        with pytest.raises(ConfigError, match="unknown field"):
            registry.update("tenant-a", catalogue=small_catalog)
        assert registry.names() == ("tenant-a",)
        assert "tenant-a" in registry and len(registry) == 1

    def test_workspace_names_are_url_and_label_safe(self):
        with pytest.raises(ConfigError, match="URL- and label-safe"):
            Workspace(name="bad name")
        with pytest.raises(ConfigError):
            Workspace(name="")
        Workspace(name="ok-1.tenant_x")  # no raise

    def test_workspace_coerces_config_and_views(self, small_catalog):
        workspace = Workspace(
            name="t", catalog=small_catalog, views=[], config={"max_rounds": 2}
        )
        assert isinstance(workspace.config, PlannerConfig)
        assert workspace.config.max_rounds == 2
        assert workspace.views == ()
        describe = workspace.describe()
        assert describe["name"] == "t" and describe["version"] == 1
        assert describe["catalog_version"] == small_catalog.version

    def test_remove_reaps_workspace(self, small_catalog):
        registry = WorkspaceRegistry()
        registry.register("t", catalog=small_catalog)
        registry.remove("t")
        with pytest.raises(UnknownWorkspaceError):
            registry.get("t")


# ---------------------------------------------------------------------------
# Multi-workspace engine: handles and isolation
# ---------------------------------------------------------------------------


class TestEngineWorkspaces:
    def test_handles_expose_the_full_ladder(self, small_catalog):
        engine = _two_tenant_engine(small_catalog)
        handle = engine.workspace("plain")
        assert isinstance(handle, WorkspaceHandle)
        assert handle.name == "plain" and handle.version == 1
        result = handle.rewrite(_sample_expr())
        assert handle.rewrite(_sample_expr()).cache_hit
        routed = handle.execute(result)
        assert routed.backend == "numpy"
        answers = handle.submit_many([_sample_expr()] * 3)
        assert [r.rewrite.cache_hit for r in answers] == [True, True, True]
        assert handle.stats_dict()["plans_computed"] == 1

    def test_unknown_workspace_raises_with_known_names(self, small_catalog):
        engine = _two_tenant_engine(small_catalog)
        with pytest.raises(UnknownWorkspaceError, match="plain"):
            engine.workspace("nope")

    def test_different_view_sets_produce_different_plans(self, small_catalog):
        """Same pipeline fingerprint, two tenants, different views: the
        plans differ and neither tenant ever hits the other's cache."""
        engine = _two_tenant_engine(small_catalog)
        expr = _view_expr()
        plain = engine.workspace("plain").rewrite(expr)
        viewed = engine.workspace("viewed").rewrite(expr)
        assert "VC_inv" in viewed.used_views and plain.used_views == []
        assert viewed.best.to_string() != plain.best.to_string()
        # Not a cross-tenant cache hit despite the identical fingerprint —
        # and each tenant's pool planned exactly once for itself.
        assert not viewed.cache_hit
        assert engine.workspace("plain").pool.stats.plans_computed == 1
        assert engine.workspace("viewed").pool.stats.plans_computed == 1
        # Within-tenant dedup still works.
        assert engine.workspace("viewed").rewrite(expr).cache_hit

    def test_workspace_cache_keys_carry_the_tenant(self, small_catalog):
        engine = _two_tenant_engine(small_catalog)
        assert engine.workspace("plain").pool.workspace == "plain@v1"
        assert engine.workspace("viewed").pool.workspace == "viewed@v1"

    def test_catalog_bump_on_one_tenant_leaves_the_other_alone(self):
        """Sessions and plans are per-workspace: registering a matrix in
        tenant A's catalog must not rebuild tenant B's session or evict its
        cached plans."""
        registry = WorkspaceRegistry()
        catalog_a, catalog_b = _mini_catalog(0), _mini_catalog(1)
        registry.register("a", catalog=catalog_a)
        registry.register("b", catalog=catalog_b)
        engine = Engine(workspaces=registry)
        handle_a, handle_b = engine.workspace("a"), engine.workspace("b")
        handle_a.rewrite(_sample_expr())
        handle_b.rewrite(_sample_expr())
        built_b = handle_b.pool.stats.sessions_created

        catalog_a.register_dense("Z", np.ones((3, 3)))  # bumps A's version
        replanned = handle_a.rewrite(_sample_expr())
        assert not replanned.cache_hit  # A's plans keyed to the old version are gone
        assert handle_b.rewrite(_sample_expr()).cache_hit  # B untouched
        assert handle_b.pool.stats.sessions_created == built_b

    def test_registry_update_rebuilds_only_that_workspace(self, small_catalog):
        engine = _two_tenant_engine(small_catalog)
        expr = _view_expr()
        before = engine.workspace("plain").rewrite(expr)
        viewed_pool = engine.workspace("viewed").pool
        view = LAView("VC_inv", inv(matrix("C")))

        engine.workspaces.update("plain", views=(view,))
        handle = engine.workspace("plain")
        assert handle.version == 2
        after = handle.rewrite(expr)
        assert not after.cache_hit  # the v1 plan cannot be served for v2
        assert "VC_inv" in after.used_views and before.used_views == []
        # The untouched tenant keeps its very handle (no rebuild).
        assert engine.workspace("viewed").pool is viewed_pool

    def test_handle_is_cached_until_an_update_and_keeps_its_bundle(self, small_catalog):
        engine = _two_tenant_engine(small_catalog)
        expr = _view_expr()
        stale = engine.workspace("plain")
        assert engine.workspace("plain") is stale
        planned = stale.rewrite(expr)

        engine.workspaces.update("plain", views=(LAView("VC_inv", inv(matrix("C"))),))
        fresh = engine.workspace("plain")
        assert fresh is not stale and engine.workspace("plain") is fresh
        assert (stale.version, fresh.version) == (1, 2)
        # The handle resolved before the update still plans on its bundle.
        assert stale.views == () and stale.rewrite(expr).cache_hit
        assert stale.rewrite(expr).best == planned.best and planned.used_views == []
        assert "VC_inv" in fresh.rewrite(expr).used_views

    def test_engine_without_default_workspace_points_at_handles(self, small_catalog):
        registry = WorkspaceRegistry()
        registry.register("only-tenant", catalog=small_catalog)
        engine = Engine(workspaces=registry)
        with pytest.raises(ConfigError, match="only-tenant"):
            engine.rewrite(_sample_expr())
        assert engine.workspace("only-tenant").rewrite(_sample_expr()).changed

    def test_workspaces_and_catalog_arguments_are_exclusive(self, small_catalog):
        with pytest.raises(ConfigError, match="WorkspaceRegistry"):
            Engine(small_catalog, workspaces=WorkspaceRegistry())

    def test_remove_and_reregister_never_serves_the_old_bundle(self, small_catalog):
        """A name removed and re-registered gets a fresh handle (and a
        continued — never recycled — version), even with no access between
        the remove and the re-register."""
        engine = _two_tenant_engine(small_catalog)
        expr = _view_expr()
        view = LAView("VC_inv", inv(matrix("C")))
        old = engine.workspace("plain").rewrite(expr)
        assert old.used_views == []

        engine.workspaces.remove("plain")
        engine.workspaces.register("plain", catalog=small_catalog, views=[view])
        handle = engine.workspace("plain")
        assert handle.version == 2  # the sequence continues, never restarts
        fresh = handle.rewrite(expr)
        assert not fresh.cache_hit
        assert "VC_inv" in fresh.used_views  # new bundle, not the stale one

    def test_removed_workspace_runtime_is_reaped(self, small_catalog):
        engine = _two_tenant_engine(small_catalog)
        engine.workspace("plain").rewrite(_sample_expr())
        engine.workspace("viewed").rewrite(_sample_expr())
        engine.workspaces.remove("plain")
        with pytest.raises(UnknownWorkspaceError):
            engine.workspace("plain")
        summary = engine.stats_dict()
        assert "plain" not in summary.get("workspaces", {})

    def test_stats_dict_reaps_the_build_lock_of_a_removed_workspace(self, small_catalog):
        engine = _two_tenant_engine(small_catalog)
        engine.workspace("plain").rewrite(_sample_expr())
        engine.workspace("viewed").rewrite(_sample_expr())
        assert "plain" in engine._build_locks
        engine.workspaces.remove("plain")
        engine.stats_dict()
        assert "plain" not in engine._handles
        assert "plain" not in engine._build_locks
        assert "viewed" in engine._build_locks

    def test_stats_dict_nests_per_workspace(self, small_catalog):
        engine = _two_tenant_engine(small_catalog)
        engine.workspace("plain").rewrite(_sample_expr())
        engine.workspace("viewed").rewrite(_sample_expr())
        summary = engine.stats_dict()
        assert set(summary["workspaces"]) == {"plain", "viewed"}
        assert summary["workspaces"]["plain"]["plans_computed"] == 1


class TestSingleCatalogEngine:
    def test_single_catalog_engine_is_the_default_workspace(self, small_catalog):
        engine = Engine(small_catalog)
        assert engine.workspace_names() == (DEFAULT_WORKSPACE,)
        handle = engine.workspace()
        assert handle.name == DEFAULT_WORKSPACE
        via_engine = engine.rewrite(_sample_expr())
        assert handle.rewrite(_sample_expr()).cache_hit
        assert engine.pool is handle.pool
        session = PlanSession(small_catalog)
        assert via_engine.best.to_string() == session.rewrite(_sample_expr()).best.to_string()

    def test_registered_default_matches_single_catalog_plans(self, small_catalog):
        registry = WorkspaceRegistry()
        registry.register(DEFAULT_WORKSPACE, catalog=small_catalog)
        multi = Engine(workspaces=registry)
        single = Engine(small_catalog)
        expr = _sample_expr()
        assert (
            multi.rewrite(expr).best.to_string()
            == single.rewrite(expr).best.to_string()
        )

    def test_register_workspace_convenience(self, small_catalog):
        engine = Engine(small_catalog)
        handle = engine.register_workspace("tenant-x", catalog=small_catalog)
        assert handle.name == "tenant-x"
        assert set(engine.workspace_names()) == {DEFAULT_WORKSPACE, "tenant-x"}


# ---------------------------------------------------------------------------
# Wire schema: the workspace field
# ---------------------------------------------------------------------------


class TestWorkspaceWireField:
    def test_round_trip_and_default_omission(self):
        expr = transpose(matrix("M") @ matrix("N"))
        request = PlanRequest(expression=expr, workspace="tenant-a", execute=False)
        body = request.to_json()
        assert body["workspace"] == "tenant-a"
        assert PlanRequest.from_json(body) == request
        assert "workspace" not in PlanRequest(expression=expr).to_json()
        service_request = request.to_service_request()
        assert service_request.workspace == "tenant-a"
        assert PlanRequest.from_service_request(service_request) == request

    def test_workspace_field_is_validated(self):
        expr = transpose(matrix("M"))
        body = PlanRequest(expression=expr).to_json()
        with pytest.raises(ProtocolError, match="workspace"):
            PlanRequest.from_json(dict(body, workspace=7))
        with pytest.raises(ProtocolError, match="workspace"):
            PlanRequest.from_json(dict(body, workspace=""))


# ---------------------------------------------------------------------------
# Gateway: routing, listing, quotas, labels
# ---------------------------------------------------------------------------


class TestWorkspaceGateway:
    def _serve(self, engine, coroutine_factory, **overrides):
        async def main():
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                gateway = await engine.serve(**overrides)
            try:
                return await coroutine_factory(gateway)
            finally:
                await gateway.stop()

        return asyncio.run(main())

    def test_per_request_routing_and_404_on_unknown(self, small_catalog):
        engine = _two_tenant_engine(small_catalog)
        expr = _view_expr()
        plain_plan = engine.workspace("plain").rewrite(expr).best.to_string()
        viewed_plan = engine.workspace("viewed").rewrite(expr).best.to_string()
        assert plain_plan != viewed_plan

        async def drive(gateway):
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                plain = await client.plan(expr, workspace="plain")
                viewed = await client.plan(expr, workspace="viewed")
                with pytest.raises(GatewayError) as info:
                    await client.plan(expr, workspace="nope")
                # No default workspace here: a request without the field
                # is routed nowhere and told which tenants exist.
                with pytest.raises(GatewayError) as no_default:
                    await client.plan(expr)
                return plain, viewed, info.value, no_default.value

        plain, viewed, unknown, no_default = self._serve(engine, drive)
        assert plain["plan"] == plain_plan
        assert viewed["plan"] == viewed_plan
        assert unknown.status == 404 and "nope" in str(unknown)
        assert no_default.status == 404
        assert sorted(no_default.payload["workspaces"]) == ["plain", "viewed"]

    def test_workspaces_listing_and_describe(self, small_catalog):
        engine = _two_tenant_engine(small_catalog)

        async def drive(gateway):
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                listing = await client.workspaces()
                description = await client.workspaces("viewed")
                with pytest.raises(GatewayError) as info:
                    await client.workspaces("nope")
                return listing, description, info.value

        listing, description, unknown = self._serve(engine, drive)
        assert [w["name"] for w in listing["workspaces"]] == ["plain", "viewed"]
        assert listing["default"] is None
        assert description["views"] == ["VC_inv"] and description["version"] == 1
        assert unknown.status == 404

    def test_default_workspace_still_served_without_field(self, small_catalog):
        engine = Engine(small_catalog)
        expr = _sample_expr()
        expected = engine.rewrite(expr).best.to_string()

        async def drive(gateway):
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                bare = await client.plan(expr)
                named = await client.plan(expr, workspace=DEFAULT_WORKSPACE)
                listing = await client.workspaces()
                return bare, named, listing

        bare, named, listing = self._serve(engine, drive)
        assert bare["plan"] == named["plan"] == expected
        assert listing["default"] == DEFAULT_WORKSPACE

    def test_per_workspace_quota_rejects_with_429(self, small_catalog):
        engine = _two_tenant_engine(
            small_catalog, gateway={"workspace_max_in_flight": 1}
        )
        expr = _sample_expr()
        service = engine.workspace("plain").service
        original = service.submit_many

        def slow_submit_many(requests, workers=8):
            time.sleep(0.2)
            return original(requests, workers=workers)

        service.submit_many = slow_submit_many  # type: ignore[method-assign]

        async def drive(gateway):
            clients = [
                await GatewayClient("127.0.0.1", gateway.port).connect()
                for _ in range(5)
            ]
            try:
                answers = await asyncio.gather(
                    *[
                        client.submit(
                            expr, workspace="plain", raise_on_error=False
                        )
                        for client in clients
                    ]
                )
            finally:
                for client in clients:
                    await client.close()
            return answers

        # A slow plan stacks the wave: one request per workspace may be
        # in flight, the rest of the burst is quota-rejected.
        answers = self._serve(engine, drive, max_in_flight=64)
        rejected = [a for a in answers if a.get("status") == 429]
        served = [a for a in answers if "plan" in a]
        assert rejected and served
        assert all("plain" in a["error"] for a in rejected)

    def test_plan_only_workspace_answers_422_not_500(self, small_catalog):
        """A workspace registered without a catalog cannot take the service
        path; the gateway reports that as a client-resolvable 422, never a
        500."""
        registry = WorkspaceRegistry()
        registry.register("served", catalog=small_catalog)
        registry.register("plan-only")  # no catalog
        engine = Engine(workspaces=registry)
        expr = _sample_expr()

        async def drive(gateway):
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                answer = await client.plan(
                    expr, workspace="plan-only", raise_on_error=False
                )
                served = await client.plan(expr, workspace="served")
                return answer, served

        answer, served = self._serve(engine, drive)
        assert answer["status"] == 422 and "catalog" in answer["error"]
        assert "plan" in served

    def test_plan_only_default_does_not_block_serving_other_tenants(
        self, small_catalog
    ):
        """A registry whose *default* workspace is plan-only must still
        start a gateway and serve every other tenant."""
        registry = WorkspaceRegistry()
        registry.register(DEFAULT_WORKSPACE)  # plan-only default
        registry.register("served", catalog=small_catalog)
        engine = Engine(workspaces=registry)
        expr = _sample_expr()

        async def drive(gateway):
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                served = await client.plan(expr, workspace="served")
                default = await client.plan(expr, raise_on_error=False)
                return served, default

        served, default = self._serve(engine, drive)
        assert "plan" in served
        assert default["status"] == 422  # the default itself cannot serve

    def test_per_workspace_metric_labels_render(self, small_catalog):
        engine = _two_tenant_engine(small_catalog)
        expr = _sample_expr()

        async def drive(gateway):
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                await client.plan(expr, workspace="plain")
                await client.plan(expr, workspace="viewed")
                return await client.metrics_text()

        text = self._serve(engine, drive)
        assert 'gateway_workspace_requests_total{workspace="plain"} 1' in text
        assert 'gateway_workspace_requests_total{workspace="viewed"} 1' in text
        assert text.count("# TYPE gateway_workspace_requests_total counter") == 1

    def test_tenant_churn_reaps_gateway_state_and_metric_series(self, small_catalog):
        """Removing a tenant from the registry reaps its labeled series on
        the gateway's next encounter with the name — /metrics stops
        rendering deleted tenants."""
        engine = _two_tenant_engine(small_catalog)
        expr = _sample_expr()

        async def drive(gateway):
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                await client.plan(expr, workspace="plain")
                engine.workspaces.remove("plain")
                answer = await client.plan(
                    expr, workspace="plain", raise_on_error=False
                )
                text = await client.metrics_text()
                return answer, text

        answer, text = self._serve(engine, drive)
        assert answer["status"] == 404
        assert 'workspace="plain"' not in text

    def test_gateway_service_follows_default_workspace_updates(self, small_catalog):
        """The gateway never pins a superseded default service: /healthz
        and stats_dict reflect the current handle after registry updates."""
        engine = Engine(small_catalog)
        gateway = engine.build_gateway()
        before = gateway.service
        assert before is engine.workspace().service

        engine.workspaces.update(DEFAULT_WORKSPACE, config={"max_rounds": 2})
        assert gateway.service is None  # stale handle, nothing to report yet
        rebuilt = engine.workspace().service
        assert gateway.service is rebuilt and rebuilt is not before


# ---------------------------------------------------------------------------
# Pluggable estimator registry
# ---------------------------------------------------------------------------


class TestEstimatorRegistry:
    def test_stock_names_resolve(self):
        assert isinstance(resolve_estimator("naive"), NaiveMetadataEstimator)
        assert isinstance(resolve_estimator("mnc"), MNCEstimator)
        assert set(estimator_names()) >= {"naive", "mnc"}

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigError) as info:
            resolve_estimator("mcn")
        message = str(info.value)
        assert "mcn" in message and "naive" in message and "mnc" in message

    def test_planner_config_selects_estimator_by_name(self, small_catalog):
        session = PlanSession(small_catalog, config=PlannerConfig(estimator="mnc"))
        assert isinstance(session.estimator, MNCEstimator)
        assert session.config.estimator == "mnc"

    def test_bad_name_fails_at_engine_construction(self, small_catalog):
        with pytest.raises(ConfigError, match="naive"):
            Engine(small_catalog, config=EngineConfig(planner={"estimator": "nope"}))

    def test_estimator_name_is_cache_key_relevant(self, small_catalog):
        expr = matrix("M") @ matrix("N")
        keys = {
            PlanSession(small_catalog, config=PlannerConfig(estimator=name)).cache_key(expr)
            for name in ("naive", "mnc")
        }
        assert len(keys) == 2

    def test_explicit_estimator_object_wins(self, small_catalog):
        session = PlanSession(small_catalog, estimator=MNCEstimator())
        assert isinstance(session.estimator, MNCEstimator)
        assert session.config.estimator == "mnc"  # reverse-resolved

    def test_register_estimator_guards(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_estimator("naive", NaiveMetadataEstimator)
        with pytest.raises(ConfigError, match="callable"):
            register_estimator("thing", "not-a-factory")

    def test_stock_registry_is_the_papers_two_estimators(self):
        assert estimator_names() == ("mnc", "naive")

    def test_register_estimator_rejects_empty_name(self):
        with pytest.raises(ConfigError, match="non-empty string"):
            register_estimator("", NaiveMetadataEstimator)
        assert "" not in estimator_names()

    def test_estimator_name_for_matches_exact_type(self):
        class Subclassed(MNCEstimator):
            pass

        assert estimator_name_for(NaiveMetadataEstimator()) == "naive"
        assert estimator_name_for(MNCEstimator()) == "mnc"
        assert estimator_name_for(Subclassed()) is None

    def test_custom_estimator_round_trips(self, small_catalog):
        class TweakedEstimator(NaiveMetadataEstimator):
            pass

        register_estimator("tweaked-test", TweakedEstimator, replace=True)
        try:
            session = PlanSession(
                small_catalog, config=PlannerConfig(estimator="tweaked-test")
            )
            assert isinstance(session.estimator, TweakedEstimator)
            assert session.config.estimator == "tweaked-test"
        finally:
            from repro.cost import _ESTIMATORS

            _ESTIMATORS.pop("tweaked-test", None)


# ---------------------------------------------------------------------------
# Metrics label handling
# ---------------------------------------------------------------------------


class TestMetricsLabels:
    def test_labels_are_sorted_and_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help", labels={"b": "2", "a": "1"})
        second = registry.counter("c_total", "help", labels=[("a", "1"), ("b", "2")])
        assert first is second  # one series per canonical label set
        first.inc()
        assert 'c_total{a="1",b="2"} 1' in registry.render()

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "c_total", "h", labels={"workspace": 'evil"name\\with\nnewline'}
        ).inc()
        rendered = registry.render()
        assert 'workspace="evil\\"name\\\\with\\nnewline"' in rendered
        assert "\nnewline" not in rendered.split("# TYPE")[1]

    def test_one_help_type_block_per_family(self):
        registry = MetricsRegistry()
        registry.counter("family_total", "h", labels={"w": "a"}).inc()
        registry.counter("family_total", "h", labels={"w": "b"}).inc(2)
        rendered = registry.render()
        assert rendered.count("# TYPE family_total counter") == 1
        assert 'family_total{w="a"} 1' in rendered
        assert 'family_total{w="b"} 2' in rendered

    def test_kind_collision_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError, match="counter"):
            registry.gauge("x_total")

    def test_invalid_label_names_are_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="label name"):
            registry.counter("c", labels={"bad-name": "v"})

    def test_labeled_gauges_and_histograms_render(self):
        registry = MetricsRegistry()
        registry.gauge("g", "h", labels={"w": "a"}).inc(3)
        registry.histogram("lat_seconds", "h", labels={"w": "a"}).observe(0.003)
        rendered = registry.render()
        assert 'g{w="a"} 3' in rendered
        assert 'g_max{w="a"} 3' in rendered
        assert 'lat_seconds_bucket{w="a",le="0.005"} 1' in rendered
        assert 'lat_seconds_count{w="a"} 1' in rendered
        snapshot = registry.as_dict()
        assert snapshot["gauges"]['g{w="a"}']["max"] == 3

    def test_unlabeled_series_keep_their_flat_shape(self):
        registry = MetricsRegistry()
        registry.counter("plain_total", "h").inc(4)
        assert registry.as_dict()["counters"]["plain_total"] == 4
        assert "plain_total 4" in registry.render()

    def test_remove_series_drops_one_label_set(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "h", labels={"w": "a"}).inc()
        registry.counter("c_total", "h", labels={"w": "b"}).inc()
        assert registry.remove_series("c_total", labels={"w": "a"})
        rendered = registry.render()
        assert 'c_total{w="a"}' not in rendered and 'c_total{w="b"} 1' in rendered
        # Emptied families disappear entirely (no orphan HELP/TYPE block).
        assert registry.remove_series("c_total", labels={"w": "b"})
        assert "c_total" not in registry.render()
        assert not registry.remove_series("c_total", labels={"w": "b"})
