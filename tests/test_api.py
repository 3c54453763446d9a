"""Tests for the unified ``repro.api`` surface.

Covers the Engine facade, the frozen config dataclasses (validation at
construction, actionable messages), the capability-declaring backend
registry, the typed wire schema shared by server and client, byte-identity
of ``Engine.rewrite`` with a bare ``PlanSession`` on all 57 pipelines, a
session's options living only on its frozen config, the single version
source, and the public-API and config-table drift checks against
``docs/api.md``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import importlib.metadata
import re
from pathlib import Path

import pytest

import repro
import repro.api
from repro.api import (
    BackendRegistry,
    ConfigError,
    Engine,
    EngineConfig,
    GatewayConfig,
    PlanRequest,
    PlanResponse,
    PlannerConfig,
    ServiceConfig,
)
from repro.api.schema import PhaseTimings
from repro.backends.numpy_backend import NumpyBackend
from repro.lang import inv, matrix, sum_all, transpose
from repro.planner import PlanSession
from repro.server.protocol import parse_plan_request, request_to_json, result_to_json
from repro.service import ServiceRequest


def _sample_expr():
    return sum_all(matrix("M") @ matrix("N"))


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


class TestConfigValidation:
    def test_configs_are_frozen(self):
        config = PlannerConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.max_rounds = 9  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            EngineConfig().planner = PlannerConfig()  # type: ignore[misc]

    @pytest.mark.parametrize(
        "kwargs, field, hint",
        [
            ({"max_rounds": 0}, "max_rounds", ">= 1"),
            ({"max_atoms": -5}, "max_atoms", ">= 1"),
            ({"max_classes": 0}, "max_classes", ">= 1"),
            ({"cache_size": 0}, "cache_size", ">= 1"),
            ({"prune": "yes"}, "prune", "bool"),
            ({"max_rounds": 2.5}, "max_rounds", "int"),
        ],
    )
    def test_planner_config_rejects_bad_values(self, kwargs, field, hint):
        with pytest.raises(ConfigError) as info:
            PlannerConfig(**kwargs)
        message = str(info.value)
        assert field in message and hint in message

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ServiceConfig(plan_workers=0),
            lambda: ServiceConfig(plan_workers=-1),
            lambda: ServiceConfig(preferred_backend=""),
            lambda: GatewayConfig(port=70_000),
            lambda: GatewayConfig(max_in_flight=0),
            lambda: GatewayConfig(workspace_max_in_flight=-1),
            lambda: GatewayConfig(host=""),
        ],
    )
    def test_service_and_gateway_configs_reject_bad_values(self, factory):
        with pytest.raises(ConfigError):
            factory()

    def test_engine_mapping_config_rejects_unknown_top_level_keys(self, small_catalog):
        with pytest.raises(ConfigError, match="planner_cfg"):
            Engine(small_catalog, config={"planner_cfg": {"max_rounds": 6}})
        with pytest.raises(ConfigError, match="EngineConfig"):
            Engine(small_catalog, config=3.14)

    def test_engine_config_rejects_bad_composition(self):
        with pytest.raises(ConfigError, match="max_roundz"):
            EngineConfig(planner={"max_roundz": 3})
        with pytest.raises(ConfigError, match="PlannerConfig"):
            EngineConfig(planner=42)

    def test_sub_configs_coerce_from_mappings(self):
        config = EngineConfig(
            planner={"max_rounds": 6},
            service={"plan_workers": 2},
            gateway={"port": 8080},
        )
        assert config.planner.max_rounds == 6
        assert config.service.plan_workers == 2
        assert config.gateway.port == 8080

    def test_service_config_has_two_fields_and_rejects_others(self):
        """Sessions are shared per workspace view set, so no option
        sizes them: the service config is the worker count and the
        preferred backend, and any other key is an unknown option."""
        assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
            "plan_workers",
            "preferred_backend",
        ]
        with pytest.raises(ConfigError, match="unknown option"):
            EngineConfig(service={"sessions": 2})

    def test_normalized_matrices_coerce_and_round_trip(self):
        config = PlannerConfig(normalized_matrices={"M": ("S", "K", "R")})
        assert config.normalized_matrices == (("M", ("S", "K", "R")),)
        assert PlannerConfig(normalized_matrices=config.normalized_matrices) == config

    def test_cache_key_is_stable_and_option_sensitive(self, small_catalog):
        """The key the plan store uses moves with plan-affecting options
        only: not with the store's capacity, or the service and gateway
        knobs."""

        def key(**options):
            return PlanSession(small_catalog, **options).cache_key(_sample_expr())

        assert key() == key()
        assert key() != key(max_rounds=5)
        assert key() == key(cache_size=7)
        engine = Engine(
            small_catalog,
            config=EngineConfig(service={"plan_workers": 2}, gateway={"port": 8080}),
        )
        assert engine.pool._shared_key(_sample_expr())._replace(workspace="") == key()

    def test_with_options_returns_validated_copy(self):
        config = PlannerConfig()
        assert config.with_options(max_rounds=7).max_rounds == 7
        assert config.max_rounds == 4
        with pytest.raises(ConfigError):
            config.with_options(max_rounds=0)

    @pytest.mark.parametrize(
        "config",
        [PlannerConfig(), ServiceConfig(), GatewayConfig(), EngineConfig()],
        ids=lambda config: type(config).__name__,
    )
    def test_with_options_names_unknown_fields(self, config):
        cls = type(config)
        valid = str(sorted(f.name for f in dataclasses.fields(cls)))
        with pytest.raises(ConfigError) as info:
            config.with_options(bogus=1)
        message = str(info.value)
        assert f"{cls.__name__}.with_options" in message
        assert "['bogus']" in message and valid in message

    @pytest.mark.parametrize(
        "config",
        [
            PlannerConfig(max_rounds=6, normalized_matrices={"M": ("S", "K", "R")}),
            ServiceConfig(plan_workers=2),
            GatewayConfig(port=8080, workspace_max_in_flight=3),
            EngineConfig(planner={"max_rounds": 6}, gateway={"port": 8080}),
        ],
        ids=lambda config: type(config).__name__,
    )
    def test_with_options_accepts_every_field(self, config):
        """The unknown-field check refuses nothing that is a field: every
        field passed back as itself rebuilds an equal config."""
        every = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
        assert config.with_options(**every) == config

    @pytest.mark.parametrize(
        "knob", ["planner_workers", "worker_retry_budget", "worker_backoff_seconds"]
    )
    def test_worker_knobs_are_unknown_options(self, knob):
        fields = sorted(f.name for f in dataclasses.fields(GatewayConfig))
        with pytest.raises(ConfigError, match=knob) as info:
            GatewayConfig().with_options(**{knob: 1})
        assert str(fields) in str(info.value)

    def test_gateway_config_has_five_fields(self, small_catalog):
        """No planner-worker knobs: a caller still passing one gets a
        ConfigError listing the five fields, from every way in."""
        fields = ["host", "port", "max_in_flight", "workspace_max_in_flight", "backlog"]
        assert [f.name for f in dataclasses.fields(GatewayConfig)] == fields
        with pytest.raises(ConfigError, match="planner_workers") as info:
            Engine(small_catalog).build_gateway(planner_workers=2)
        assert str(sorted(fields)) in str(info.value)
        with pytest.raises(ConfigError, match="planner_workers"):
            asyncio.run(Engine(small_catalog).serve(planner_workers=2))
        with pytest.raises(ConfigError, match="planner_workers"):
            EngineConfig(gateway={"planner_workers": 2})


# ---------------------------------------------------------------------------
# Engine facade
# ---------------------------------------------------------------------------


class TestEngine:
    def test_rewrite_matches_a_bare_session_and_caches(self, small_catalog):
        expr = _sample_expr()
        engine = Engine(small_catalog)
        via_engine = engine.rewrite(expr)
        via_session = PlanSession(small_catalog).rewrite(expr)
        assert via_engine.best.to_string() == via_session.best.to_string()
        assert via_engine.original_cost == via_session.original_cost
        assert via_engine.best_cost == via_session.best_cost
        assert via_engine.used_views == via_session.used_views
        assert via_engine.fingerprint == expr.fingerprint()
        assert not via_engine.cache_hit and engine.rewrite(expr).cache_hit

    def test_engine_is_byte_identical_to_a_bare_session_on_all_pipelines(self):
        """The 57 benchkit pipelines plan identically through the pooled
        engine and through one bare session: same plan string, cost, chase
        work and cache key (the former ``bench_api_parity`` CI step)."""
        from repro.benchkit.datasets import ROLE_BINDINGS_DENSE, benchmark_catalog
        from repro.benchkit.pipelines import build_pipeline, default_roles, pipeline_names

        catalog = benchmark_catalog(scale=0.01)
        roles = default_roles(ROLE_BINDINGS_DENSE)
        engine = Engine(catalog)
        session = PlanSession(catalog)
        pipelines = [(name, build_pipeline(name, roles)) for name in pipeline_names()]
        assert len(pipelines) == 57
        for name, expr in pipelines:
            pooled_key = engine.pool._shared_key(expr)._replace(workspace="")
            assert pooled_key == session.cache_key(expr), name
        for name, expr in pipelines:
            ours, theirs = engine.rewrite(expr), session.rewrite(expr)
            assert ours.best.to_string() == theirs.best.to_string(), name
            assert ours.best_cost == theirs.best_cost, name
            assert (
                ours.saturation.matches_attempted
                == theirs.saturation.matches_attempted
            ), name

    def test_rewrite_all_plans_each_fingerprint_once(self, small_catalog):
        engine = Engine(small_catalog)
        results = engine.rewrite_all([_sample_expr(), _sample_expr(), _sample_expr()])
        assert engine.pool.stats.plans_computed == 1
        assert [r.cache_hit for r in results] == [False, True, True]
        assert len({r.best.to_string() for r in results}) == 1

    def test_execute_routes_and_honours_backend_override(self, small_catalog):
        engine = Engine(small_catalog)
        plan = engine.rewrite(_sample_expr())
        assert engine.execute(plan).backend == "numpy"
        assert engine.execute(plan, backend="systemml_like").backend == "systemml_like"
        # A bare expression executes as stated.
        assert engine.execute(_sample_expr()).backend == "numpy"
        with pytest.raises(ConfigError, match="unknown backend"):
            engine.execute(plan, backend="nope")

    def test_submit_many_defaults_to_config_plan_workers(self, small_catalog):
        engine = Engine(
            small_catalog,
            config=EngineConfig(service={"plan_workers": 2}),
        )
        results = engine.submit_many([_sample_expr()] * 4)
        assert len(results) == 4 and all(r.ok for r in results)
        assert all(r.backend == "numpy" for r in results)
        assert engine.pool.stats.plans_computed == 1

    def test_plan_only_engine_works_without_catalog(self):
        engine = Engine()
        result = engine.rewrite(transpose(transpose(matrix("Z"))))
        assert result.best.to_string() == "Z"
        with pytest.raises(ConfigError, match="without a catalog"):
            _ = engine.service
        with pytest.raises(ConfigError, match="without a catalog"):
            engine.execute(result)

    def test_with_views_derives_an_engine_that_uses_them(self, small_catalog):
        from repro.benchkit.harness import materialize_views
        from repro.constraints.views import LAView

        expr = inv(matrix("C")) @ matrix("v1")
        engine = Engine(small_catalog)
        plain = engine.rewrite(expr)
        view = LAView("VC_inv", inv(matrix("C")))
        materialize_views([view], small_catalog)
        viewed = engine.with_views([view])
        assert viewed.config is engine.config
        result = viewed.rewrite(expr)
        assert "VC_inv" in result.used_views
        assert plain.used_views == []

    def test_serve_binds_the_gateway_to_the_engine(self, small_catalog):
        engine = Engine(
            small_catalog,
            config=EngineConfig(gateway={"max_in_flight": 7}),
        )
        expr = transpose(matrix("M") @ matrix("N"))
        expected = engine.rewrite(expr).best.to_string()

        async def round_trip():
            from repro.server import GatewayClient

            gateway = await engine.serve()
            assert gateway.config.max_in_flight == 7
            try:
                async with GatewayClient("127.0.0.1", gateway.port) as client:
                    typed = await client.submit_typed(expr, name="t")
            finally:
                await gateway.stop()
            return typed

        typed = asyncio.run(round_trip())
        assert isinstance(typed, PlanResponse)
        assert typed.plan == expected and typed.ok
        assert typed.fingerprint == expr.fingerprint()
        # One gateway per engine; late overrides are rejected loudly.
        with pytest.raises(ConfigError, match="already built"):
            engine.build_gateway(port=1234)


# ---------------------------------------------------------------------------
# Backend registry and capability routing
# ---------------------------------------------------------------------------


class TestBackendRegistry:
    def test_default_registry_declares_stock_capabilities(self):
        registry = BackendRegistry.with_defaults()
        assert registry.names() == ("numpy", "systemml_like", "morpheus", "relational")
        assert registry.capabilities("morpheus").supports_factorized
        assert not registry.capabilities("numpy").supports_factorized
        assert not registry.capabilities("relational").supports_la

    def test_registration_guards(self):
        registry = BackendRegistry.with_defaults()
        with pytest.raises(ConfigError, match="already registered"):
            registry.register("numpy", NumpyBackend)
        registry.register("numpy", NumpyBackend, replace=True)
        with pytest.raises(ConfigError, match="callable"):
            registry.register("thing", "not-a-factory")
        with pytest.raises(ConfigError, match="unknown backend"):
            registry.capabilities("nope")

    def test_engine_builds_every_backend_of_its_registry(self, small_catalog):
        registry = BackendRegistry()
        registry.register("numpy", NumpyBackend)
        engine = Engine(small_catalog, registry=registry)
        assert list(engine.router.backends) == ["numpy"]
        with pytest.raises(ConfigError, match="unknown backend"):
            engine.execute(_sample_expr(), backend="morpheus")


# ---------------------------------------------------------------------------
# A session is its frozen config
# ---------------------------------------------------------------------------


class TestFrozenSessionOptions:
    def test_keywords_beside_config_are_refused(self, small_catalog):
        """They used to be dropped silently: this session planned with the
        config's ``max_rounds == 4``."""
        with pytest.raises(ConfigError, match="max_rounds"):
            PlanSession(small_catalog, config=PlannerConfig(), max_rounds=2)

    def test_options_live_only_on_the_config(self, small_catalog):
        session = PlanSession(small_catalog, max_rounds=2)
        assert not hasattr(session, "max_rounds")
        assert session.config == PlannerConfig(max_rounds=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            session.config.max_rounds = 3  # type: ignore[misc]

    @pytest.mark.parametrize(
        "option",
        [
            {"include_decompositions": True},
            {"include_morpheus_rules": True},
            {"max_rounds": 2},
            {"max_atoms": 100},
            {"max_classes": 100},
            {"prune": False},
            {"tighten_thresholds": False},
            {"normalized_matrices": {"M": ("S", "K", "R")}},
        ],
        ids=lambda option: next(iter(option)),
    )
    def test_each_plan_affecting_option_keys_apart(self, small_catalog, option):
        expr = _sample_expr()
        default = PlanSession(small_catalog).cache_key(expr)
        assert PlanSession(small_catalog, **option).cache_key(expr) != default

    def test_budgets_reach_the_engine(self, small_catalog):
        """What the key says is what saturation runs."""
        expr = _sample_expr()
        assert PlanSession(small_catalog).rewrite(expr).saturation.rounds > 1
        constrained = PlanSession(small_catalog, max_rounds=1)
        assert constrained.engine.max_rounds == 1
        assert constrained.rewrite(expr).saturation.rounds <= 1

    def test_with_views_keeps_options_and_rekeys_views(self, small_catalog):
        from repro.constraints.views import LAView

        expr = _sample_expr()
        session = PlanSession(small_catalog, prune=False)
        derived = session.with_views([LAView("Vmn", matrix("M") @ matrix("N"))])
        assert derived.config == session.config
        key, derived_key = session.cache_key(expr), derived.cache_key(expr)
        assert derived_key.options == key.options
        assert derived_key.viewset != key.viewset
        assert [c.name for c in derived.view_constraints] == ["view-io:Vmn", "view-oi:Vmn"]


# ---------------------------------------------------------------------------
# Typed wire schema (single source of truth)
# ---------------------------------------------------------------------------


class TestWireSchema:
    def test_plan_request_round_trips_and_omits_defaults(self):
        expr = transpose(matrix("M") @ matrix("N"))
        request = PlanRequest(expression=expr, name="p", backend="numpy", execute=False)
        body = request.to_json()
        assert PlanRequest.from_json(body) == request
        minimal = PlanRequest(expression=expr).to_json()
        assert set(minimal) == {"expression"}  # defaults stay off the wire

    def test_protocol_entry_points_delegate_to_the_schema(self):
        expr = transpose(matrix("M"))
        service_request = ServiceRequest(expression=expr, name="x", execute=False)
        body = request_to_json(service_request)
        assert body == PlanRequest.from_service_request(service_request).to_json()
        parsed = parse_plan_request(body)
        assert isinstance(parsed, ServiceRequest)
        assert parsed == service_request

    def test_plan_response_json_keys_are_exactly_the_fields(self, small_catalog):
        result = Engine(small_catalog).submit(_sample_expr())
        response = PlanResponse.from_result(result)
        payload = response.to_json()
        assert set(payload) == {f.name for f in dataclasses.fields(PlanResponse)}
        assert set(payload["timings"]) == {
            f.name for f in dataclasses.fields(PhaseTimings)
        }
        assert result_to_json(result) == payload
        assert PlanResponse.from_json(payload) == response
        assert response.ok and payload["backend"] == "numpy"

    def test_plan_response_from_json_validates(self):
        with pytest.raises(Exception, match="timings"):
            PlanResponse.from_json({"timings": "soon"})
        with pytest.raises(Exception, match="used_views"):
            PlanResponse.from_json({"used_views": "V1"})

    def test_ok_is_true_after_successful_backend_fallback(self, small_catalog):
        """A request that executed after fallback keeps the skipped
        candidates in ``failures`` but is ok — on the service result and on
        the typed wire response alike."""
        engine = Engine(small_catalog)
        result = engine.service.submit(
            ServiceRequest(expression=_sample_expr(), backend="relational")
        )
        assert result.backend == "numpy"
        assert result.failures and result.failures[0][0] == "relational"
        assert result.ok
        response = PlanResponse.from_json(PlanResponse.from_result(result).to_json())
        assert response.ok and response.failures

        # Planner failures and total execution failure stay not-ok.
        assert not dataclasses.replace(
            response, failures=(("planner", "boom"),)
        ).ok
        assert not dataclasses.replace(
            response, backend=None, failures=(("router", "all failed"),)
        ).ok


# ---------------------------------------------------------------------------
# Public-surface drift check against docs/api.md
# ---------------------------------------------------------------------------


def _documented_section(section_title: str) -> str:
    text = (Path(__file__).resolve().parent.parent / "docs" / "api.md").read_text()
    pattern = re.compile(
        rf"^###\s+{re.escape(section_title)}\s*$(.*?)(?=^#{{2,3}}\s)",
        re.MULTILINE | re.DOTALL,
    )
    match = pattern.search(text)
    assert match, f"docs/api.md lost its {section_title!r} section"
    return match.group(1)


def _documented_exports(section_title: str) -> set:
    section = _documented_section(section_title)
    return set(re.findall(r"^\| `([A-Za-z_][A-Za-z0-9_]*)` \|", section, re.MULTILINE))


def _documented_config_fields() -> dict:
    """{config class name: field names} from the configuration reference."""
    documented = {"PlannerConfig": _documented_exports("`PlannerConfig` — every plan-affecting knob")}
    section = _documented_section("`ServiceConfig` / `GatewayConfig` / `EngineConfig`")
    for owner, name in re.findall(r"^\| `(\w+)\.(\w+)` \|", section, re.MULTILINE):
        documented.setdefault(owner, set()).add(name)
    return documented


class TestPublicSurfaceDrift:
    def test_repro_all_matches_documented_surface(self):
        documented = _documented_exports("`repro` top-level exports")
        assert documented == set(repro.__all__), (
            "repro.__all__ and the docs/api.md export table diverged; "
            "update both together"
        )

    def test_repro_api_all_matches_documented_surface(self):
        documented = _documented_exports("`repro.api` exports")
        assert documented == set(repro.api.__all__), (
            "repro.api.__all__ and the docs/api.md export table diverged; "
            "update both together"
        )

    @pytest.mark.parametrize(
        "config_class",
        [PlannerConfig, ServiceConfig, GatewayConfig, EngineConfig],
        ids=lambda cls: cls.__name__,
    )
    def test_config_table_lists_exactly_the_fields(self, config_class):
        documented = _documented_config_fields().get(config_class.__name__, set())
        assert documented == {f.name for f in dataclasses.fields(config_class)}, (
            f"the {config_class.__name__} table in docs/api.md and the "
            f"dataclass fields diverged; update both together"
        )

    def test_every_documented_export_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name)
        for name in repro.api.__all__:
            assert hasattr(repro.api, name)

    def test_version_has_one_source(self):
        """``repro.__version__`` is the only literal; the package metadata
        is derived from it (and agrees wherever the package is installed)."""
        pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
        assert re.search(r'^dynamic = \["version"\]$', pyproject, re.MULTILINE)
        assert re.search(
            r'^version = \{ attr = "repro\.__version__" \}$', pyproject, re.MULTILINE
        )
        assert not re.search(r'^version = "', pyproject, re.MULTILINE)
        try:
            installed = importlib.metadata.version("repro-hadad")
        except importlib.metadata.PackageNotFoundError:
            return  # running from the source tree (PYTHONPATH=src)
        assert installed == repro.__version__
