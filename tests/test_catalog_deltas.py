"""Tests of the incremental catalog-delta subsystem.

Covers the typed delta algebra and its JSON wire schema, plan-footprint
capture during planning, ``Catalog.apply_delta``/``update_metadata``, the
pool's footprint-intersection revalidation (``PlanStore.revalidate`` via
``PlanSessionPool.apply_delta``), the registry's versioned deltas, the
``Engine``/``WorkspaceHandle`` surface, the
``POST /v1/workspaces/<name>/delta`` gateway endpoint with its metric
families, concurrency (deltas racing ``plan``/``submit_many`` must never
leave a stale plan published), a hypothesis property over random
delta/footprint overlap, and replay of the committed delta corpus.
"""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    ConfigError,
    Engine,
    UnknownWorkspaceError,
    WorkspaceRegistry,
)
from repro.catalog import (
    AddRelation,
    AddView,
    CatalogDelta,
    DropRelation,
    DropView,
    PlanFootprint,
    ReStat,
    UpdateConstraint,
)
from repro.constraints.views import LAView
from repro.data.catalog import Catalog
from repro.data.matrix import MatrixMeta, MatrixType
from repro.exceptions import CatalogError
from repro.fuzz.deltas import check_delta_case, load_delta_cases
from repro.lang import inv, matrix, sum_all, transpose
from repro.planner import PlanSession
from repro.planner.cache import PlanKey
from repro.server.client import GatewayClient
from repro.service.pool import PlanSessionPool

DELTA_CORPUS_DIR = Path(__file__).parent / "corpus" / "deltas"


def _mini_catalog(seed: int = 0) -> Catalog:
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    catalog.register_dense("M", rng.random((40, 6)))
    catalog.register_dense("N", rng.random((6, 40)))
    square = rng.random((7, 7)) + 7 * np.eye(7)
    catalog.register_dense("C", square)
    catalog.register_dense("v1", rng.random((7, 1)))
    catalog.register_scalar("s1", 2.5)
    return catalog


def _expr_mn():
    return sum_all(matrix("M") @ matrix("N"))


def _expr_cv():
    return inv(matrix("C")) @ matrix("v1")


def _signature(result):
    return (
        result.best.to_string(),
        result.best.fingerprint(),
        float(result.best_cost),
        tuple(sorted(result.used_views)),
    )


# ---------------------------------------------------------------------------
# Delta algebra and wire schema
# ---------------------------------------------------------------------------


class TestDeltaAlgebra:
    def test_touched_names_and_composition(self):
        a = CatalogDelta((ReStat(name="M", nnz=3),))
        b = CatalogDelta((UpdateConstraint(name="C", matrix_type=MatrixType.SYMMETRIC_PD),))
        both = a.compose(b)
        assert both.touched_names() == frozenset({"M", "C"})
        assert len(both) == 2 and both.selective and not both.touches_views
        assert both.needs_catalog

    def test_add_view_touches_definition_refs(self):
        view = LAView("VC_inv", inv(matrix("C")))
        delta = CatalogDelta((AddView(view),))
        assert delta.touched_names() == frozenset({"VC_inv", "C"})
        assert delta.touches_views and not delta.needs_catalog
        assert delta.selective

    def test_constant_view_definition_degrades_to_non_selective(self):
        from repro.lang import matrix_expr as mx

        constant = LAView("V_const", mx.Identity(4))
        delta = CatalogDelta((AddView(constant),))
        assert not delta.selective

    def test_wire_round_trip(self):
        delta = CatalogDelta((
            AddRelation(name="F", rows=10, cols=4, nnz=7),
            AddRelation(name="sF", kind="scalar", value=3.5),
            ReStat(name="M", nnz=5),
            UpdateConstraint(name="C", matrix_type=MatrixType.LOWER_TRIANGULAR),
            AddView(LAView("VC_inv", inv(matrix("C")))),
            DropView(name="VC_inv"),
            DropRelation(name="F"),
        ))
        decoded = CatalogDelta.from_json(delta.to_json())
        assert decoded.to_json() == delta.to_json()
        assert decoded.touched_names() == delta.touched_names()

    def test_malformed_wire_documents_rejected(self):
        with pytest.raises(ConfigError, match="ops"):
            CatalogDelta.from_json({"nope": []})
        with pytest.raises(ConfigError, match="at least one op"):
            CatalogDelta.from_json({"ops": []})
        with pytest.raises(ConfigError, match="unknown op"):
            CatalogDelta.from_json({"ops": [{"op": "explode", "name": "M"}]})
        with pytest.raises(ConfigError, match="malformed"):
            CatalogDelta.from_json({"ops": [{"op": "restat", "bogus_field": 1}]})

    def test_op_construction_is_validated(self):
        with pytest.raises(ConfigError, match="rows and cols"):
            AddRelation(name="F")
        with pytest.raises(ConfigError, match="needs a value"):
            AddRelation(name="sF", kind="scalar")
        with pytest.raises(ConfigError, match="changes nothing"):
            ReStat(name="M")
        with pytest.raises(ConfigError, match="unknown type tag"):
            UpdateConstraint(name="M", matrix_type="bogus")
        with pytest.raises(ConfigError, match="non-empty relation name"):
            ReStat(name="", nnz=1)

    def test_apply_validates_everything_against_pre_state(self):
        catalog = _mini_catalog()
        before = catalog.version
        # The second op is invalid (F not yet visible to validation): the
        # whole document must be rejected with nothing applied.
        delta = CatalogDelta((
            AddRelation(name="F", rows=4, cols=4),
            ReStat(name="F", nnz=2),
        ))
        with pytest.raises(CatalogError, match="restat"):
            delta.apply(catalog, ())
        assert "F" not in catalog and catalog.version == before


# ---------------------------------------------------------------------------
# Catalog mutation surface
# ---------------------------------------------------------------------------


class TestCatalogApply:
    def test_apply_delta_mutates_and_bumps_version(self):
        catalog = _mini_catalog()
        before = catalog.version
        catalog.apply_delta(CatalogDelta((
            AddRelation(name="F", rows=8, cols=3, nnz=5),
            ReStat(name="M", nnz=11),
            UpdateConstraint(name="C", matrix_type=MatrixType.SYMMETRIC_PD),
            DropRelation(name="s1", kind="scalar"),
        )))
        assert catalog.version > before
        assert catalog.meta("F").rows == 8 and catalog.meta("F").nnz == 5
        assert catalog.meta("M").nnz == 11
        assert catalog.meta("C").matrix_type == MatrixType.SYMMETRIC_PD
        assert not catalog.has_scalar("s1")

    def test_restat_dimensions_only_on_metadata_entries(self):
        catalog = _mini_catalog()
        catalog.register_metadata(MatrixMeta(name="F", rows=4, cols=4, nnz=2))
        catalog.apply_delta(CatalogDelta((ReStat(name="F", rows=9, cols=2),)))
        assert catalog.meta("F").rows == 9 and catalog.meta("F").cols == 2
        # M is value-backed: its dimensions are fixed by the stored values.
        with pytest.raises(CatalogError, match="value-backed"):
            catalog.apply_delta(CatalogDelta((ReStat(name="M", rows=41),)))

    def test_view_ops_rejected_at_catalog_level(self):
        catalog = _mini_catalog()
        delta = CatalogDelta((AddView(LAView("VC_inv", inv(matrix("C")))),))
        with pytest.raises(CatalogError, match="view"):
            catalog.apply_delta(delta)


# ---------------------------------------------------------------------------
# Footprint capture
# ---------------------------------------------------------------------------


class TestFootprintCapture:
    def test_planning_records_consulted_names(self):
        session = PlanSession(_mini_catalog())
        footprint = session.rewrite(_expr_mn()).footprint
        assert footprint is not None
        assert {"M", "N"} <= footprint.relations
        assert "C" not in footprint.relations
        assert footprint.intersects({"M"})
        assert not footprint.intersects({"C", "v1"})

    def test_footprint_sees_views_and_wire_round_trips(self):
        catalog = _mini_catalog()
        view = LAView("VC_inv", inv(matrix("C")))
        from repro.benchkit.harness import materialize_views

        materialize_views([view], catalog)
        session = PlanSession(catalog, views=[view])
        footprint = session.rewrite(_expr_cv()).footprint
        assert "VC_inv" in footprint.views
        decoded = PlanFootprint.from_json(footprint.to_json())
        assert decoded == footprint


# ---------------------------------------------------------------------------
# Pool revalidation
# ---------------------------------------------------------------------------


class TestPoolRevalidation:
    def _pool(self, catalog):
        return PlanSessionPool(lambda: PlanSession(catalog))

    def test_selective_delta_keeps_disjoint_plans_warm(self):
        catalog = _mini_catalog()
        pool = self._pool(catalog)
        kept_plan = pool.plan(_expr_mn())
        pool.plan(_expr_cv())

        delta = CatalogDelta((ReStat(name="C", nnz=9),))
        catalog.apply_delta(delta)
        report = pool.apply_delta(delta)
        assert report.plans_kept_warm == 1 and report.plans_revalidated == 1
        assert report.selective and report.touched == ("C",)

        survivor = pool.plan(_expr_mn())
        assert survivor.cache_hit
        assert _signature(survivor) == _signature(kept_plan)
        replanned = pool.plan(_expr_cv())
        assert not replanned.cache_hit
        cold = PlanSession(catalog).rewrite(_expr_cv())
        assert _signature(replanned) == _signature(cold)

    def test_non_selective_delta_evicts_everything(self):
        from repro.lang import matrix_expr as mx

        catalog = _mini_catalog()
        pool = self._pool(catalog)
        pool.plan(_expr_mn())
        delta = CatalogDelta((AddView(LAView("V_const", mx.Identity(4))),))
        report = pool.apply_delta(delta)
        assert not report.selective
        assert report.plans_kept_warm == 0 and report.plans_revalidated == 1
        assert not pool.plan(_expr_mn()).cache_hit

    def test_view_delta_bumps_generation_and_rebuilds_the_session(self):
        catalog = _mini_catalog()
        view = LAView("VC_inv", inv(matrix("C")))
        from repro.benchkit.harness import materialize_views

        materialize_views([view], catalog)
        views = []
        pool = PlanSessionPool(lambda: PlanSession(catalog, views=tuple(views)))
        pool.plan(_expr_mn())
        session_before = pool._session

        views.append(view)
        delta = CatalogDelta((AddView(view),))
        report = pool.apply_delta(delta)
        assert pool._session is not session_before
        assert pool.stats.sessions_created == 2
        assert pool._session.views == (view,)
        # The MN plan's footprint misses {VC_inv, C}: it stays warm even
        # though the session was rebuilt against the new view set.
        assert report.plans_kept_warm == 1
        assert pool.plan(_expr_mn()).cache_hit
        viewed = pool.plan(_expr_cv())
        cold = PlanSession(catalog, views=[view]).rewrite(_expr_cv())
        assert _signature(viewed) == _signature(cold)
        assert pool.stats.sessions_created == 2

    def test_stats_expose_revalidation_counters(self):
        catalog = _mini_catalog()
        pool = self._pool(catalog)
        pool.plan(_expr_mn())
        delta = CatalogDelta((ReStat(name="M", nnz=7),))
        catalog.apply_delta(delta)
        pool.apply_delta(delta)
        stats = pool.stats_dict()
        assert stats["plans_revalidated"] == 1
        assert stats["plans_kept_warm"] == 0
        assert stats["revalidation_index"] == 0


#: One change of each non-view kind; ``None`` registers a matrix directly.
KEPT_SESSION_CHANGES = {
    "restat": CatalogDelta((ReStat(name="C", nnz=30),)),
    "add_relation": CatalogDelta((AddRelation(name="Fresh", rows=7, cols=7, nnz=12),)),
    "drop_relation": CatalogDelta((DropRelation(name="v1"),)),
    "update_constraint": CatalogDelta(
        (UpdateConstraint(name="C", matrix_type=MatrixType.SYMMETRIC_PD),)
    ),
    "register_dense": None,
}


class TestKeptSession:
    """A non-view change keeps the pool's session; it must stay equal to
    a session built fresh at the new catalog state."""

    VIEW = LAView("VC_inv", inv(matrix("C")))

    @pytest.mark.parametrize("kind", sorted(KEPT_SESSION_CHANGES))
    def test_kept_session_equals_a_fresh_one(self, kind):
        catalog = _mini_catalog()
        factory = lambda: PlanSession(catalog, views=[self.VIEW])  # noqa: E731
        pool = PlanSessionPool(factory)
        kept = pool._session
        pool.plan(_expr_mn())
        delta = KEPT_SESSION_CHANGES[kind]
        if delta is None:
            catalog.register_dense("Direct", np.ones((3, 3)))
        else:
            catalog.apply_delta(delta)
            pool.apply_delta(delta)
        pool.plan(_expr_mn())
        assert pool._session is kept and pool.stats.sessions_created == 1
        fresh = factory()
        assert kept.program.constraints == fresh.program.constraints
        assert kept.viewset_key == fresh.viewset_key
        assert kept.options_key == fresh.options_key

    def test_dropping_a_views_storage_metadata_plans_like_a_cold_engine(self):
        def registry():
            registry = WorkspaceRegistry()
            registry.register("t", catalog=_mini_catalog(), views=[self.VIEW])
            return registry

        live = Engine(workspaces=registry())
        handle = live.workspace("t")
        assert handle.catalog.has_matrix("VC_inv")  # registered by the session
        handle.rewrite(_expr_cv())
        delta = CatalogDelta((DropRelation(name="VC_inv"),))
        handle.apply_delta(delta)
        # The delta re-registered the view's metadata, as a cold engine's
        # session registers it when built.
        assert handle.catalog.has_matrix("VC_inv")

        cold = Engine(workspaces=registry()).workspace("t")
        expected = _signature(cold.rewrite(_expr_cv()))
        assert "VC_inv" in expected[3]
        first = handle.rewrite(_expr_cv())
        assert not first.cache_hit and _signature(first) == expected
        assert _signature(handle.rewrite(_expr_cv())) == expected
        assert handle.rewrite(_expr_cv()).cache_hit
        assert handle.pool.stats.sessions_created == 1


def _dense_400() -> Catalog:
    rng = np.random.default_rng(44)
    catalog = Catalog()
    catalog.register_dense("M", rng.random((400, 400)))
    catalog.register_dense("N", rng.random((400, 400)))
    catalog.register_dense("C", rng.random((400, 400)))
    return catalog


class TestViewMetadataAfterDeltas:
    """A kept session re-derives the storage metadata it registered for its
    views when a delta changes the relations those views read."""

    VIEW = LAView("V_MN", matrix("M") @ matrix("N"))
    PROBE = (transpose(matrix("M") @ matrix("N")) @ (matrix("M") @ matrix("N"))) @ matrix("N")

    def _engine(self, catalog: Catalog) -> Engine:
        return Engine(catalog, views=[self.VIEW])

    def test_live_engine_equals_a_cold_one(self):
        live = self._engine(_dense_400())
        live.rewrite(self.PROBE)
        report = live.apply_delta(None, CatalogDelta((ReStat(name="M", nnz=50),)))
        assert "V_MN" in report.touched  # plans costed with the old numbers go

        cold_catalog = _dense_400()
        cold_catalog.update_metadata("M", nnz=50)
        cold = self._engine(cold_catalog)
        assert live.catalog.meta("V_MN") == cold.catalog.meta("V_MN")
        assert live.catalog.meta("V_MN").nnz == 20000
        planned, expected = live.rewrite(self.PROBE), cold.rewrite(self.PROBE)
        assert planned.best.to_string() == expected.best.to_string()
        assert planned.best_cost == expected.best_cost
        assert "V_MN" in planned.used_views

    def test_restat_that_moves_no_view_keeps_the_cache_warm(self):
        live = self._engine(_dense_400())
        live.rewrite(self.PROBE)
        before = live.catalog.meta("V_MN")
        report = live.apply_delta(None, CatalogDelta((ReStat(name="C", nnz=7),)))
        assert report.touched == ("C",)
        assert report.plans_kept_warm == 1 and report.plans_revalidated == 0
        assert live.catalog.meta("V_MN") is before
        assert live.rewrite(self.PROBE).cache_hit

    def test_metadata_a_caller_registered_is_never_rewritten(self):
        catalog = _dense_400()
        ours = catalog.register_metadata(MatrixMeta(name="V_MN", rows=400, cols=400, nnz=9))
        live = self._engine(catalog)
        report = live.apply_delta(None, CatalogDelta((ReStat(name="M", nnz=50),)))
        assert report.touched == ("M",)
        assert live.catalog.meta("V_MN") is ours

    def test_dropping_a_matrix_the_view_reads_drops_its_derived_entry(self):
        live = self._engine(_dense_400())
        report = live.apply_delta(None, CatalogDelta((DropRelation(name="N"),)))
        assert report.touched == ("N", "V_MN")
        assert not live.catalog.has_matrix("V_MN")  # as in a cold engine

    def test_a_view_rebuild_keeps_the_metadata_to_re_derive(self):
        live = self._engine(_dense_400())
        extra = LAView("V_C", transpose(matrix("C")))
        live.apply_delta(None, CatalogDelta((AddView(extra),)))
        live.apply_delta(None, CatalogDelta((ReStat(name="M", nnz=50),)))
        assert live.catalog.meta("V_MN").nnz == 20000


NAMES = ("M", "N", "C", "v1")

_HYP_CATALOG = _mini_catalog()
_HYP_TEMPLATE = {}


def _hypothesis_pool():
    pool = PlanSessionPool(lambda: PlanSession(_HYP_CATALOG))
    if "result" not in _HYP_TEMPLATE:
        _HYP_TEMPLATE["result"] = pool.plan(_expr_mn())
    pool.invalidate()
    return pool


class TestRevalidationProperty:
    @given(
        footprints=st.lists(
            st.frozensets(st.sampled_from(NAMES), max_size=3),
            min_size=1,
            max_size=5,
        ),
        touched=st.frozensets(st.sampled_from(NAMES), min_size=1, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_kept_iff_footprint_misses_delta(self, footprints, touched):
        """Exactly the plans whose footprint misses the touched set stay
        warm, re-keyed under the new catalog version."""
        pool = _hypothesis_pool()
        template = _HYP_TEMPLATE["result"]
        viewset = pool._session.viewset_key
        version = _HYP_CATALOG.version
        options = pool._session.options_key
        for index, relations in enumerate(footprints):
            key = PlanKey("", f"synthetic-{index}", viewset, version, options)
            entry = template.copy(footprint=PlanFootprint(relations=relations))
            pool.store.get_or_plan(lambda: key, lambda: entry)

        delta = CatalogDelta(
            tuple(ReStat(name=name, nnz=1) for name in sorted(touched))
        )
        _HYP_CATALOG.apply_delta(delta)
        report = pool.apply_delta(delta)

        new_viewset = pool._session.viewset_key
        new_version = _HYP_CATALOG.version
        expected_kept = 0
        for index, relations in enumerate(footprints):
            new_key = PlanKey("", f"synthetic-{index}", new_viewset, new_version, options)
            kept = new_key in pool.store
            assert kept == (not (relations & touched))
            expected_kept += int(kept)
        assert report.plans_kept_warm == expected_kept
        assert report.plans_revalidated == len(footprints) - expected_kept


# ---------------------------------------------------------------------------
# Registry deltas
# ---------------------------------------------------------------------------


class TestRegistryDeltas:
    def test_apply_delta_bumps_version(self):
        registry = WorkspaceRegistry()
        registry.register("t", catalog=_mini_catalog())
        v1 = registry.get("t").version
        snapshot = registry.apply_delta("t", CatalogDelta((ReStat(name="M", nnz=4),)))
        assert snapshot.version == v1 + 1
        assert registry.get("t") is snapshot

    def test_successive_deltas_apply_in_order(self):
        registry = WorkspaceRegistry()
        registry.register("t", catalog=_mini_catalog())
        v1 = registry.get("t").version
        registry.apply_delta("t", CatalogDelta((ReStat(name="M", nnz=4),)))
        registry.apply_delta("t", CatalogDelta((ReStat(name="M", nnz=6),)))
        after = registry.get("t")
        assert after.version == v1 + 2
        assert after.catalog.meta("M").nnz == 6  # the later delta wins

    def test_wholesale_update_after_a_delta_bumps_the_version(self):
        registry = WorkspaceRegistry()
        registry.register("t", catalog=_mini_catalog())
        v1 = registry.get("t").version
        registry.apply_delta("t", CatalogDelta((ReStat(name="M", nnz=4),)))
        fresh = _mini_catalog(seed=1)
        updated = registry.update("t", catalog=fresh)
        assert updated.version == v1 + 2
        assert registry.get("t").catalog is fresh
        assert fresh.meta("M").nnz != 4  # the delta stayed with the old catalog

    def test_validation_errors(self):
        registry = WorkspaceRegistry()
        registry.register("t", catalog=_mini_catalog())
        registry.register("plan-only")
        with pytest.raises(ConfigError, match="at least one op"):
            registry.apply_delta("t", CatalogDelta(()))
        with pytest.raises(ConfigError, match="has no catalog"):
            registry.apply_delta(
                "plan-only", CatalogDelta((ReStat(name="M", nnz=1),))
            )
        with pytest.raises(UnknownWorkspaceError):
            registry.apply_delta("ghost", CatalogDelta((ReStat(name="M", nnz=1),)))


# ---------------------------------------------------------------------------
# Engine surface
# ---------------------------------------------------------------------------


class TestEngineDeltas:
    def _engine(self):
        registry = WorkspaceRegistry()
        registry.register("a", catalog=_mini_catalog(1))
        registry.register("b", catalog=_mini_catalog(2))
        return Engine(workspaces=registry)

    def test_handle_apply_delta_revalidates_selectively(self):
        engine = self._engine()
        handle = engine.workspace("a")
        handle.rewrite(_expr_mn())
        handle.rewrite(_expr_cv())

        report = handle.apply_delta(CatalogDelta((ReStat(name="C", nnz=9),)))
        assert report.plans_kept_warm == 1 and report.plans_revalidated == 1
        assert handle.rewrite(_expr_mn()).cache_hit
        replanned = handle.rewrite(_expr_cv())
        assert not replanned.cache_hit
        cold = PlanSession(engine.workspaces.get("a").catalog).rewrite(_expr_cv())
        assert _signature(replanned) == _signature(cold)
        # The handle adopted the new snapshot in place and was not rebuilt.
        assert engine.workspace("a") is handle

    def test_delta_to_one_tenant_leaves_the_other_warm(self):
        engine = self._engine()
        engine.workspace("a").rewrite(_expr_cv())
        engine.workspace("b").rewrite(_expr_cv())
        engine.apply_delta("a", CatalogDelta((ReStat(name="C", nnz=3),)))
        assert engine.workspace("b").rewrite(_expr_cv()).cache_hit
        assert not engine.workspace("a").rewrite(_expr_cv()).cache_hit

    def test_view_delta_matches_fresh_engine(self):
        engine = self._engine()
        handle = engine.workspace("a")
        handle.rewrite(_expr_mn())
        handle.rewrite(_expr_cv())
        view = LAView("VC_inv", inv(matrix("C")))
        report = handle.apply_delta(CatalogDelta((AddView(view),)))
        # {VC_inv, C} hits the CV plan's footprint, misses the MN plan's.
        assert report.plans_kept_warm == 1 and report.plans_revalidated == 1
        assert handle.rewrite(_expr_mn()).cache_hit

        reference = Engine(
            workspaces=self._reference_registry_with_view(view)
        ).workspace("a")
        assert _signature(handle.rewrite(_expr_cv())) == _signature(
            reference.rewrite(_expr_cv())
        )

    def test_engine_apply_delta_bumps_the_registry_version(self):
        engine = self._engine()
        v1 = engine.workspaces.get("a").version
        other = engine.workspaces.get("b").version
        report = engine.apply_delta("a", CatalogDelta((ReStat(name="M", nnz=4),)))
        # No built handle: nothing to keep or revalidate.
        assert report.plans_kept_warm == 0 and report.plans_revalidated == 0
        assert engine.workspaces.get("a").version == v1 + 1
        assert engine.workspaces.get("a").catalog.meta("M").nnz == 4
        assert engine.workspaces.get("b").version == other

    def _reference_registry_with_view(self, view):
        registry = WorkspaceRegistry()
        registry.register("a", catalog=_mini_catalog(1), views=[view])
        return registry


# ---------------------------------------------------------------------------
# Gateway endpoint
# ---------------------------------------------------------------------------


class TestGatewayDeltaEndpoint:
    def _serve(self, engine, coroutine_factory):
        async def main():
            gateway = await engine.serve()
            try:
                return await coroutine_factory(gateway)
            finally:
                await gateway.stop()

        return asyncio.run(main())

    def test_delta_endpoint_revalidates_and_counts(self):
        registry = WorkspaceRegistry()
        registry.register("plain", catalog=_mini_catalog())
        engine = Engine(workspaces=registry)
        expr = _expr_mn()
        delta_doc = CatalogDelta((ReStat(name="C", nnz=5),)).to_json()

        async def drive(gateway):
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                await client.plan(expr, workspace="plain")
                status, report = await client.request(
                    "POST", "/v1/workspaces/plain/delta", delta_doc
                )
                again = await client.plan(expr, workspace="plain")
                text = await client.metrics_text()
                return status, report, again, text

        status, report, again, text = self._serve(engine, drive)
        assert status == 200
        assert report["workspace"].startswith("plain@")
        assert report["touched"] == ["C"] and report["selective"]
        assert report["plans_kept_warm"] == 1 and report["plans_revalidated"] == 0
        assert again["cache_hit"]
        assert "repro_catalog_deltas_total 1" in text
        assert "repro_plans_kept_warm_total 1" in text
        assert "repro_plans_revalidated_total 0" in text

    def test_delta_endpoint_error_mapping(self):
        registry = WorkspaceRegistry()
        registry.register("plain", catalog=_mini_catalog())
        engine = Engine(workspaces=registry)
        good = CatalogDelta((ReStat(name="C", nnz=5),)).to_json()
        invalid = CatalogDelta((DropRelation(name="ghost"),)).to_json()

        async def drive(gateway):
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                bad_body = await client.request(
                    "POST", "/v1/workspaces/plain/delta", {"nope": 1}
                )
                unknown = await client.request(
                    "POST", "/v1/workspaces/ghost/delta", good
                )
                unprocessable = await client.request(
                    "POST", "/v1/workspaces/plain/delta", invalid
                )
                wrong_method = await client.request(
                    "GET", "/v1/workspaces/plain/delta"
                )
                return bad_body, unknown, unprocessable, wrong_method

        bad_body, unknown, unprocessable, wrong_method = self._serve(engine, drive)
        assert bad_body[0] == 400
        assert unknown[0] == 404
        assert unprocessable[0] == 422 and "ghost" in unprocessable[1]["error"]
        assert wrong_method[0] == 405


#: Delta documents whose values are malformed: each is refused at decode
#: time, before anything is applied.
MALFORMED_DOCUMENTS = {
    "restat-nnz-string": [{"op": "restat", "name": "M", "nnz": "x"}],
    "restat-nnz-list": [{"op": "restat", "name": "M", "nnz": [1]}],
    "restat-nnz-nan": [{"op": "restat", "name": "M", "nnz": float("nan")}],
    "restat-nnz-overflow": [{"op": "restat", "name": "M", "nnz": float("inf")}],
    "restat-nnz-negative": [{"op": "restat", "name": "M", "nnz": -1}],
    "restat-rows-fraction": [{"op": "restat", "name": "M", "rows": 2.5}],
    "restat-nnz-bool": [{"op": "restat", "name": "M", "nnz": True}],
    "add-scalar-string": [{"op": "add_relation", "name": "z", "kind": "scalar", "value": "abc"}],
    "add-scalar-nan": [
        {"op": "add_relation", "name": "z", "kind": "scalar", "value": float("nan")}
    ],
    "add-matrix-zero-rows": [{"op": "add_relation", "name": "Z", "rows": 0, "cols": 3}],
    "add-view-unnamed": [
        {"op": "add_view", "name": "", "definition": {"op": "name", "payload": [
            {"t": "str", "v": "M"}], "children": []}}
    ],
    "half-applied": [
        {"op": "restat", "name": "N", "nnz": 10},
        {"op": "restat", "name": "M", "nnz": "x"},
    ],
}


class TestMalformedDeltaValues:
    def _state(self, engine: Engine) -> tuple:
        catalog = engine.catalog
        return (
            catalog.version,
            engine.workspaces.get("default").version,
            catalog.meta("M"),
            catalog.meta("N"),
            catalog.has_scalar("z"),
        )

    @pytest.mark.parametrize(
        "ops", list(MALFORMED_DOCUMENTS.values()), ids=list(MALFORMED_DOCUMENTS)
    )
    def test_refused_as_config_error(self, ops):
        with pytest.raises(ConfigError):
            CatalogDelta.from_json({"ops": ops})

    @pytest.mark.parametrize(
        "ops", list(MALFORMED_DOCUMENTS.values()), ids=list(MALFORMED_DOCUMENTS)
    )
    def test_gateway_answers_400_and_mutates_nothing(self, ops):
        engine = Engine(_mini_catalog())
        before = self._state(engine)

        async def main():
            gateway = await engine.serve()
            try:
                async with GatewayClient("127.0.0.1", gateway.port) as client:
                    return await client.request(
                        "POST", "/v1/workspaces/default/delta", {"ops": ops}
                    )
            finally:
                await gateway.stop()

        status, body = asyncio.run(main())
        assert status == 400, body
        assert self._state(engine) == before

    def test_out_of_range_statistics_refuse_the_whole_delta(self):
        engine = Engine(_mini_catalog())
        before = self._state(engine)
        delta = CatalogDelta((ReStat(name="N", nnz=10), ReStat(name="M", nnz=10**9)))
        with pytest.raises(CatalogError, match="outside"):
            engine.apply_delta(None, delta)
        assert self._state(engine) == before

    def test_integral_floats_are_counts(self):
        assert ReStat(name="M", nnz=5.0).nnz == 5
        assert type(AddRelation(name="F", rows=4.0, cols=2).rows) is int


class TestNonConformableView:
    """A view whose definition does not shape-check against the catalog is
    refused before anything applies: the views and the workspace version
    stay as they were, and the next valid view delta still applies."""

    BAD = LAView("V_bad", matrix("M") @ matrix("M"))  # 40x6 by 40x6
    OK = LAView("V_ok", matrix("M") @ matrix("N"))

    def _state(self, engine: Engine) -> tuple:
        return engine.views, engine.workspaces.get("default").version

    def test_engine_refuses_it_and_takes_the_next_view(self):
        engine = Engine(_mini_catalog())
        engine.rewrite(_expr_mn())
        before = self._state(engine)
        with pytest.raises(CatalogError, match="V_bad"):
            engine.apply_delta(None, CatalogDelta((AddView(self.BAD),)))
        assert self._state(engine) == before
        engine.apply_delta(None, CatalogDelta((AddView(self.OK),)))
        assert engine.views == [self.OK]

    def test_gateway_answers_422_and_mutates_nothing(self):
        engine = Engine(_mini_catalog())
        before = self._state(engine)

        async def main():
            gateway = await engine.serve()
            try:
                async with GatewayClient("127.0.0.1", gateway.port) as client:
                    bad = await client.request(
                        "POST", "/v1/workspaces/default/delta",
                        CatalogDelta((AddView(self.BAD),)).to_json(),
                    )
                    unchanged = self._state(engine)
                    ok = await client.request(
                        "POST", "/v1/workspaces/default/delta",
                        CatalogDelta((AddView(self.OK),)).to_json(),
                    )
                    return bad, unchanged, ok
            finally:
                await gateway.stop()

        bad, unchanged, ok = asyncio.run(main())
        assert bad[0] == 422 and "V_bad" in bad[1]["error"]
        assert unchanged == before
        assert ok[0] == 200 and engine.views == [self.OK]

    def test_a_view_over_an_unregistered_name_is_still_accepted(self):
        engine = Engine(_mini_catalog())
        unknown = LAView("V_u", matrix("U") @ matrix("M"))
        engine.apply_delta(None, CatalogDelta((AddView(unknown),)))
        assert engine.views == [unknown]
        cold = Engine(_mini_catalog()).rewrite(_expr_mn()).best
        assert str(engine.rewrite(_expr_mn()).best) == str(cold)

    @staticmethod
    def _metadata_engine(views=()) -> Engine:
        catalog = Catalog()
        for name in ("M", "N"):
            catalog.register_metadata(MatrixMeta(name=name, rows=4, cols=3, nnz=12))
        return Engine(catalog, views=list(views))

    def test_shapes_a_delta_breaks_later_apply_whole(self):
        """Shapes the pre-state check cannot see (a relation added in the
        same delta, a restat of a view's operand) apply whole: the view
        derives no metadata, and the workspace keeps taking deltas."""
        engine = self._metadata_engine()
        late = LAView("V_x", matrix("X") @ matrix("M"))  # 5x5 by 4x3
        engine.apply_delta(None, CatalogDelta((
            AddRelation(name="X", rows=5, cols=5), AddView(late),
        )))
        engine.apply_delta(None, CatalogDelta((AddView(LAView("V_ok", matrix("M") + matrix("N"))),)))
        assert [view.name for view in engine.views] == ["V_x", "V_ok"]
        catalog = engine.workspaces.get("default").catalog
        assert not catalog.has_matrix("V_x") and catalog.has_matrix("V_ok")

        engine = self._metadata_engine([LAView("V_mn", matrix("M") + matrix("N"))])
        expr = sum_all(matrix("M") + matrix("N"))
        assert str(engine.rewrite(expr).best) == "sum(V_mn)"
        version = engine.workspaces.get("default").version
        engine.apply_delta(None, CatalogDelta((ReStat(name="N", rows=5, cols=5),)))
        assert engine.workspaces.get("default").version == version + 1
        assert not engine.workspaces.get("default").catalog.has_matrix("V_mn")
        assert str(engine.rewrite(sum_all(matrix("M"))).best) == "sum(M)"


# ---------------------------------------------------------------------------
# Concurrency: deltas racing planning
# ---------------------------------------------------------------------------


class TestConcurrentDeltas:
    def test_hammer_never_serves_a_stale_plan(self):
        """Four planner threads race a steady delta stream.  Plans whose
        footprint the stream never touches must be byte-stable throughout;
        after the last delta the touched expression's served plan must
        equal a cold re-plan against the final catalog."""
        catalog = _mini_catalog()
        pool = PlanSessionPool(lambda: PlanSession(catalog))
        baseline = _signature(
            PlanSession(catalog).rewrite(_expr_mn())
        )
        stop = threading.Event()
        failures = []

        def planner():
            while not stop.is_set():
                try:
                    if _signature(pool.plan(_expr_mn())) != baseline:
                        failures.append("untouched plan drifted")
                        return
                    pool.plan(_expr_cv())
                except Exception as exc:  # noqa: BLE001 — surface in assert
                    failures.append(repr(exc))
                    return

        threads = [threading.Thread(target=planner) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for round_index in range(15):
                delta = CatalogDelta((ReStat(name="C", nnz=round_index % 49 + 1),))
                catalog.apply_delta(delta)
                pool.apply_delta(delta)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not failures, failures[:3]

        final = pool.plan(_expr_cv())
        cold = PlanSession(catalog).rewrite(_expr_cv())
        assert _signature(final) == _signature(cold)

    def test_engine_delta_racing_submit_many(self):
        """``apply_delta`` racing ``submit_many`` through the service path:
        every answer is internally consistent and the cache converges to
        the mutated catalog's plans."""
        from repro.service import ServiceRequest

        registry = WorkspaceRegistry()
        registry.register("t", catalog=_mini_catalog())
        engine = Engine(workspaces=registry)
        handle = engine.workspace("t")
        requests = [
            ServiceRequest(expression=expr, execute=False)
            for expr in (_expr_mn(), _expr_cv())
        ] * 4

        errors = []

        def mutate():
            try:
                for round_index in range(10):
                    engine.apply_delta(
                        "t",
                        CatalogDelta((ReStat(name="C", nnz=round_index + 1),)),
                    )
            except Exception as exc:  # noqa: BLE001 — surface in assert
                errors.append(repr(exc))

        mutator = threading.Thread(target=mutate)
        mutator.start()
        try:
            for _ in range(6):
                results = handle.service.submit_many(requests, workers=4)
                assert len(results) == len(requests)
        finally:
            mutator.join(timeout=60)
        assert not errors, errors

        cold = PlanSession(engine.workspaces.get("t").catalog).rewrite(_expr_cv())
        assert _signature(handle.rewrite(_expr_cv())) == _signature(cold)


# ---------------------------------------------------------------------------
# Delta corpus replay
# ---------------------------------------------------------------------------


DELTA_CASES = load_delta_cases(DELTA_CORPUS_DIR)


def test_delta_corpus_is_present():
    assert DELTA_CASES, f"no delta corpus cases under {DELTA_CORPUS_DIR}"


@pytest.mark.parametrize(
    "case", DELTA_CASES, ids=[case.case_id for case in DELTA_CASES]
)
def test_delta_corpus_case_replays(case):
    mismatches = check_delta_case(case)
    assert not mismatches, mismatches[:3]


@pytest.mark.fuzz
def test_delta_fuzz_sweep_is_clean():
    from repro.fuzz.deltas import run_delta_fuzz
    from repro.fuzz.generator import CatalogSpec

    failing, messages = run_delta_fuzz(
        CatalogSpec(seed=20260808), cases=4, steps=3, probes=4
    )
    assert not failing, messages[:5]
