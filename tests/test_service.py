"""Tests of the service layer: session pool, execution router, front door.

Covers the behaviours the service layer promises:

* single-flight concurrent planning — same-fingerprint requests from many
  threads compute the plan exactly once, everyone else gets a cache hit;
* one shared session per view set — kept across catalog changes (whose
  keys still move, so plans miss), rebuilt once per view delta, never by
  a lookup;
* router fallback — a backend raising :class:`ExecutionError` is recorded
  and the next candidate runs the plan; one table pins the candidate order;
* the analytics front door — ``submit_many`` plans are byte-identical to a
  serial ``rewrite_all``, values match direct backend evaluation, per-phase
  timings add up, and hybrid queries report planning time in their total.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.api import Engine
from repro.backends.base import Backend, values_allclose
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.registry import BackendCapabilities, BackendRegistry
from repro.config import PlannerConfig
from repro.cost import MNCEstimator
from repro.exceptions import ExecutionError
from repro.lang import colsums, inv, matrix, sum_all, transpose
from repro.planner import PlanSession
from repro.service import ExecutionRouter, PlanSessionPool, ServiceRequest


def _service(catalog):
    """The catalog's service, reached the only way there is: through an engine."""
    return Engine(catalog).service


def _factory(catalog, **options):
    return lambda: PlanSession(catalog, **options)


def _mn():
    return transpose(matrix("M") @ matrix("N"))


def _register_factorized_join(catalog, rng):
    """Register ``J = [S, K R]`` with its ``J__S/J__K/J__R`` factors."""
    n_s, n_r, d_s, d_r = 20, 5, 3, 2
    entity = rng.random((n_s, d_s))
    attribute = rng.random((n_r, d_r))
    keys = rng.integers(0, n_r, size=n_s)
    indicator = np.zeros((n_s, n_r))
    indicator[np.arange(n_s), keys] = 1.0
    catalog.register_dense("J__S", entity)
    catalog.register_dense("J__K", indicator)
    catalog.register_dense("J__R", attribute)
    catalog.register_dense("J", np.hstack([entity, indicator @ attribute]))
    return entity, indicator, attribute


# ---------------------------------------------------------------------------
# PlanSessionPool
# ---------------------------------------------------------------------------


class TestPlanSessionPool:
    def test_exposes_the_prototype_config_and_estimator(self, small_catalog):
        config = PlannerConfig(estimator="mnc", max_rounds=2)
        pool = PlanSessionPool(_factory(small_catalog, config=config))
        assert pool.planner_config.estimator == "mnc"
        assert pool.planner_config.max_rounds == 2
        assert isinstance(pool.estimator, MNCEstimator)

    def test_eviction_on_catalog_version_change(self, small_catalog, rng):
        """A catalog change moves every key, so the next request misses, but
        the session is kept: it plans the miss without a rebuild."""
        pool = PlanSessionPool(_factory(small_catalog))
        pool.plan(_mn())
        old = pool._session
        small_catalog.register_dense("Fresh", rng.random((4, 4)))
        assert not pool.plan(_mn()).cache_hit
        assert pool._session is old
        assert pool.plan(_mn()).cache_hit
        pool.plan(sum_all(matrix("M") @ matrix("N")))
        assert pool.stats.sessions_created == 1
        assert pool.stats.plans_computed == 3

    def test_concurrent_misses_after_a_catalog_change_keep_the_session(
        self, small_catalog, rng
    ):
        pool = PlanSessionPool(_factory(small_catalog))
        small_catalog.register_dense("Bumped", rng.random((4, 4)))
        exprs = [transpose(matrix(name)) for name in ("M", "N", "A", "B", "C", "D")]
        barrier = threading.Barrier(len(exprs))
        results = [None] * len(exprs)

        def worker(i):
            barrier.wait()
            results[i] = pool.plan(exprs[i])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(exprs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert all(r is not None and not r.cache_hit for r in results)
        assert pool.stats.sessions_created == 1
        assert pool.stats.plans_computed == len(exprs)

    def test_only_a_view_delta_rebuilds_the_session(self, small_catalog, rng):
        """Catalog churn, however much, keeps the session; each view delta
        rebuilds it exactly once, and every change still moves the keys."""
        from repro.catalog import AddView, CatalogDelta, DropView, ReStat
        from repro.constraints.views import LAView

        views = []
        pool = PlanSessionPool(lambda: PlanSession(small_catalog, views=tuple(views)))
        view = LAView("V_MN", matrix("M") @ matrix("N"))

        def restat():
            delta = CatalogDelta((ReStat(name="M", nnz=200),))
            small_catalog.apply_delta(delta)
            pool.apply_delta(delta)

        def add_view():
            views.append(view)
            pool.apply_delta(CatalogDelta((AddView(view),)))

        def drop_view():
            views.remove(view)
            pool.apply_delta(CatalogDelta((DropView(view.name),)))

        steps = [
            (lambda: small_catalog.register_dense("Churn0", rng.random((2, 2))), 1),
            (restat, 1),
            (add_view, 2),
            (lambda: small_catalog.register_dense("Churn1", rng.random((2, 2))), 2),
            (drop_view, 3),
        ]
        for change, sessions in steps:
            pool.plan(_mn())
            change()
            assert pool.lookup(_mn()) is None and not pool.plan(_mn()).cache_hit
            assert pool.stats.sessions_created == sessions
        assert pool._session.views == ()

    def test_lookup_after_a_catalog_change_never_builds_a_session(
        self, small_catalog, rng
    ):
        built = []

        def counting_factory():
            built.append(None)
            return PlanSession(small_catalog)

        pool = PlanSessionPool(counting_factory)
        pool.plan(_mn())
        small_catalog.register_dense("Later", rng.random((4, 4)))
        assert pool.lookup(_mn()) is None
        assert pool.lookup(sum_all(matrix("M") @ matrix("N"))) is None
        assert len(built) == 1 and pool.stats.sessions_created == 1

    def test_single_flight_plans_exactly_once(self, small_catalog):
        pool = PlanSessionPool(_factory(small_catalog))
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads
        errors = []

        def worker(i):
            try:
                barrier.wait()
                results[i] = pool.plan(_mn())
            except Exception as exc:  # pragma: no cover - surfaced by assert
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert pool.stats.plans_computed == 1
        assert pool.stats.shared_hits == n_threads - 1
        assert len({r.best.to_string() for r in results}) == 1
        assert sum(r.cache_hit for r in results) == n_threads - 1
        # Waiters woken by the leader report their own lookup time, never
        # the leader's planning time, so aggregate RW_find stays honest.
        leader = next(r for r in results if not r.cache_hit)
        for waiter in (r for r in results if r.cache_hit):
            assert waiter.rewrite_seconds <= leader.rewrite_seconds

    def test_plan_matches_direct_session(self, small_catalog):
        pool = PlanSessionPool(_factory(small_catalog))
        direct = PlanSession(small_catalog).rewrite(sum_all(matrix("M") @ matrix("N")))
        pooled = pool.plan(sum_all(matrix("M") @ matrix("N")))
        assert pooled.best == direct.best
        assert pooled.best_cost == pytest.approx(direct.best_cost)

    def test_shared_results_are_private_copies(self, small_catalog):
        pool = PlanSessionPool(_factory(small_catalog))
        first = pool.plan(_mn())
        first.used_views.append("corrupted")
        first.stage_timings["corrupted"] = 1.0
        second = pool.plan(_mn())
        assert second.cache_hit
        assert "corrupted" not in second.used_views
        assert "corrupted" not in second.stage_timings
        # Shared hits report lookup time, not the leader's planning time, so
        # aggregating RW_find over served requests never double-counts.
        assert second.rewrite_seconds < first.rewrite_seconds

    def test_catalog_change_invalidates_shared_plans(self, small_catalog, rng):
        pool = PlanSessionPool(_factory(small_catalog))
        pool.plan(_mn())
        small_catalog.register_dense("Fresh2", rng.random((4, 4)))
        result = pool.plan(_mn())
        assert not result.cache_hit
        assert pool.stats.plans_computed == 2

    def test_invalidate_forces_a_replan(self, small_catalog):
        """After ``invalidate`` no copy of the plan is left anywhere in the
        workspace: the next rewrite plans again and says so."""
        engine = Engine(small_catalog)
        assert not engine.rewrite(_mn()).cache_hit
        engine.pool.invalidate()
        result = engine.rewrite(_mn())
        assert result.cache_hit is False
        assert engine.pool.stats.plans_computed == 2

    def test_one_copy_per_plan_per_workspace(self, small_catalog):
        """N distinct cold rewrites leave N plans in the pool's store and
        none in its session."""
        engine = Engine(small_catalog)
        exprs = [transpose(matrix(name)) for name in ("M", "N", "A", "B", "C", "D", "R", "X")]
        barrier = threading.Barrier(4)
        results = []

        def worker(chunk):
            barrier.wait()
            results.extend(engine.rewrite(expr) for expr in chunk)

        threads = [threading.Thread(target=worker, args=(exprs[i::4],)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        pool = engine.pool
        assert len(results) == len(exprs) and not any(r.cache_hit for r in results)
        assert pool.stats.sessions_created == 1
        assert len(pool._session.store) == 0
        assert len(pool.store) == len(exprs) == pool.stats.plans_computed

    # -- lookup: the read that never plans and never blocks ----------------
    def test_lookup_on_a_cold_key_is_none_and_plans_nothing(self, small_catalog):
        pool = PlanSessionPool(_factory(small_catalog))
        before = pool.stats_dict()
        assert pool.lookup(_mn()) is None
        # No plan, no session, no hit — and no cache miss either: the miss
        # is counted once, by the plan() the caller falls back to.
        assert pool.stats_dict() == before
        assert before["plans_computed"] == 0 and before["sessions_created"] == 1

    def test_lookup_on_a_warm_key_equals_plans_hit(self, small_catalog):
        pool = PlanSessionPool(_factory(small_catalog))
        pool.plan(_mn())
        looked_up = pool.lookup(_mn())
        planned = pool.plan(_mn())
        assert looked_up is not None and looked_up.cache_hit and planned.cache_hit
        assert pool.stats.shared_hits == 2 and pool.stats.plans_computed == 1
        # Field for field the hit plan() hands out; only the clock differs.
        assert looked_up.copy(rewrite_seconds=0.0) == planned.copy(rewrite_seconds=0.0)

        looked_up.used_views.append("corrupted")
        looked_up.stage_timings["corrupted"] = 1.0
        looked_up.saturation.applications_by_constraint["corrupted"] = 1
        again = pool.lookup(_mn())
        assert again.copy(rewrite_seconds=0.0) == planned.copy(rewrite_seconds=0.0)

    def test_lookup_returns_none_at_once_while_the_lock_is_held(self, small_catalog):
        pool = PlanSessionPool(_factory(small_catalog))
        pool.plan(_mn())
        held, release = threading.Event(), threading.Event()

        def hold():
            with pool.store._lock:
                held.set()
                release.wait(timeout=5)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(timeout=5)
            started = time.perf_counter()
            assert pool.lookup(_mn()) is None
            assert time.perf_counter() - started < 0.05
        finally:
            release.set()
            holder.join(timeout=5)
        assert not holder.is_alive()
        assert pool.stats.shared_hits == 0
        assert pool.lookup(_mn()).cache_hit  # the lock is free again

    def test_lookup_does_not_wait_on_an_inflight_leader(self, small_catalog):
        planning, finish = threading.Event(), threading.Event()

        def slow_factory():
            session = PlanSession(small_catalog)
            plan = session.plan

            def slow_plan(expr):
                planning.set()
                assert finish.wait(timeout=5)
                return plan(expr)

            session.plan = slow_plan
            return session

        pool = PlanSessionPool(slow_factory)
        leader = threading.Thread(target=pool.plan, args=(_mn(),))
        leader.start()
        try:
            assert planning.wait(timeout=5)
            started = time.perf_counter()
            assert pool.lookup(_mn()) is None
            assert time.perf_counter() - started < 0.05
            assert pool.stats.single_flight_waits == 0
        finally:
            finish.set()
            leader.join(timeout=10)
        assert not leader.is_alive()
        assert pool.stats.plans_computed == 1
        assert pool.lookup(_mn()).cache_hit

    def test_lookups_racing_plans_lose_no_hit(self, small_catalog):
        """More threads than cores mixing ``lookup`` and ``plan`` under a
        short switch interval: every hit handed out is counted exactly once
        and carries the right plan; a refused lookup is never a wrong one."""
        pool = PlanSessionPool(_factory(small_catalog))
        exprs = [_mn(), sum_all(matrix("M") @ matrix("N"))]
        expected = [PlanSession(small_catalog).rewrite(e).best.to_string() for e in exprs]
        hits = [0] * 8
        errors = []
        deadline = time.perf_counter() + 0.3

        def worker(slot):
            try:
                turn = slot
                while time.perf_counter() < deadline:
                    turn += 1
                    which = turn % 2
                    read = pool.lookup if turn % 3 else pool.plan
                    result = read(exprs[which])
                    if result is None:
                        continue
                    assert result.best.to_string() == expected[which]
                    hits[slot] += result.cache_hit
            except Exception as exc:  # pragma: no cover - surfaced by assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        assert pool.stats.plans_computed == 2
        assert pool.stats.shared_hits == sum(hits) > 0


# ---------------------------------------------------------------------------
# ExecutionRouter
# ---------------------------------------------------------------------------


class _FailingBackend(Backend):
    name = "failing"

    def evaluate(self, expr):
        raise ExecutionError("boom")


class _NotLA(NumpyBackend):
    capabilities = BackendCapabilities(supports_la=False)


class _ExtraLA(NumpyBackend):
    capabilities = BackendCapabilities(supports_la=True)


def _with_custom_backends(catalog):
    registry = BackendRegistry.with_defaults()
    registry.register("not_la", _NotLA)
    registry.register("extra_la", _ExtraLA)
    return registry.create_all(catalog)


class TestExecutionRouter:
    @pytest.mark.parametrize(
        "factorized, custom, preferred, backend, expected",
        [
            # A plain plan: preferred first, the LA fallbacks in
            # registration order, never the relational engine.
            (False, False, "numpy", None, ["numpy", "systemml_like", "morpheus"]),
            (False, False, "systemml_like", None, ["systemml_like", "numpy", "morpheus"]),
            # A plan over a join with materialized factors goes factorized.
            (True, False, "numpy", None, ["morpheus", "numpy", "systemml_like"]),
            # A named backend precedes the factorized pick.
            (True, False, "numpy", "numpy", ["numpy", "morpheus", "systemml_like"]),
            # A non-LA backend runs only when named, then LA falls back.
            (False, False, "numpy", "relational",
             ["relational", "numpy", "systemml_like", "morpheus"]),
            # Capabilities, not names: a custom LA backend joins the chain,
            # a custom non-LA one is never auto-selected.
            (False, True, "numpy", None,
             ["numpy", "systemml_like", "morpheus", "extra_la"]),
        ],
    )
    def test_candidate_order(
        self, small_catalog, rng, factorized, custom, preferred, backend, expected
    ):
        _register_factorized_join(small_catalog, rng)
        backends = _with_custom_backends(small_catalog) if custom else None
        router = ExecutionRouter(small_catalog, backends, preferred=preferred)
        expr = colsums(matrix("J")) if factorized else _mn()
        plan = PlanSession(small_catalog).rewrite(expr)
        assert router.candidates(plan, backend) == expected

    def test_fallback_on_execution_error(self, small_catalog):
        router = ExecutionRouter(
            small_catalog,
            {"failing": _FailingBackend(small_catalog), "numpy": NumpyBackend(small_catalog)},
        )
        plan = PlanSession(small_catalog).rewrite(sum_all(matrix("M") @ matrix("N")))
        routed = router.execute(plan, backend="failing")
        assert routed.backend == "numpy"
        assert routed.failures == [("failing", "boom")]
        expected = NumpyBackend(small_catalog).evaluate(plan.best)
        assert values_allclose(routed.evaluation.value, expected)

    def test_raises_when_every_candidate_fails(self, small_catalog):
        router = ExecutionRouter(
            small_catalog, {"failing": _FailingBackend(small_catalog)}, preferred="missing"
        )
        plan = PlanSession(small_catalog).rewrite(_mn())
        with pytest.raises(ExecutionError, match="no backend"):
            router.execute(plan)

    def test_relational_engine_refuses_la_plans(self, small_catalog):
        router = ExecutionRouter(small_catalog)
        plan = PlanSession(small_catalog).rewrite(_mn())
        routed = router.execute(plan, backend="relational")
        assert routed.backend == "numpy"
        assert [name for name, _ in routed.failures] == ["relational"]

    def test_named_backend_executes_first(self, small_catalog):
        router = ExecutionRouter(small_catalog)
        plan = PlanSession(small_catalog).rewrite(_mn())
        routed = router.execute(plan, backend="systemml_like")
        assert routed.backend == "systemml_like"

    def test_engine_routes_to_service_preferred_backend(self, small_catalog):
        engine = Engine(small_catalog, config={"service": {"preferred_backend": "systemml_like"}})
        assert engine.router.preferred == "systemml_like"
        routed = engine.router.execute(engine.rewrite(_mn()))
        assert routed.backend == "systemml_like" and routed.failures == []

    def test_factorized_plans_execute_on_morpheus(self, small_catalog, rng):
        entity, indicator, attribute = _register_factorized_join(small_catalog, rng)

        router = ExecutionRouter(small_catalog)
        plan = PlanSession(small_catalog).rewrite(colsums(matrix("J")))
        routed = router.execute(plan)
        assert routed.backend == "morpheus"
        expected = NumpyBackend(small_catalog).evaluate(plan.best)
        assert values_allclose(routed.evaluation.value, expected)

        # Re-materialized factors must not be served from a stale snapshot:
        # the auto-registered normalized matrix refreshes on catalog change.
        small_catalog.register_dense("J__R", attribute * 2.0, overwrite=True)
        small_catalog.register_dense("J", np.hstack([entity, indicator @ (attribute * 2.0)]), overwrite=True)
        replanned = PlanSession(small_catalog).rewrite(colsums(matrix("J")))
        rerouted = router.execute(replanned)
        assert rerouted.backend == "morpheus"
        assert values_allclose(
            rerouted.evaluation.value,
            NumpyBackend(small_catalog).evaluate(replanned.best),
        )


# ---------------------------------------------------------------------------
# AnalyticsService
# ---------------------------------------------------------------------------


class TestAnalyticsService:
    def test_submit_plans_and_executes(self, small_catalog):
        service = _service(small_catalog)
        result = service.submit(sum_all(matrix("M") @ matrix("N")))
        assert result.backend == "numpy"
        assert result.rewrite.changed
        expected = NumpyBackend(small_catalog).evaluate(result.rewrite.best)
        assert values_allclose(result.value, expected)
        assert result.total_seconds == pytest.approx(
            result.queue_seconds + result.plan_seconds + result.execute_seconds
        )
        assert result.plan_seconds > 0.0 and result.execute_seconds > 0.0

    def test_submit_plan_only(self, small_catalog):
        service = _service(small_catalog)
        result = service.submit(ServiceRequest(expression=_mn(), execute=False))
        assert result.value is None and result.backend is None
        assert result.execute_seconds == 0.0

    def test_submit_many_matches_serial_rewrite_all(self, small_catalog):
        expressions = [
            _mn(),
            sum_all(matrix("M") @ matrix("N")),
            inv(matrix("C")) @ inv(matrix("D")),
            _mn(),  # duplicate fingerprint
            transpose(matrix("A")) + transpose(matrix("B")),
            sum_all(matrix("M") @ matrix("N")),  # duplicate fingerprint
        ]
        service = _service(small_catalog)
        results = service.submit_many(
            [ServiceRequest(expression=e, execute=False) for e in expressions],
            workers=4,
        )
        serial = PlanSession(small_catalog).rewrite_all(expressions)
        assert [r.rewrite.best.to_string() for r in results] == [
            s.best.to_string() for s in serial
        ]
        assert [r.rewrite.best_cost for r in results] == pytest.approx(
            [s.best_cost for s in serial]
        )
        # Deduped before fan-out: 4 distinct fingerprints planned, not 6.
        assert service.pool.stats.plans_computed == 4
        assert [r.rewrite.cache_hit for r in results] == [
            False, False, False, True, False, True,
        ]
        # Duplicates zero RW_find (no double-count) but share the group's
        # queue time — they waited exactly as long as their leader.
        assert all(r.rewrite.rewrite_seconds == 0.0 for r in results if r.rewrite.cache_hit)
        assert results[3].queue_seconds == results[0].queue_seconds

    def test_submit_many_executes_in_input_order(self, small_catalog):
        expressions = [_mn(), sum_all(matrix("A")), _mn()]
        service = _service(small_catalog)
        results = service.submit_many(expressions, workers=3)
        backend = NumpyBackend(small_catalog)
        for expr, result in zip(expressions, results):
            assert result.request.expression == expr
            assert values_allclose(result.value, backend.evaluate(expr), rtol=1e-4, atol=1e-5)

    def test_submit_many_empty_batch(self, small_catalog):
        service = _service(small_catalog)
        assert service.submit_many([]) == []

    def test_submit_many_isolates_execution_failures(self, small_catalog):
        """One unexecutable request must not discard the rest of the batch."""
        from repro.data.matrix import MatrixMeta

        small_catalog.register_metadata(MatrixMeta("GhostM", 5, 5, 25))
        batch = [_mn(), sum_all(matrix("GhostM")), sum_all(matrix("A"))]
        service = _service(small_catalog)
        results = service.submit_many(batch, workers=2)
        assert len(results) == 3
        assert results[0].value is not None and results[2].value is not None
        assert results[1].value is None and results[1].backend is None
        assert results[1].failures and results[1].failures[-1][0] == "router"
        # Direct submit keeps raising for the same request.
        with pytest.raises(ExecutionError):
            service.submit(sum_all(matrix("GhostM")))

    def test_request_coercion(self, small_catalog):
        service = _service(small_catalog)
        named = service.as_request(("p1", _mn()))
        assert named.name == "p1" and named.execute
        with pytest.raises(TypeError):
            service.as_request(42)

    def test_submit_hybrid_total_includes_planning(self, small_tables):
        from repro.hybrid.query import HybridQuery, JoinFeatureMatrix

        builder = JoinFeatureMatrix(
            name="J", left_table="Left", right_table="Right",
            key="id", left_columns=("l1",), right_columns=("r1",),
        )
        query = HybridQuery(name="Q", builders=[builder], analysis=colsums(matrix("J")))
        service = _service(small_tables)
        result = service.submit_hybrid(query)
        hybrid = result.hybrid
        assert hybrid is not None
        assert hybrid.plan_seconds > 0.0
        assert hybrid.total_seconds == pytest.approx(
            hybrid.plan_seconds + hybrid.ra_seconds + hybrid.la_seconds
        )
        # One consistent planning time on both views of the same request.
        assert result.plan_seconds == hybrid.plan_seconds
        assert result.value is not None

    def test_repeated_hybrid_queries_keep_la_caches_warm(self, small_tables):
        """Re-running a hybrid query must not bump the catalog version,
        which would evict every pooled LA session and shared plan."""
        from repro.hybrid.query import HybridQuery, JoinFeatureMatrix

        builder = JoinFeatureMatrix(
            name="J3", left_table="Left", right_table="Right",
            key="id", left_columns=("l1",), right_columns=("r2",),
        )
        query = HybridQuery(name="Q3", builders=[builder], analysis=sum_all(matrix("J3")))
        service = _service(small_tables)
        first = service.submit_hybrid(query)
        settled = small_tables.version
        warm = service.submit(colsums(matrix("J3")))
        second = service.submit_hybrid(query)
        assert small_tables.version == settled
        assert second.hybrid.ra_seconds == 0.0  # builders skipped
        hit = service.submit(colsums(matrix("J3")))
        assert hit.rewrite.cache_hit  # LA cache survived the hybrid request
        assert values_allclose(first.value, second.value)

    def test_hybrid_executor_defaults_report_no_plan_time(self, small_tables):
        """Without an optimizer in the loop, total_seconds is ra + la as before."""
        from repro.hybrid.executor import HybridExecutor
        from repro.hybrid.query import HybridQuery, JoinFeatureMatrix

        builder = JoinFeatureMatrix(
            name="J2", left_table="Left", right_table="Right",
            key="id", left_columns=("l2",), right_columns=("r2",),
        )
        query = HybridQuery(name="Q2", builders=[builder], analysis=sum_all(matrix("J2")))
        result = HybridExecutor(small_tables).execute(query)
        assert result.plan_seconds == 0.0
        assert result.total_seconds == pytest.approx(result.ra_seconds + result.la_seconds)


# ---------------------------------------------------------------------------
# Batch hooks and failure isolation (serving-layer support)
# ---------------------------------------------------------------------------


class TestBatchHooksAndIsolation:
    def test_batch_hooks_observe_every_submit_many(self, small_catalog):
        service = _service(small_catalog)
        seen = []
        service.add_batch_hook(seen.append)
        requests = [
            ServiceRequest(expression=_mn(), execute=False),
            ServiceRequest(expression=_mn(), execute=False),
            ServiceRequest(expression=colsums(matrix("A")), execute=False),
        ]
        service.submit_many(requests, workers=2)
        assert len(seen) == 1
        stats = seen[0]
        assert stats.size == 3
        assert stats.distinct_fingerprints == 2
        assert stats.cache_hits == 1  # the duplicate _mn()
        assert stats.plan_failures == 0
        assert stats.seconds > 0
        assert stats.as_dict()["size"] == 3

    def test_hook_errors_never_fail_a_batch(self, small_catalog):
        service = _service(small_catalog)

        def broken_hook(stats):
            raise RuntimeError("observer bug")

        service.add_batch_hook(broken_hook)
        seen = []
        service.add_batch_hook(seen.append)
        results = service.submit_many([_mn()], workers=1)
        assert len(results) == 1 and results[0].ok
        assert service.batch_hook_failures == 1
        assert len(seen) == 1  # the hooks after a raising one still run
        service.submit_many([_mn(), _mn()], workers=2)
        assert service.batch_hook_failures == 2

    def test_remove_batch_hook(self, small_catalog):
        service = _service(small_catalog)
        seen = []
        hook = service.add_batch_hook(seen.append)
        service.remove_batch_hook(hook)
        service.submit_many([_mn()], workers=1)
        assert seen == []

    def test_plan_failure_is_isolated_per_request(self, small_catalog):
        """One unplannable expression in a batch costs exactly one failed
        result; every other request still plans (and executes) normally."""
        bad = matrix("M") @ matrix("A")  # 40x6 @ 30x8: ShapeError in planning
        good = _mn()
        service = _service(small_catalog)
        results = service.submit_many(
            [
                ServiceRequest(expression=good, execute=False),
                ServiceRequest(expression=bad, execute=False),
                ServiceRequest(expression=bad, execute=False),  # same group
            ],
            workers=2,
        )
        assert len(results) == 3
        assert results[0].ok and results[0].rewrite.best is not None
        for failed in results[1:]:
            assert not failed.ok
            assert any(who == "planner" for who, _ in failed.failures)
            # The identity rewrite stands in: original echoed back, unplanned.
            assert failed.rewrite.best == bad
            assert not failed.rewrite.changed
        # Direct submit still raises for the same expression.
        with pytest.raises(Exception):
            service.submit(ServiceRequest(expression=bad, execute=False))
