"""Tests of the staged planner: sessions, plan store, fingerprints, indexing.

Covers the behaviours the refactor promises:

* the plan store — LRU bounds and counters, the footprint index and its
  wildcard bucket, re-keying, single flight, the non-blocking lookup, and
  no publication under a key that moved mid-plan;
* cache hit / miss and invalidation on catalog and view-set changes;
* fingerprint sanity — structurally distinct expressions get distinct keys,
  structurally equal ones share them, across processes' ``hash`` randomness;
* constraint-index equivalence — the indexed saturation reaches the same
  fixpoint (atoms and classes) as the unindexed chase on the seed constraint
  set, and the session produces the same plans either way;
* threshold tightening — ``CostThresholdPruner.tighten`` is exercised by the
  saturation loop and its extra prunes are counted;
* the session's own option surface, including the ``with_views`` option-copy
  fix.
"""

import threading
import time

import pytest

from repro.catalog import PlanFootprint
from repro.chase.program import ConstraintProgram
from repro.chase.saturation import SaturationEngine
from repro.constraints import default_constraints
from repro.constraints.views import LAView
from repro.lang import colsums, inv, matrix, rowsums, scalar, sum_all, transpose
from repro.lang import matrix_expr as mx
from repro.planner import PlanSession, PlanStore
from repro.planner.cache import PlanKey
from repro.vrem.encoder import encode_expression


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


class TestFingerprints:
    def test_equal_expressions_share_fingerprints(self):
        a = transpose(matrix("M") @ matrix("N"))
        b = transpose(matrix("M") @ matrix("N"))
        assert a is not b and a == b
        assert a.fingerprint() == b.fingerprint()

    def test_distinct_structures_get_distinct_fingerprints(self):
        exprs = [
            matrix("M"),
            matrix("N"),
            scalar("M"),                      # same payload, different op
            transpose(matrix("M")),
            matrix("M") @ matrix("N"),
            matrix("N") @ matrix("M"),        # children swapped
            matrix("M") + matrix("N"),        # same children, different op
            sum_all(matrix("M")),
            rowsums(matrix("M")),
            colsums(matrix("M")),
            mx.ScalarConst(1.0),
            mx.ScalarConst(2.0),
            mx.Identity(4),
            mx.Identity(5),
            mx.Zero(4, 5),
            mx.Zero(5, 4),
            mx.MatPow(matrix("C"), 2),
            mx.MatPow(matrix("C"), 3),
        ]
        fingerprints = [expr.fingerprint() for expr in exprs]
        assert len(set(fingerprints)) == len(exprs)

    def test_fingerprint_is_cached_and_stable(self):
        expr = inv(transpose(matrix("M")) @ matrix("M"))
        first = expr.fingerprint()
        assert expr.fingerprint() is first  # cached, not recomputed
        # Stable across instances (unlike hash(), which is salted per process).
        assert inv(transpose(matrix("M")) @ matrix("M")).fingerprint() == first


# ---------------------------------------------------------------------------
# Plan store
# ---------------------------------------------------------------------------


def _key(fingerprint: str, version: int = 0) -> PlanKey:
    return PlanKey("", fingerprint, (), version, ())


@pytest.fixture()
def planned(small_catalog):
    """A finished plan to store under synthetic keys."""
    return PlanSession(small_catalog).plan(transpose(matrix("M")))


def _publish(store: PlanStore, key: PlanKey, result) -> None:
    store.get_or_plan(lambda: key, lambda: result)


class TestPlanStore:
    def test_lru_capacity_order_and_counters(self, planned):
        store = PlanStore(capacity=2)
        _publish(store, _key("M"), planned)
        _publish(store, _key("N"), planned)
        assert store.lookup(_key("M")).cache_hit  # M is now the newest
        _publish(store, _key("A"), planned)  # evicts N, the oldest
        assert _key("N") not in store and _key("M") in store and _key("A") in store
        assert store.evictions == 1 and store.misses == 3 and store.hits == 1
        assert store.planned == 3 and len(store) == 2
        assert store.lookup(_key("Z")) is None  # a lookup never counts a miss
        assert store.misses == 3 and store.stats()["hit_rate"] == 0.25
        assert store.stats()["size"] == 2 and store.stats()["capacity"] == 2
        with pytest.raises(ValueError):
            PlanStore(capacity=0)

    def test_hits_are_private_copies(self, planned):
        store = PlanStore(capacity=4)
        _publish(store, _key("M"), planned)
        hit = store.lookup(_key("M"))
        hit.used_views.append("corrupted")
        hit.stage_timings["corrupted"] = 1.0
        again = store.get_or_plan(lambda: _key("M"), lambda: pytest.fail("replanned"))
        assert again.cache_hit and "corrupted" not in again.stage_timings
        assert again.copy(rewrite_seconds=0.0, cache_hit=False) == planned.copy(
            rewrite_seconds=0.0
        )

    def test_revalidate_by_footprint_and_wildcard(self, planned):
        store = PlanStore(capacity=8)
        _publish(store, _key("a"), planned.copy(footprint=PlanFootprint(relations={"M", "N"})))
        _publish(store, _key("b"), planned.copy(footprint=PlanFootprint(relations={"C"})))
        _publish(store, _key("w"), planned.copy(footprint=None))  # assume affected
        assert store.revalidate({"M"}, catalog_version=1) == (1, 2)
        assert set(store._entries) == {_key("b", 1)}
        # The footprint index follows the re-keyed entry.
        assert store.revalidate({"C"}, catalog_version=2) == (0, 1)
        assert len(store) == 0

    def test_revalidate_non_selective_evicts_everything(self, planned):
        store = PlanStore(capacity=8)
        _publish(store, _key("a"), planned.copy(footprint=PlanFootprint(relations={"M"})))
        assert store.revalidate(None, catalog_version=1) == (0, 1)
        assert len(store) == 0

    def test_rekeyed_survivors_are_byte_identical_and_keep_lru_order(self, planned):
        store = PlanStore(capacity=8)
        entries = {}
        for name in ("x", "y", "z"):
            entries[name] = planned.copy(footprint=PlanFootprint(relations={name}))
            _publish(store, _key(name), entries[name])
        stored = {key.fingerprint: store._entries[key] for key in store._entries}
        assert store.revalidate({"y"}, workspace="w", catalog_version=5) == (2, 1)
        moved = [PlanKey("w", name, (), 5, ()) for name in ("x", "z")]
        assert list(store._entries) == moved
        for key in moved:
            assert store._entries[key] is stored[key.fingerprint]
        hit = store.lookup(moved[0])
        assert hit == entries["x"].copy(cache_hit=True, rewrite_seconds=hit.rewrite_seconds)

    def test_clear_drops_entries_and_index(self, planned):
        store = PlanStore(capacity=8)
        _publish(store, _key("a"), planned.copy(footprint=PlanFootprint(relations={"M"})))
        store.clear()
        assert len(store) == 0 and store._by_name == {} and store._wildcard == set()

    def test_threads_on_one_key_plan_once(self, planned):
        store = PlanStore(capacity=8)
        calls = []
        barrier = threading.Barrier(8)

        def plan():
            calls.append(1)
            time.sleep(0.05)  # hold the key in flight while the others arrive
            return planned

        def worker(out):
            barrier.wait()
            out.append(store.get_or_plan(lambda: _key("k"), plan))

        results = []
        threads = [threading.Thread(target=worker, args=(results,)) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(calls) == 1 and store.planned == 1
        assert sum(not result.cache_hit for result in results) == 1
        assert store.hits == 7 and store.waits >= 1
        assert store._inflight == {}

    def test_failing_leader_wakes_waiters_and_the_next_one_retries(self, planned):
        store = PlanStore(capacity=8)
        leading, fail = threading.Event(), threading.Event()
        attempts = []

        def plan():
            attempts.append(1)
            if len(attempts) == 1:
                leading.set()
                assert fail.wait(timeout=5)
                raise RuntimeError("planner failed")
            return planned

        errors, results = [], []

        def leader():
            try:
                store.get_or_plan(lambda: _key("k"), plan)
            except RuntimeError as error:
                errors.append(error)

        first = threading.Thread(target=leader)
        first.start()
        assert leading.wait(timeout=5)
        waiter = threading.Thread(
            target=lambda: results.append(store.get_or_plan(lambda: _key("k"), plan))
        )
        waiter.start()
        while store.waits == 0:
            time.sleep(0.001)
        fail.set()
        first.join(timeout=10)
        waiter.join(timeout=10)
        assert len(errors) == 1 and len(attempts) == 2
        assert len(results) == 1 and not results[0].cache_hit
        assert _key("k") in store and store._inflight == {}

    def test_lookup_returns_none_while_the_lock_is_held(self, planned):
        store = PlanStore(capacity=8)
        _publish(store, _key("k"), planned)
        held, release = threading.Event(), threading.Event()

        def hold():
            with store._lock:
                held.set()
                release.wait(timeout=5)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(timeout=5)
            started = time.perf_counter()
            assert store.lookup(_key("k")) is None
            assert time.perf_counter() - started < 0.05
        finally:
            release.set()
            holder.join(timeout=5)
        assert store.hits == 0
        assert store.lookup(_key("k")).cache_hit

    def test_nothing_is_published_when_the_key_moved_mid_plan(self, planned):
        store = PlanStore(capacity=8)
        current = {"key": _key("k", 0)}

        def plan():
            current["key"] = _key("k", 1)  # the catalog moved while planning
            return planned

        result = store.get_or_plan(lambda: current["key"], plan)
        assert result is planned and not result.cache_hit
        assert len(store) == 0 and store.planned == 1 and store._inflight == {}
        assert not store.get_or_plan(lambda: current["key"], lambda: planned).cache_hit
        assert list(store._entries) == [_key("k", 1)]


class TestSessionCache:
    def test_session_cache_hit_on_identical_expression(self, small_catalog):
        session = PlanSession(small_catalog)
        expr = transpose(matrix("M") @ matrix("N"))
        first = session.rewrite(expr)
        second = session.rewrite(transpose(matrix("M") @ matrix("N")))
        assert not first.cache_hit and second.cache_hit
        assert second.best == first.best
        assert second.best_cost == first.best_cost
        assert session.store.hits == 1
        # Cached timings describe the original planning run.
        assert second.stage_timings == first.stage_timings
        assert second.rewrite_seconds < first.rewrite_seconds

    def test_distinct_expressions_miss(self, small_catalog):
        session = PlanSession(small_catalog)
        session.rewrite(transpose(matrix("M") @ matrix("N")))
        result = session.rewrite(transpose(matrix("N") @ matrix("M")))
        assert not result.cache_hit

    def test_catalog_change_invalidates(self, small_catalog, rng):
        session = PlanSession(small_catalog)
        expr = transpose(matrix("M") @ matrix("N"))
        session.rewrite(expr)
        small_catalog.register_dense("Fresh", rng.random((4, 4)))
        result = session.rewrite(expr)
        assert not result.cache_hit  # version bump changed the key

    def test_view_set_distinguishes_sessions(self, small_catalog):
        expr = trace_input = inv(matrix("C"))
        plain = PlanSession(small_catalog)
        viewed = PlanSession(small_catalog, views=[LAView("Vc", trace_input)])
        assert plain.cache_key(expr) != viewed.cache_key(expr)

    def test_explicit_invalidate(self, small_catalog):
        session = PlanSession(small_catalog)
        expr = transpose(matrix("M") @ matrix("N"))
        session.rewrite(expr)
        session.invalidate()
        assert not session.rewrite(expr).cache_hit

    def test_rewrite_all_dedupes_by_fingerprint(self, small_catalog):
        session = PlanSession(small_catalog)
        expr = transpose(matrix("M") @ matrix("N"))
        other = sum_all(matrix("A"))
        results = session.rewrite_all([expr, other, transpose(matrix("M") @ matrix("N"))])
        assert len(results) == 3
        assert not results[0].cache_hit and not results[1].cache_hit
        assert results[2].cache_hit  # deduplicated, not re-planned
        assert results[2].best == results[0].best


# ---------------------------------------------------------------------------
# Constraint-index equivalence
# ---------------------------------------------------------------------------


def _saturate_with(constraints, catalog, use_index):
    instance, root = encode_expression(
        transpose(transpose(matrix("A")) + matrix("N")), catalog=catalog
    )
    engine = SaturationEngine(
        constraints, max_rounds=4, max_atoms=600, max_classes=300, use_index=use_index
    )
    return instance, engine.saturate(instance)


def _saturate(expr, catalog, use_index):
    instance, root = encode_expression(expr, catalog=catalog)
    engine = SaturationEngine(
        default_constraints(),
        max_rounds=4,
        max_atoms=600,
        max_classes=300,
        use_index=use_index,
    )
    stats = engine.saturate(instance)
    return instance, stats


class TestConstraintIndex:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: transpose(matrix("M") @ matrix("N")),
            lambda: sum_all(colsums(transpose(matrix("N")) @ transpose(matrix("M")))),
            lambda: rowsums(matrix("M") @ matrix("N")),
            lambda: sum_all(transpose(matrix("A"))),
        ],
    )
    def test_same_fixpoint_as_unindexed(self, small_catalog, builder):
        indexed, stats_indexed = _saturate(builder(), small_catalog, use_index=True)
        plain, stats_plain = _saturate(builder(), small_catalog, use_index=False)
        atoms_indexed = {(a.relation, a.args) for a in indexed.atoms()}
        atoms_plain = {(a.relation, a.args) for a in plain.atoms()}
        assert atoms_indexed == atoms_plain
        assert indexed.num_classes() == plain.num_classes()
        assert stats_indexed.reached_fixpoint == stats_plain.reached_fixpoint
        # The index must actually skip dormant constraints to be worth it.
        assert stats_indexed.constraints_skipped > 0
        assert stats_plain.constraints_skipped == 0

    def test_program_compilation(self):
        program = ConstraintProgram(default_constraints())
        assert len(program) == len(program.compiled)
        for compiled in program.compiled:
            assert compiled.trigger_relations or compiled.uses_shapes
            assert "size" not in compiled.trigger_relations
        # Armed: only trigger-free premises on an empty instance, every
        # position once every trigger relation holds an atom; memoised.
        everything = frozenset(r for c in program.compiled for r in c.trigger_relations)
        assert program.armed(everything) == tuple(range(len(program)))
        assert program.armed(frozenset()) == tuple(
            i for i, c in enumerate(program.compiled) if not c.trigger_relations
        )
        assert program.armed(frozenset(everything)) is program.armed(everything)

    def test_duplicate_constraint_names_are_not_collapsed(self, small_catalog):
        """Watermarks are kept by position, so same-named constraints both run."""
        from repro.constraints import tgd
        from repro.vrem.instance import VremInstance

        duplicates = [
            tgd("dup", "add_m(M, N, R) -> add_m(N, M, R)"),
            tgd("dup", "tr(M, R1) & tr(R1, R2) -> add_m(M, R2, R2)"),
        ]
        states = {}
        for use_index in (True, False):
            instance, _ = _saturate_with(duplicates, small_catalog, use_index)
            states[use_index] = {(a.relation, a.args) for a in instance.atoms()}
        assert states[True] == states[False]

    def test_session_plans_match_without_index(self, small_catalog):
        expr = sum_all(colsums(transpose(matrix("N")) @ transpose(matrix("M"))))
        fast = PlanSession(small_catalog).rewrite(expr)
        reference = PlanSession(small_catalog, tighten_thresholds=False)
        reference.engine = SaturationEngine(
            reference.program,
            use_index=False,
            max_rounds=reference.config.max_rounds,
            max_atoms=reference.config.max_atoms,
            max_classes=reference.config.max_classes,
        )
        slow = reference.rewrite(expr)
        assert fast.best == slow.best
        assert fast.best_cost == pytest.approx(slow.best_cost)


# ---------------------------------------------------------------------------
# Threshold tightening
# ---------------------------------------------------------------------------


class TestTightening:
    def test_tighten_reported_in_saturation_stats(self, small_catalog):
        # A pipeline with a cheap rewriting (aggregate pushdown): once found,
        # the threshold drops below the original plan's bound.
        expr = sum_all(matrix("M") @ matrix("N"))
        result = PlanSession(small_catalog).rewrite(expr)
        stats = result.saturation
        assert stats is not None and stats.final_threshold is not None
        assert stats.threshold_tightenings >= 1
        assert stats.final_threshold < max(result.original_cost * 1.5, 1024.0) + 1e-9
        assert stats.pruned_by_tightening <= stats.pruned_applications

    def test_tightening_keeps_best_plan(self, small_catalog):
        expr = sum_all(matrix("M") @ matrix("N"))
        tight = PlanSession(small_catalog).rewrite(expr)
        loose = PlanSession(small_catalog, tighten_thresholds=False).rewrite(expr)
        assert tight.best == loose.best
        assert tight.best_cost == pytest.approx(loose.best_cost)


# ---------------------------------------------------------------------------
# Stage timings and the session's option surface
# ---------------------------------------------------------------------------


class TestSessionOptions:
    def test_stage_timings_recorded(self, small_catalog):
        result = PlanSession(small_catalog).rewrite(transpose(matrix("M") @ matrix("N")))
        assert set(result.stage_timings) == {
            "encode", "saturate", "annotate", "extract", "postopt",
        }
        assert all(t >= 0.0 for t in result.stage_timings.values())
        assert sum(result.stage_timings.values()) <= result.rewrite_seconds + 1e-6
        assert result.fingerprint == transpose(matrix("M") @ matrix("N")).fingerprint()

    def test_session_exposes_its_options(self, small_catalog):
        session = PlanSession(small_catalog, max_rounds=3)
        result = session.rewrite(transpose(matrix("M") @ matrix("N")))
        assert result.changed
        assert session.catalog is small_catalog
        assert session.config.max_rounds == session.engine.max_rounds == 3

    def test_with_views_preserves_options(self, small_catalog):
        optimizer = PlanSession(
            small_catalog,
            include_decompositions=True,
            normalized_matrices={"M": ("M__S", "M__K", "M__R")},
            max_rounds=3,
            prune=False,
        )
        session = optimizer.with_views([LAView("Vd", inv(matrix("C")))])
        assert session.config == optimizer.config
        assert session.config.include_decompositions is True
        assert session.config.normalized_matrices == (("M", ("M__S", "M__K", "M__R")),)
        assert session.config.max_rounds == 3 and session.config.prune is False
        assert session.engine.max_rounds == 3
        assert [view.name for view in session.views] == ["Vd"]
        assert [c.name for c in session.view_constraints] == ["view-io:Vd", "view-oi:Vd"]

    def test_hybrid_factors_rebuilt_after_table_change(self, small_tables):
        """Replacing a base table must not leave stale Morpheus factors."""
        import numpy as np
        from repro.data.table import Table
        from repro.hybrid.optimizer import HybridOptimizer
        from repro.hybrid.query import HybridQuery, JoinFeatureMatrix
        from repro.lang import colsums

        builder = JoinFeatureMatrix(
            name="J", left_table="Left", right_table="Right",
            key="id", left_columns=("l1",), right_columns=("r1",),
        )
        query = HybridQuery(
            name="Q", builders=[builder], analysis=colsums(matrix("J"))
        )
        optimizer = HybridOptimizer(small_tables)
        optimizer.rewrite(query)
        before = small_tables.matrix("J__S").values.copy()
        ids = np.arange(10, dtype=np.float64)
        small_tables.register_table(
            Table("Left", {"id": ids, "l1": ids * 10.0, "l2": ids}), overwrite=True
        )
        optimizer.rewrite(query)
        after = small_tables.matrix("J__S").values
        assert not np.allclose(before, after)  # factors track the new table
        # Unchanged catalog afterwards: factors are reused, not re-registered.
        version = small_tables.version
        optimizer.rewrite(query)
        assert small_tables.version == version
