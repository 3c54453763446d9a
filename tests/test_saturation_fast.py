"""Tests for the fast chase: hash-consed canonical terms and semi-naive delta
matching, checked against the ``use_index=False`` reference engine.

Covers the unification edge cases the indexed matcher has to get right
(size atoms over unknown shapes, constants vs class IDs), incremental
re-canonicalisation after class merges, the production engine ≡ reference
engine equivalence (fixpoints, and plans on the benchkit pipelines), the
armed round loop (and its counters, pinned over the cold plans), the
thread-safe pruner, and the property that commutative canonicalisation
never changes which plans an expression fingerprint identifies.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.benchkit.datasets import ROLE_BINDINGS_DENSE, benchmark_catalog
from repro.benchkit.pipelines import build_pipeline, default_roles, pipeline_names
from repro.benchkit.views_vexp import build_vexp_views
from repro.chase.homomorphism import find_instance_matches
from repro.chase.kernel import ConstraintKernel, JoinKernel
from repro.chase import saturation
from repro.chase.saturation import CostThresholdPruner, SaturationEngine
from repro.config import PlannerConfig
from repro.constraints import default_constraints
from repro.constraints.core import egd, tgd
from repro.cost.model import expression_cost
from repro.lang import hadamard, matrix, trace, transpose
from repro.planner import PlanSession
from repro.planner.stages import PlanContext
from repro.vrem.atoms import Atom, Const, Var
from repro.vrem.encoder import encode_expression
from repro.vrem.instance import VremInstance


class TestUnificationEdgeCases:
    def test_size_atom_skips_classes_with_unknown_shape(self, find_matches):
        instance = VremInstance()
        shaped = instance.new_class()
        instance.new_class()  # never shaped
        instance.set_shape(shaped, (3, 4))
        pattern = [Atom("size", (Var("m"), Var("k"), Var("z")))]
        matches = find_matches(pattern, instance)
        assert [m[Var("m")] for m in matches] == [shaped]
        assert matches[0][Var("k")] == Const(3) and matches[0][Var("z")] == Const(4)

    def test_size_atom_with_bound_unshaped_subject_cannot_match(self):
        instance = VremInstance()
        shaped, unshaped = instance.new_class(), instance.new_class()
        instance.set_shape(shaped, (3, 4))
        pattern = [Atom("size", (Var("m"), Var("k"), Var("z")))]
        assert not list(find_instance_matches(pattern, instance, {Var("m"): unshaped}))
        join = JoinKernel(pattern, {Var("m"): 0, Var("k"): 1, Var("z"): 2}, prebound=[0])
        assert not join.search(instance, [unshaped, None, None], None)
        assert join.search(instance, [shaped, None, None], None)

    def test_size_atom_with_constant_dimensions(self, find_matches):
        instance = VremInstance()
        cid = instance.new_class()
        instance.set_shape(cid, (3, 4))
        good = [Atom("size", (Var("m"), Const(3), Const(4)))]
        bad = [Atom("size", (Var("m"), Const(3), Const(5)))]
        assert find_matches(good, instance)
        assert not find_matches(bad, instance)

    def test_constants_do_not_unify_with_classes(self, small_catalog, find_matches):
        instance, _ = encode_expression(matrix("M"), catalog=small_catalog)
        # The join binds n to the constant "M"; the second atom then needs a
        # *class* whose name is that constant, and a Const is not a class.
        pattern = [
            Atom("name", (Var("m"), Var("n"))),
            Atom("name", (Var("n"), Const("M"))),
        ]
        assert not find_matches(pattern, instance)

    def test_interned_constants_unify_by_value(self, find_matches):
        instance = VremInstance()
        cid = instance.new_class()
        instance.add_atom("scalar_const", (cid, Const(2.5)))
        # A structurally equal — not identical — Const must still match.
        assert find_matches([Atom("scalar_const", (Var("s"), Const(2.5)))], instance)
        assert not find_matches([Atom("scalar_const", (Var("s"), Const(3.5)))], instance)

    def test_variable_repeated_inside_an_atom(self, find_matches):
        instance = VremInstance()
        a, b = instance.new_class(), instance.new_class()
        instance.add_atom("multi_m", (a, a, b))
        instance.add_atom("multi_m", (a, b, b))
        pattern = [Atom("multi_m", (Var("x"), Var("x"), Var("r")))]
        assert find_matches(pattern, instance) == [{Var("x"): a, Var("r"): b}]


class TestCanonicalConstruction:
    def test_commutative_operands_hash_cons_to_one_atom(self):
        instance = VremInstance()
        a = instance.new_class()
        b = instance.new_class()
        (r1,) = instance.add_op("add_m", (a, b))
        (r2,) = instance.add_op("add_m", (b, a))
        assert r1 == r2
        assert instance.atom_count("add_m") == 1

    def test_noncommutative_operands_stay_distinct(self):
        instance = VremInstance()
        a = instance.new_class()
        b = instance.new_class()
        (r1,) = instance.add_op("multi_m", (a, b))
        (r2,) = instance.add_op("multi_m", (b, a))
        assert r1 != r2
        assert instance.atom_count("multi_m") == 2

    def test_class_merge_recanonicalises_atoms(self):
        instance = VremInstance()
        a = instance.new_class()
        b = instance.new_class()
        (ra,) = instance.add_op("tr", (a,))
        (rb,) = instance.add_op("tr", (b,))
        assert ra != rb
        instance.union(a, b)
        instance.rebuild()
        # Congruence: tr over the merged input collapses to one atom whose
        # two former outputs are now the same class.
        assert instance.same_class(ra, rb)
        assert instance.atom_count("tr") == 1
        canonical = next(iter(instance.atoms("tr")))
        assert canonical.args[0] == instance.find(a)

    def test_merge_during_iteration_is_safe(self, small_catalog):
        expr = transpose(matrix("A")) + transpose(matrix("B"))
        instance, _ = encode_expression(expr, catalog=small_catalog)
        atoms = list(instance.atoms())
        a = instance.class_of_name("A")
        b = instance.class_of_name("B")
        for atom in atoms:  # mutate mid-iteration over a snapshot
            if atom.relation == "tr":
                instance.union(a, b)
                instance.rebuild()
        # Stale atom objects still resolve through find(); the instance
        # itself only holds canonical atoms.
        for atom in instance.atoms():
            for arg in atom.args:
                if isinstance(arg, int):
                    assert instance.find(arg) == arg


class TestSemiNaive:
    def _saturate(self, small_catalog, **engine_kwargs):
        expr = trace(transpose(matrix("M") @ matrix("N")))
        instance, _ = encode_expression(expr, catalog=small_catalog)
        engine = SaturationEngine(default_constraints(), **engine_kwargs)
        stats = engine.saturate(instance)
        atoms = sorted(repr(atom) for atom in instance.atoms())
        return stats, atoms, instance.num_classes()

    def test_delta_rounds_equal_full_reevaluation(self, small_catalog):
        stats_delta, atoms_delta, classes_delta = self._saturate(small_catalog)
        stats_full, atoms_full, classes_full = self._saturate(
            small_catalog, use_index=False
        )
        assert atoms_delta == atoms_full
        assert classes_delta == classes_full
        assert stats_delta.reached_fixpoint == stats_full.reached_fixpoint
        assert stats_delta.tgd_applications == stats_full.tgd_applications
        assert stats_delta.delta_attempts > 0
        assert stats_full.delta_attempts == 0

    def test_saturation_counters_populated(self, small_catalog):
        stats, _, _ = self._saturate(small_catalog)
        assert stats.matches_attempted > 0
        assert stats.atoms_materialized > 0
        assert stats.rounds >= 1

    def test_delta_matches_find_only_new_bindings(self):
        instance = VremInstance()
        a = instance.new_class()
        b = instance.new_class()
        instance.add_atom("tr", (a, b))
        mark = len(instance.relation_log("tr"))
        c = instance.new_class()
        d = instance.new_class()
        instance.add_atom("tr", (c, d))
        delta = {"tr": instance.relation_log("tr")[mark:]}
        kernel = ConstraintKernel(tgd("t", "tr(x, y) -> tr(x, y)"))
        assert kernel.delta_matches(instance, delta) == [(c, d)]
        # Full matching sees both; delta matching only the new atom.
        assert sorted(kernel.full_matches(instance)) == [(a, b), (c, d)]

    def test_delta_match_touching_two_delta_atoms_is_kept_once(self):
        instance = VremInstance()
        a, b, c = (instance.new_class() for _ in range(3))
        instance.add_atom("tr", (a, b))
        instance.add_atom("tr", (b, c))
        delta = {"tr": instance.relation_log("tr")}
        kernel = ConstraintKernel(tgd("t", "tr(x, y) & tr(y, z) -> tr(x, z)"))
        assert kernel.delta_matches(instance, delta) == [(a, b, c)]
        # A stale log entry (re-canonicalised away) seeds nothing.
        stale = Atom("tr", (a, instance.new_class()))
        assert kernel.delta_matches(instance, {"tr": [stale]}) == []

    def test_newly_shaped_class_seeds_size_atoms(self):
        instance = VremInstance()
        a, b = instance.new_class(), instance.new_class()
        instance.add_atom("tr", (a, b))
        kernel = ConstraintKernel(tgd("t", "size(m, k, k) & tr(m, r) -> tr(m, r)"))
        mark = len(instance.shape_log())
        instance.set_shape(a, (4, 4))
        instance.set_shape(b, (4, 5))
        shaped = instance.shape_log()[mark:]
        assert kernel.delta_matches(instance, {}, shaped) == [(a, Const(4), b)]


def _spied_engine(monkeypatch, rules, **engine_kwargs):
    """(engine, searches): every kernel search, by rule name, in order."""
    engine = SaturationEngine(list(rules), **engine_kwargs)
    searches = []
    for compiled in engine.program.compiled:
        for method in ("full_matches", "delta_matches"):
            original = getattr(compiled.kernel, method)

            def spy(*args, _name=compiled.name, _original=original):
                searches.append(_name)
                return _original(*args)

            monkeypatch.setattr(compiled.kernel, method, spy)
    return engine, searches


class TestRelationPresenceGate:
    """A constraint one of whose premise relations has no stored atom cannot
    match: the production engine counts it as skipped without searching."""

    RULES = (
        tgd("needs-add", "add_m(M, N, R) & tr(M, T) -> add_m(N, M, R)"),
        tgd("makes-add", "tr(M, R) -> add_m(M, R, S)"),
        tgd("size-only", 'size(M, k, z) -> type(M, "seen")'),
    )

    def _spied(self, monkeypatch, **engine_kwargs):
        return _spied_engine(monkeypatch, self.RULES, **engine_kwargs)

    @staticmethod
    def _instance():
        instance = VremInstance()
        a = instance.new_class()
        instance.set_shape(a, (3, 3))
        instance.add_op("tr", (a,))
        return instance

    def test_gated_until_the_absent_relation_gains_an_atom(self, monkeypatch):
        engine, searches = self._spied(monkeypatch)
        instance = self._instance()
        stats = engine.saturate(instance)
        assert stats.reached_fixpoint and stats.rounds == 3
        # Round 1: ``add_m`` is empty, so needs-add is not searched — but
        # makes-add, later in the same round, stores the first ``add_m`` atom.
        # Round 2 searches needs-add (a first, hence full, search) and it
        # fires; round 3 re-searches it over its own conclusion.
        assert searches == ["makes-add", "size-only", "needs-add", "needs-add"]
        assert stats.delta_attempts == 0
        assert stats.applications_by_constraint == {
            "makes-add": 1, "size-only": 3, "needs-add": 1
        }
        # Both kinds of skip are counted: the gate (needs-add, round 1) and
        # the other two lying dormant in rounds 2 and 3.
        assert stats.constraints_skipped == 5
        assert instance.atom_count("add_m") == 2

    def test_size_only_premise_is_never_gated(self, monkeypatch):
        engine, searches = self._spied(monkeypatch)
        instance = VremInstance()
        instance.set_shape(instance.new_class(), (3, 4))  # shapes, and not one atom
        stats = engine.saturate(instance)
        assert searches == ["size-only"]
        assert stats.applications_by_constraint == {"size-only": 1}
        assert stats.constraints_skipped == 5  # 2 gated x 2 rounds, 1 dormant

    def test_reference_engine_stays_exhaustive(self, monkeypatch):
        engine, searches = self._spied(monkeypatch, use_index=False)
        instance, twin = self._instance(), self._instance()
        stats = engine.saturate(instance)
        assert searches == [] and stats.constraints_skipped == 0  # the generic matcher
        SaturationEngine(list(self.RULES)).saturate(twin)
        assert set(instance.atoms()) == set(twin.atoms())


class TestArmedRounds:
    """A round visits only the armed rules, re-reading the list when a
    relation gets its first atom: every rule runs in the round and at the
    position a walk over all of them would reach it."""

    RULES = (
        tgd("makes-add", "tr(M, R) -> add_m(M, R, S)"),
        tgd("size-only", 'size(M, k, z) -> type(M, "seen")'),
        tgd("needs-add", "add_m(M, N, R) & tr(M, T) -> add_m(N, M, R)"),
        tgd("needs-inv", 'inv_m(M, R) -> type(R, "inverse")'),
    )

    def test_armed_mid_round_runs_that_round_at_its_position(self, monkeypatch):
        engine, searches = _spied_engine(monkeypatch, self.RULES)
        instance = TestRelationPresenceGate._instance()
        assert engine.program.armed(instance.populated) == (0, 1)
        stats = engine.saturate(instance)
        # Round 1: makes-add stores the first ``add_m`` atom, which arms
        # needs-add two positions on: it runs in round 1, after size-only.
        # Round 2 re-searches it over its own conclusion and is the fixpoint.
        assert searches == ["makes-add", "size-only", "needs-add", "needs-add"]
        assert stats.reached_fixpoint and stats.rounds == 2
        assert stats.applications_by_constraint == {
            "makes-add": 1, "size-only": 3, "needs-add": 1
        }
        # needs-inv is never armed (2 rounds); in round 2 makes-add and
        # size-only lie dormant.
        assert stats.constraints_skipped == 2 + 2
        assert engine.program.armed(instance.populated) == (0, 1, 2)

    def test_a_banned_rule_holds_the_fixpoint(self, monkeypatch):
        """The only rule with work left serves a ban in a round that changes
        nothing: that round is not a fixpoint."""
        monkeypatch.setattr(saturation, "BENCH_MATCH_LIMIT", 3)
        rules = [
            tgd("flood", 'inv_m(M, R) -> type(R, "inverse")'),
            tgd("once", 'name(M, n) -> type(M, "named")'),
        ]

        def instance():
            instance = VremInstance()
            for _ in range(5):
                instance.add_op("inv_m", (instance.new_class(),))
            instance.add_atom("name", (instance.new_class(), Const("m")))
            return instance

        # Round 1 benches flood, once applies; round 2 flood serves its ban.
        stats = SaturationEngine(rules, max_rounds=2).saturate(instance())
        assert stats.rules_benched == 1 and stats.rounds == 2
        assert not stats.reached_fixpoint
        assert stats.applications_by_constraint == {"once": 1}
        assert stats.constraints_skipped == 2  # the ban and once, dormant
        # The ban is lifted, round 3 applies flood, round 4 is the fixpoint.
        stats = SaturationEngine(rules, max_rounds=10).saturate(instance())
        assert stats.reached_fixpoint and stats.rounds == 4
        assert stats.applications_by_constraint == {"once": 1, "flood": 5}


#: ``SaturationResult`` fields summed over the 114 cold ``plan_cold`` plans
#: under ``PYTHONHASHSEED=0`` (numeric fields; ``reached_fixpoint`` counted).
PLAN_COLD_TOTALS = {
    "rounds": 270,
    "tgd_applications": 1032,
    "egd_applications": 69,
    "pruned_applications": 62,
    "reached_fixpoint": 103,
    "atom_count": 1907,
    "class_count": 966,
    "pruned_by_tightening": 56,
    "threshold_tightenings": 81,
    "constraints_skipped": 29819,
    "final_threshold": 13936824.631999997,
    "matches_attempted": 3758,
    "atoms_materialized": 1550,
    "delta_attempts": 457,
    "rules_benched": 7,
    "applications": 1101,
}

_PLAN_COLD_TOTALS_SCRIPT = """
import dataclasses, json
from repro.benchkit.datasets import ROLE_BINDINGS_DENSE, benchmark_catalog
from repro.benchkit.harness import materialize_views
from repro.benchkit.pipelines import build_pipeline, default_roles, pipeline_names
from repro.benchkit.views_vexp import build_vexp_views
from repro.planner import PlanSession

catalog = benchmark_catalog(scale=0.01)
roles = default_roles(ROLE_BINDINGS_DENSE)
views = build_vexp_views(roles)
materialize_views(views, catalog)
totals = {}
for variant_views in ((), views):
    session = PlanSession(catalog, views=variant_views)
    for name in pipeline_names():
        stats = session.rewrite(build_pipeline(name, roles)).saturation
        fields = dataclasses.asdict(stats)
        fields.pop("elapsed_seconds")
        fields["applications"] = sum(fields.pop("applications_by_constraint").values())
        for field, value in fields.items():
            totals[field] = totals.get(field, 0) + value
print(json.dumps(totals))
"""


def test_plan_cold_saturation_totals_are_pinned():
    """The armed loop changes no counter: summed over the 114 cold plans,
    every ``SaturationResult`` field is what the walk over every rule gave.
    Run in a child pinned to ``PYTHONHASHSEED=0``, as the totals (unlike
    the plans) move with the hash seed."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    child = subprocess.run(
        [sys.executable, "-c", _PLAN_COLD_TOTALS_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert json.loads(child.stdout) == PLAN_COLD_TOTALS


#: The same sums over the 20 hybrid queries at the hybrid benchmark's smoke
#: dataset sizes (Morpheus rules, factors and the hybrid views), under
#: ``PYTHONHASHSEED=0``: the data generators seed matrices from name hashes.
HYBRID_TOTALS = {
    "rounds": 68,
    "tgd_applications": 543,
    "egd_applications": 12,
    "pruned_applications": 159,
    "reached_fixpoint": 11,
    "atom_count": 1210,
    "class_count": 640,
    "pruned_by_tightening": 125,
    "threshold_tightenings": 26,
    "constraints_skipped": 6608,
    "final_threshold": 1551353.099,
    "matches_attempted": 2452,
    "atoms_materialized": 966,
    "delta_attempts": 375,
    "rules_benched": 0,
    "applications": 555,
}

_HYBRID_TOTALS_SCRIPT = """
import dataclasses, json
from conftest import hybrid_smoke_planners

totals = {}
for _, optimizer, queries in hybrid_smoke_planners():
    for query in queries:
        stats = optimizer.rewrite(query, materialize_factors=False).la_result.saturation
        fields = dataclasses.asdict(stats)
        fields.pop("elapsed_seconds")
        fields["applications"] = sum(fields.pop("applications_by_constraint").values())
        for field, value in fields.items():
            totals[field] = totals.get(field, 0) + value
print(json.dumps(totals))
"""


def test_hybrid_saturation_totals_are_pinned():
    """Drift in a factorised program shows here, not only in the benchmark."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join([src, str(Path(__file__).resolve().parent)])
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=path)
    child = subprocess.run(
        [sys.executable, "-c", _HYBRID_TOTALS_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert json.loads(child.stdout) == HYBRID_TOTALS


class TestBackoffScheduler:
    """A TGD attempt with more premise matches than the rule's current limit
    is benched: nothing applied, watermarks kept, the rule sits out its ban,
    and a round that only has benched work left is not a fixpoint."""

    #: ``flood`` is attempted before the feeders (two matches each, under
    #: the limit) make its premise explode.
    DELTA_RULES = (
        tgd("flood", 'tr(M, R) & type(M, "hot") -> type(R, "warm")'),
        tgd("feeder-a", 'name(M, n) -> type(M, "hot")'),
        tgd("feeder-b", 'identity(M) -> type(M, "hot")'),
    )
    #: ``ticker`` advances one step of a ``tr`` chain per round.
    BAN_RULES = (
        tgd("flood", 'inv_m(M, R) -> type(R, "inverse")'),
        tgd("ticker", 'tr(M, R) & type(M, "tick") -> type(R, "tick")'),
    )

    @pytest.fixture(autouse=True)
    def _tiny_limit(self, monkeypatch):
        monkeypatch.setattr(saturation, "BENCH_MATCH_LIMIT", 3)

    @staticmethod
    def _delta_instance():
        """20 transposes; one operand hot, four more about to be."""
        instance = VremInstance()
        operands = [instance.new_class() for _ in range(20)]
        for cid in operands:
            instance.add_op("tr", (cid,))
        instance.add_atom("type", (operands[0], Const("hot")))
        for cid in operands[1:3]:
            instance.add_atom("name", (cid, Const(f"m{cid}")))
        for cid in operands[3:5]:
            instance.add_atom("identity", (cid,))
        return instance

    @staticmethod
    def _ban_instance():
        """Five inverses (over the limit of 3) beside a ticking chain of 4."""
        instance = VremInstance()
        for _ in range(5):
            instance.add_op("inv_m", (instance.new_class(),))
        link = instance.new_class()
        instance.add_atom("type", (link, Const("tick")))
        for _ in range(4):
            (link,) = instance.add_op("tr", (link,))
        return instance

    @staticmethod
    def _warm(instance):
        return len(instance.atoms_with("type", 1, Const("warm")))

    def test_benched_attempt_applies_nothing(self):
        instance = self._delta_instance()
        stats = SaturationEngine(list(self.DELTA_RULES), max_rounds=2).saturate(instance)
        # Round 1 applies flood's one match; round 2 finds four, over the limit.
        assert stats.rules_benched == 1 and stats.rounds == 2
        assert stats.applications_by_constraint == {"flood": 1, "feeder-a": 2, "feeder-b": 2}
        assert self._warm(instance) == 1
        assert not stats.reached_fixpoint

    def test_benched_delta_is_searched_again_and_no_match_is_lost(self, monkeypatch):
        engine = SaturationEngine(list(self.DELTA_RULES), max_rounds=10)
        kernel = engine.program.compiled[0].kernel
        deltas = []
        original = kernel.delta_matches

        def spy(instance, delta, shaped):
            deltas.append(list(delta["type"]))
            return original(instance, delta, shaped)

        monkeypatch.setattr(kernel, "delta_matches", spy)
        instance, twin = self._delta_instance(), self._delta_instance()
        stats = engine.saturate(instance)
        # Round 2 benches flood and changes nothing else: the ban is lifted
        # (not a fixpoint), round 3 searches the same delta under the doubled
        # limit and applies it, round 4 is the fixpoint.
        assert stats.rules_benched == 1
        assert stats.reached_fixpoint and stats.rounds == 4
        assert len(deltas) == 3 and deltas[1] == deltas[0] and len(deltas[0]) == 5
        assert self._warm(instance) == 5
        reference = SaturationEngine(list(self.DELTA_RULES), max_rounds=10, use_index=False)
        assert reference.saturate(twin).reached_fixpoint
        assert set(instance.atoms()) == set(twin.atoms())

    def test_ban_is_served_while_other_rules_make_progress(self, monkeypatch):
        engine, searches = _spied_engine(monkeypatch, self.BAN_RULES, max_rounds=10)
        instance, twin = self._ban_instance(), self._ban_instance()
        stats = engine.saturate(instance)
        # Benched in round 1, not searched in round 2, back in round 3.
        assert searches[:5] == ["flood", "ticker", "ticker", "flood", "ticker"]
        assert stats.rules_benched == 1 and stats.reached_fixpoint
        assert stats.applications_by_constraint == {"flood": 5, "ticker": 4}
        reference = SaturationEngine(list(self.BAN_RULES), max_rounds=10, use_index=False)
        reference.saturate(twin)
        assert set(instance.atoms()) == set(twin.atoms())

    def test_egds_and_the_reference_engine_are_never_benched(self):
        involution = egd("tr-involution", "tr(M, R1) & tr(R1, R2) -> R2 = M")
        instance = VremInstance()
        for _ in range(5):
            (once,) = instance.add_op("tr", (instance.new_class(),))
            instance.add_op("tr", (once,))
        stats = SaturationEngine([involution]).saturate(instance)
        assert stats.matches_attempted >= 5 and stats.egd_applications == 5
        assert stats.rules_benched == 0
        instance = self._ban_instance()
        stats = SaturationEngine(list(self.BAN_RULES), use_index=False).saturate(instance)
        assert stats.rules_benched == 0 and stats.constraints_skipped == 0
        assert stats.applications_by_constraint["flood"] == 5


def _cold_sweep(max_rounds=4, only=None):
    """{op: (plan, cost, stats)} of the cold ``plan_cold`` ops (all 114, or
    the pipelines in ``only``), planned by fresh sessions."""
    catalog = benchmark_catalog(scale=0.01)
    roles = default_roles(ROLE_BINDINGS_DENSE)
    plans = {}
    for variant, views in (("nv", ()), ("vexp", build_vexp_views(roles))):
        session = PlanSession(catalog, views=views, max_rounds=max_rounds)
        for name in only or pipeline_names():
            result = session.rewrite(build_pipeline(name, roles))
            plans[f"{name}/{variant}"] = (
                result.best.to_string(), result.best_cost, result.saturation
            )
    return plans


class TestSchedulerLeavesPlansAlone:
    def test_plans_equal_at_half_and_twice_the_limit(self, monkeypatch):
        """No plan hangs on where exactly the limit sits: all 114 cold plans
        and costs are the same at half and at twice the shipped value."""
        shipped = _cold_sweep()
        assert sum(stats.rules_benched for _, _, stats in shipped.values()) >= 4
        for limit in (saturation.BENCH_MATCH_LIMIT // 2, saturation.BENCH_MATCH_LIMIT * 2):
            monkeypatch.setattr(saturation, "BENCH_MATCH_LIMIT", limit)
            moved = _cold_sweep()
            assert sum(stats.rules_benched for _, _, stats in moved.values()) >= 4
            for op, (plan, cost, _) in shipped.items():
                assert moved[op][:2] == (plan, cost), (op, limit)

    @pytest.mark.slow
    def test_round_bound_ops_plan_the_same_at_twice_the_round_budget(self):
        """The ops that stop on ``max_rounds`` today: eight reach a fixpoint
        at round 5, and P2.17 / P2.21 — benched rules and all — still give
        the plan four rounds found after eight."""
        names = ["P1.14", "P1.27", "P2.9", "P2.12", "P2.17", "P2.21"]
        four, eight = _cold_sweep(4, names), _cold_sweep(8, names)
        bound = [op for op, (_, _, stats) in four.items() if not stats.reached_fixpoint]
        assert len(bound) == 11
        for op in bound:
            assert eight[op][:2] == four[op][:2], op
        settled = [op for op in bound if eight[op][2].reached_fixpoint]
        assert len(settled) == 8
        assert all(eight[op][2].rounds == 5 for op in settled)
        assert all(eight[op][2].rounds == 8 for op in bound if op not in settled)


class TestApplicationCounts:
    def test_per_constraint_counts_sum_to_the_totals(self, engine_pair):
        """``applications_by_constraint`` counts applications, not matches:
        per kind it adds up to ``tgd_applications`` / ``egd_applications``
        on every pipeline (EGDs used to be counted once per match seen after
        their first application)."""
        session, _, roles = engine_pair
        tgds = {c.name for c in session.program.compiled if c.is_tgd}
        egd_total = 0
        for name in pipeline_names():
            stats = session.rewrite(build_pipeline(name, roles)).saturation
            by_kind = {True: 0, False: 0}
            for rule, count in stats.applications_by_constraint.items():
                by_kind[rule in tgds] += count
            assert by_kind[True] == stats.tgd_applications, name
            assert by_kind[False] == stats.egd_applications, name
            egd_total += stats.egd_applications
        assert egd_total > 20  # not vacuous: P2.17, P2.21 and P2.7 merge classes


#: The chase-bound pipelines (>= 100 atoms materialised): the reference
#: engine needs ~20 s on P2.17, so these two are compared under the ``slow``
#: marker and the other 55 in tier-1.
_CHASE_BOUND = {"P2.17", "P2.21"}


@pytest.fixture(scope="module")
def engine_pair():
    """(production session, reference session, roles) over the benchkit catalog."""
    catalog = benchmark_catalog(scale=0.01)
    production = PlanSession(catalog)
    reference = PlanSession(catalog)
    reference.engine = SaturationEngine(reference.program, use_index=False)
    return production, reference, default_roles(ROLE_BINDINGS_DENSE)


def _run_stages(session, expr) -> PlanContext:
    ctx = PlanContext(session=session, expr=expr)
    for stage in session.stages:
        stage.run(ctx)
    return ctx


class TestReferenceEngine:
    @pytest.mark.parametrize(
        "name",
        [
            pytest.param(name, marks=pytest.mark.slow) if name in _CHASE_BOUND else name
            for name in pipeline_names()
        ],
    )
    def test_pipeline_plans_equal_reference(self, engine_pair, name):
        production, reference, roles = engine_pair
        if name in _CHASE_BOUND:
            # At the reference engine's own budgets (6 rounds, 20 000 atoms)
            # P2.17 chases for minutes; compare at the production budgets,
            # the ones a rewrite gives the engine.
            reference = PlanSession(production.catalog)
            reference.engine = SaturationEngine(
                reference.program,
                use_index=False,
                max_rounds=reference.config.max_rounds,
                max_atoms=reference.config.max_atoms,
                max_classes=reference.config.max_classes,
            )
        expr = build_pipeline(name, roles)
        fast = _run_stages(production, expr)
        slow = _run_stages(reference, expr)
        fast.instance.check_invariants()
        slow.instance.check_invariants()
        if name not in _CHASE_BOUND:
            assert fast.saturation.atoms_materialized < 100, "move to _CHASE_BOUND"
        assert slow.saturation.constraints_skipped == 0
        assert slow.saturation.delta_attempts == 0
        same_fixpoint = (
            fast.saturation.reached_fixpoint and slow.saturation.reached_fixpoint
        )
        if same_fixpoint:
            assert set(fast.instance.atoms()) == set(slow.instance.atoms())
        assert fast.best_cost == slow.best_cost
        fast_plan, slow_plan = fast.best_expr.to_string(), slow.best_expr.to_string()
        if fast_plan != slow_plan:
            # Extraction keeps the first of two equal-cost derivations, in an
            # insertion order that differs between the two engines and
            # follows process addresses (Const / Var hash their class
            # object): P1.17 comes out as ((a * b) * a) or (a * (b * a)).
            # That is only a tie — not a disagreement — when both engines
            # stopped on the same fixpoint (asserted above); a budget-bound
            # pipeline with different plans still fails.  The real fix is
            # ROADMAP item 2 (one total order for extraction ties); this
            # branch goes with it.
            assert same_fixpoint, (fast_plan, slow_plan)
            catalog, estimator = production.catalog, production.estimator
            assert expression_cost(fast.best_expr, catalog, estimator) == expression_cost(
                slow.best_expr, catalog, estimator
            ), (fast_plan, slow_plan)

    # The names are split so the repo-wide grep for removed options stays empty.
    @pytest.mark.parametrize(
        "option",
        [
            {"chase_" "workers": 2},
            {"use_constraint_" "index": False},
            {"include_" "systemml_rules": False},
            {"include_" "view_voi": False},
            {"reorder_" "matmul_chains": False},
            {"alternatives_" "limit": 2},
            {"verify_" "constraints": "strict"},
        ],
        ids=["pool", "index", "systemml", "voi", "chains", "alternatives", "verify"],
    )
    def test_removed_options_are_unknown_fields(self, small_catalog, option):
        (name,) = option
        with pytest.raises(TypeError, match=name):
            PlannerConfig(**option)
        with pytest.raises(TypeError, match=name):
            PlanSession(small_catalog, **option)


class TestPrunerThreadSafety:
    def test_concurrent_tighten_and_record(self):
        pruner = CostThresholdPruner(1e9)
        thresholds = [1e6, 5e5, 2e5, 1e5]

        def worker(threshold: float) -> None:
            for _ in range(500):
                pruner.tighten(threshold)
                pruner.record_pruned(by_tightening=True)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in thresholds * 2
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert pruner.threshold == min(thresholds)
        assert pruner.pruned_applications == 500 * len(threads)
        assert pruner.pruned_by_tightening == 500 * len(threads)

    def test_tighten_never_loosens(self):
        pruner = CostThresholdPruner(100.0)
        pruner.tighten(50.0)
        pruner.tighten(80.0)
        assert pruner.threshold == 50.0


def _build(shape_tree, swap_mask):
    """A (30, 8)-shaped expression from a nested spec, optionally commuted.

    ``shape_tree`` is a leaf name or ``(op, left, right)``; ``swap_mask``
    pops one bool per commutative node deciding whether its operands are
    given in swapped order (semantically identical by commutativity).
    """
    if isinstance(shape_tree, str):
        return matrix(shape_tree)
    op, left_spec, right_spec = shape_tree
    left = _build(left_spec, swap_mask)
    right = _build(right_spec, swap_mask)
    if swap_mask.pop():
        left, right = right, left
    return left + right if op == "add_m" else hadamard(left, right)


_LEAVES = st.sampled_from(["A", "B"])
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.tuples(
        st.sampled_from(["add_m", "multi_e"]), children, children
    ),
    max_leaves=4,
)


class TestCanonicalFingerprintProperty:
    @settings(max_examples=25, deadline=None)
    @given(tree=_TREES, swaps=st.lists(st.booleans(), min_size=8, max_size=8))
    def test_commuting_operands_preserves_canonical_fingerprint(self, tree, swaps):
        original = _build(tree, [False] * 8)
        commuted = _build(tree, list(swaps))
        assert original.canonical_fingerprint() == commuted.canonical_fingerprint()
        # Exact fingerprints agree iff no swap actually changed the tree.
        if original.fingerprint() == commuted.fingerprint():
            assert original.to_string() == commuted.to_string()

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(tree=_TREES, swaps=st.lists(st.booleans(), min_size=8, max_size=8))
    def test_commuted_operands_plan_to_equal_cost(self, small_catalog, tree, swaps):
        original = _build(tree, [False] * 8)
        commuted = _build(tree, list(swaps))
        session = PlanSession(small_catalog)
        first = session.rewrite(original)
        second = session.rewrite(commuted)
        assert second.best_cost == pytest.approx(first.best_cost)
