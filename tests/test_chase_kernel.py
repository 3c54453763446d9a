"""The compiled chase kernel against the generic matcher, order-exact.

The production engine matches, tests and applies constraints through
:mod:`repro.chase.kernel`.  What it must reproduce is written down here as
an oracle: the generic dict-binding matcher driven by the instance's
positional index (:func:`_indexed_matches`, the production matcher before
constraints were compiled) and the semi-naive seeding on top of it
(:func:`_indexed_delta_matches`).  The kernel has to return the same
matches *in the same order* — application order fixes class ids, and class
ids reach extraction ties — and the keyed conclusion test has to agree with
the searched one on every match.  The linear-scan matcher that stays in
``src`` (:func:`repro.chase.homomorphism.find_instance_matches`) is checked
as a third opinion on the set of matches.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np
import pytest
from scipy import sparse

from repro.benchkit.datasets import ROLE_BINDINGS_DENSE, benchmark_catalog
from repro.benchkit.pipelines import build_pipeline, default_roles, pipeline_names
from repro.benchkit.views_vexp import build_vexp_views
from repro.chase.homomorphism import (
    Binding,
    _match_atom_against,
    _match_size_atom,
    find_instance_matches,
)
from repro.chase.kernel import ConstraintKernel, JoinKernel, kernel_for
from repro.chase.program import ConstraintProgram
from repro.chase.saturation import CostThresholdPruner
from repro.constraints import default_constraints
from repro.constraints.core import TGD, tgd
from repro.data.catalog import Catalog
from repro.exceptions import ChaseError
from repro.fuzz import CatalogSpec, ExpressionGenerator, generate_catalog, spawn_rng
from repro.lang import colsums, matrix, rowsums, sum_all, transpose
from repro.planner import PlanSession
from repro.planner.stages import THRESHOLD_FLOOR, THRESHOLD_SLACK, PlanContext
from repro.vrem.atoms import Atom, Const, Var
from repro.vrem.instance import VremInstance, congruence_key
from repro.vrem.schema import VREM_SCHEMA


# ---------------------------------------------------------------------------
# The oracle: the generic matcher over the positional index
# ---------------------------------------------------------------------------


def _index_entries(pattern: Atom, binding: Binding, instance: VremInstance) -> list:
    """The index entry of every argument position whose value is known."""
    entries = []
    for position, arg in enumerate(pattern.args):
        value = arg if isinstance(arg, Const) else binding.get(arg)
        if value is not None:
            entries.append(instance.atoms_with(pattern.relation, position, value))
    return entries


def _indexed_matches(
    atoms: Sequence[Atom], instance: VremInstance, initial: Optional[Binding] = None
) -> Iterator[Binding]:
    """Backtracking join, greedy order: the first pending atom with the
    strictly smallest candidate count next, its candidates the first
    strictly smallest index entry (that very set), else the whole relation."""

    def estimate(pattern: Atom, binding: Binding) -> int:
        if pattern.relation == "size":
            return 0 if pattern.args[0] in binding else instance.shaped_class_count()
        sizes = [len(entry) for entry in _index_entries(pattern, binding, instance)]
        return min([instance.atom_count(pattern.relation)] + sizes)

    def backtrack(pending: List[Atom], binding: Binding) -> Iterator[Binding]:
        if not pending:
            yield binding
            return
        best = 0
        if len(pending) > 1:
            best = min(range(len(pending)), key=lambda i: estimate(pending[i], binding))
        pattern, rest = pending[best], pending[:best] + pending[best + 1 :]
        if pattern.relation == "size":
            for extended in _match_size_atom(pattern, binding, instance):
                yield from backtrack(rest, extended)
            return
        entries = _index_entries(pattern, binding, instance)
        candidates = min(entries, key=len) if entries else instance.atoms(pattern.relation)
        for ground in candidates:
            extended = _match_atom_against(pattern, ground, binding, instance)
            if extended is not None:
                yield from backtrack(rest, extended)

    start = {
        var: instance.find(value) if isinstance(value, int) else value
        for var, value in (initial or {}).items()
    }
    yield from backtrack(list(atoms), start)


def _indexed_delta_matches(
    atoms: Sequence[Atom],
    instance: VremInstance,
    delta_atoms: Dict[str, Sequence[Atom]],
    delta_shaped: Sequence[int] = (),
) -> Iterator[Binding]:
    """Semi-naive seeding: every premise position against its relation's
    delta in turn, the rest against the full instance, duplicates dropped."""
    seen = set()
    for seed_index, pattern in enumerate(atoms):
        rest = list(atoms[:seed_index]) + list(atoms[seed_index + 1 :])
        seeds: List[Binding] = []
        if pattern.relation == "size":
            for cid in sorted({instance.find(cid) for cid in delta_shaped}):
                seeds.extend(_match_size_atom(pattern, {pattern.args[0]: cid}, instance))
        else:
            for ground in dict.fromkeys(delta_atoms.get(pattern.relation, ())):
                if instance.contains_atom(ground):
                    seed = _match_atom_against(pattern, ground, {}, instance)
                    if seed is not None:
                        seeds.append(seed)
        for seed in seeds:
            for match in _indexed_matches(rest, instance, seed):
                key = frozenset(match.items())
                if key not in seen:
                    seen.add(key)
                    yield match


# ---------------------------------------------------------------------------
# Kernel ≡ oracle on every instance state a chase goes through
# ---------------------------------------------------------------------------


class _KernelChecker:
    """Compare every constraint's kernel with the oracle on one instance
    state.  Passed to ``saturate`` as its ``tighten`` hook, so it sees the
    instance before the first round and after every round that changed it;
    the delta it tests is what changed between two such states."""

    #: Above this many atoms the linear-scan third opinion is skipped.
    LINEAR_LIMIT = 300

    def __init__(self, program: ConstraintProgram):
        self.program = program
        self.marks: Optional[Dict[str, int]] = None
        self.shape_mark = 0
        self.matches = 0
        self.delta_matches = 0
        self.satisfied = Counter()

    def __call__(self, instance: VremInstance) -> None:
        for compiled in self.program.compiled:
            kernel, constraint = compiled.kernel, compiled.constraint
            variables = kernel.premise_vars

            def as_matches(bindings):
                return [tuple(binding[var] for var in variables) for binding in bindings]

            expected = as_matches(_indexed_matches(constraint.premise, instance))
            assert kernel.full_matches(instance) == expected, constraint.name
            self.matches += len(expected)
            if instance.num_atoms() <= self.LINEAR_LIMIT:
                linear = as_matches(find_instance_matches(constraint.premise, instance))
                assert Counter(linear) == Counter(expected), constraint.name
            if self.marks is not None:
                delta = {
                    relation: instance.relation_log(relation)[self.marks.get(relation, 0) :]
                    for relation in compiled.trigger_relations
                }
                shaped = instance.shape_log()[self.shape_mark :] if compiled.uses_shapes else []
                expected_delta = as_matches(
                    _indexed_delta_matches(constraint.premise, instance, delta, shaped)
                )
                assert kernel.delta_matches(instance, delta, shaped) == expected_delta, (
                    constraint.name
                )
                self.delta_matches += len(expected_delta)
            if compiled.is_tgd:
                for match in expected:
                    searched = any(
                        _indexed_matches(
                            constraint.conclusion, instance, dict(zip(variables, match))
                        )
                    )
                    compiled_test = not kernel.missing(instance, kernel.slots_for(instance, match))
                    assert compiled_test == searched, (constraint.name, match)
                    self.satisfied[searched] += 1
        self.marks = {
            relation: len(instance.relation_log(relation))
            for compiled in self.program.compiled
            for relation in compiled.trigger_relations
        }
        self.shape_mark = len(instance.shape_log())


def _chase_checked(session: PlanSession, expr) -> _KernelChecker:
    """Encode and saturate as the planner does, checking at every round."""
    ctx = PlanContext(session=session, expr=expr)
    session.stages[0].run(ctx)
    checker = _KernelChecker(session.program)
    checker(ctx.instance)
    pruner = CostThresholdPruner(max(ctx.original_cost * THRESHOLD_SLACK, THRESHOLD_FLOOR))
    session.engine.saturate(ctx.instance, pruner, checker)
    ctx.instance.check_invariants()
    return checker


@pytest.fixture(scope="module")
def benchkit():
    """(catalog, roles, session without views, session with the V_exp views)."""
    catalog = benchmark_catalog(scale=0.01)
    roles = default_roles(ROLE_BINDINGS_DENSE)
    views = build_vexp_views(roles)  # planned over, never evaluated: metadata is enough
    return (
        roles,
        PlanSession(catalog),
        PlanSession(catalog, views=views),
    )


class TestKernelEqualsOracle:
    @pytest.mark.parametrize("name", pipeline_names())
    def test_default_and_view_programs_on_the_pipelines(self, benchkit, name):
        roles, plain, with_views = benchkit
        # The view program holds every default rule too (the very same
        # kernels); the two chase-bound pipelines are checked under it alone.
        sessions = (with_views,) if name in ("P2.17", "P2.21") else (plain, with_views)
        for session in sessions:
            checker = _chase_checked(session, build_pipeline(name, roles))
            assert checker.matches > 0

    def test_morpheus_program_on_a_normalized_matrix(self, rng):
        catalog = Catalog()
        entity, attribute = rng.random((30, 3)), rng.random((8, 4))
        indicator = sparse.csr_matrix(
            (np.ones(30), (np.arange(30), rng.integers(0, 8, size=30))), shape=(30, 8)
        )
        catalog.register_dense("S", entity)
        catalog.register_sparse("K", indicator)
        catalog.register_dense("R", attribute)
        catalog.register_dense("Mnorm", np.hstack([entity, indicator @ attribute]))
        catalog.register_dense("Wl", rng.random((9, 30)))
        session = PlanSession(
            catalog,
            include_morpheus_rules=True,
            normalized_matrices={"Mnorm": ("S", "K", "R")},
        )
        fired = Counter()
        m = matrix("Mnorm")
        for expr in (
            rowsums(m),
            colsums(m),
            sum_all(m),
            matrix("Wl") @ m,
            sum_all(transpose(m)),
            colsums(transpose(m)),
            rowsums(transpose(m)),
        ):
            _chase_checked(session, expr)
            fired.update(session.rewrite(expr).saturation.applications_by_constraint)
        # (The transpose-aware rules match too; SystemML rules get there first.)
        assert {
            "morpheus-rowsums",
            "morpheus-colsums",
            "morpheus-sum",
            "morpheus-left-multiply",
            "morpheus-materialize",
        } <= set(fired)

    def test_fuzzed_expressions(self):
        """200 generated expressions over two generated catalogs with views."""
        checked = delta_matches = 0
        satisfied = Counter()
        for batch in range(2):
            catalog, inventory = generate_catalog(CatalogSpec(seed=20 + batch, dims=(2, 3, 5)))
            views = ExpressionGenerator(
                inventory, spawn_rng(20, batch, 1), max_depth=3
            ).generate_views(3)
            session = PlanSession(catalog, views=views)
            for index in range(100):
                expr = ExpressionGenerator(
                    inventory, spawn_rng(20, batch, 2, index), max_depth=4
                ).generate()
                try:
                    checker = _chase_checked(session, expr)
                except ChaseError as error:
                    # The rule set's known shape-soundness gap (see
                    # docs/testing.md): the chase itself refuses the merge.
                    assert "cannot merge classes" in str(error)
                    continue
                checked += 1
                delta_matches += checker.delta_matches
                satisfied.update(checker.satisfied)
        assert checked >= 190
        # The comparison is not vacuous: deltas matched, and both answers of
        # the conclusion test occurred.
        assert delta_matches > 0 and satisfied[True] > 0 and satisfied[False] > 0


# ---------------------------------------------------------------------------
# The three traps
# ---------------------------------------------------------------------------


class TestKernelTraps:
    def test_commuted_atom_alone_does_not_satisfy(self):
        """``add_m(A, B, R)`` and ``add_m(B, A, R)`` share a congruence key
        but are two atoms: the keyed test must confirm the stored one."""
        kernel = ConstraintKernel(tgd("add-commutes", "add_m(M, N, R) -> add_m(N, M, R)"))
        assert kernel.keyed
        instance = VremInstance()
        a, b = instance.new_class(), instance.new_class()
        (r,) = instance.add_op("add_m", (a, b))
        (match,) = kernel.full_matches(instance)
        assert match == (a, b, r)
        add_m = VREM_SCHEMA["add_m"]
        assert congruence_key(add_m, (b, a)) == congruence_key(add_m, (a, b))  # one key
        slots = kernel.slots_for(instance, match)
        missing = kernel.missing(instance, slots)
        assert missing == kernel.every_atom
        kernel.materialize(instance, slots, missing)
        assert instance.atom_count("add_m") == 2
        assert instance.same_class(r, next(iter(instance.atoms_with("add_m", 0, b))).args[2])
        for match in kernel.full_matches(instance):
            assert not kernel.missing(instance, kernel.slots_for(instance, match))

    def test_merged_away_class_is_canonicalised_before_keying(self):
        """Matches are collected before a batch is applied; an earlier
        application may merge away a class a later match still names."""
        kernel = ConstraintKernel(tgd("tr-back", "tr(M, R) -> tr(R, M)"))
        assert kernel.keyed
        instance = VremInstance()
        keep, a, b = (instance.new_class() for _ in range(3))
        instance.add_atom("tr", (a, b))
        instance.add_atom("tr", (b, a))
        assert (a, b) in kernel.full_matches(instance)
        instance.union(keep, b)
        instance.rebuild()
        assert instance.find(b) == keep and instance.stores("tr", (keep, a))
        slots = kernel.slots_for(instance, (a, b))
        assert slots == [a, keep]
        assert not kernel.missing(instance, slots)
        # Keyed on the retired id the probe finds nothing: the wrong answer.
        assert kernel.missing(instance, [a, b])

    def test_keyed_and_searched_split_is_pinned(self, benchkit):
        """A shipped rule that falls off the keyed fast path shows up here."""
        _, _, with_views = benchkit  # the planner's default program + the V_exp views
        tgds = [c for c in with_views.program.constraints if isinstance(c, TGD)]
        searched = [c.name for c in tgds if not kernel_for(c).keyed]
        assert (len(tgds) - len(searched), len(searched)) == (105, 12)
        assert all(name.startswith("view-oi:") for name in searched)
        # Rule sets the default program leaves out are keyed throughout.
        everything = default_constraints(include_decompositions=True, include_morpheus=True)
        assert all(kernel_for(c).keyed for c in everything if isinstance(c, TGD))


# ---------------------------------------------------------------------------
# Application asks the congruence table before it allocates
# ---------------------------------------------------------------------------


class TestHashConsedApplication:
    """An existential that is the output of an operation the instance
    already stores *is* that stored class: no fresh class to merge away."""

    def _apply_add_assoc(self, inner_stored: bool):
        """(M + N) + D, optionally beside a stored D + N — the rule's
        ``N + D`` with the operands swapped — then one application."""
        kernel = ConstraintKernel(
            tgd(
                "add-assoc-fwd",
                "add_m(M, N, R1) & add_m(R1, D, R2) -> add_m(N, D, R3) & add_m(M, R3, R2)",
            )
        )
        instance = VremInstance()
        m, n, d = (instance.new_class() for _ in range(3))
        (r1,) = instance.add_op("add_m", (m, n))
        (r2,) = instance.add_op("add_m", (r1, d))
        inner = instance.add_op("add_m", (d, n))[0] if inner_stored else None
        (match,) = kernel.full_matches(instance)
        assert match == (m, n, r1, d, r2)
        before = (instance._next_id, len(instance.relation_log("add_m")), instance.num_atoms())
        slots = kernel.slots_for(instance, match)
        missing = kernel.missing(instance, slots)
        assert missing == kernel.every_atom  # add_m(N, D, ·) is stored, if at all, as D + N
        assert kernel.new_shapes(instance, slots) == [None]  # the pruner's question
        kernel.materialize(instance, slots, missing)
        after = (instance._next_id, len(instance.relation_log("add_m")), instance.num_atoms())
        grown = tuple(b - a for a, b in zip(before, after))
        instance.check_invariants()
        assert not kernel.missing(instance, kernel.slots_for(instance, match))
        # No class was ever merged away, and nothing is waiting to be.
        assert instance.num_classes() == instance._next_id and not instance._pending_unions
        return instance, (m, n, d, r2, inner), grown

    def test_stored_operation_allocates_nothing_and_queues_no_union(self):
        instance, (m, n, d, r2, inner), grown = self._apply_add_assoc(True)
        # No class and no re-canonicalised atom: the log grew by the two
        # conclusion atoms alone.
        assert grown == (0, 2, 2)
        # Stored as D + N, asked for as N + D: same key, same output class.
        assert instance.stores("add_m", (n, d, inner)) and instance.stores("add_m", (d, n, inner))
        assert instance.stores("add_m", (m, inner, r2))

    def test_absent_operation_allocates_exactly_one_class(self):
        instance, (m, n, d, r2, _), grown = self._apply_add_assoc(False)
        assert grown == (1, 2, 2)
        fresh = instance._next_id - 1
        assert instance.stores("add_m", (n, d, fresh)) and instance.stores("add_m", (m, fresh, r2))

    def test_chained_existentials_resolve_as_far_as_the_instance_goes(self):
        """``tr(M, X) & inv_m(X, Y)``: X is stored, so it is reused and the
        probe for Y runs on it; Y is absent and the only fresh class."""
        kernel = ConstraintKernel(tgd("t", "inv_m(M, R) -> tr(M, X) & inv_m(X, Y) & tr(Y, Z)"))
        instance = VremInstance()
        m = instance.new_class()
        instance.add_op("inv_m", (m,))
        (x,) = instance.add_op("tr", (m,))
        (match,) = kernel.full_matches(instance)
        slots = kernel.slots_for(instance, match)
        missing = kernel.missing(instance, slots)
        assert slots[kernel.n_premise:] == [x, None, None]
        # tr(M, X) is stored: only the other two conclusion atoms are missing.
        assert missing == 0b110
        first_fresh = instance._next_id
        added = []
        add_atom = instance.add_atom
        instance.add_atom = lambda relation, args: added.append(relation) or add_atom(relation, args)
        kernel.materialize(instance, slots, missing)
        assert added == ["inv_m", "tr"]
        assert slots[kernel.n_premise:] == [x, first_fresh, first_fresh + 1]
        assert instance._next_id == first_fresh + 2
        assert instance.num_classes() == instance._next_id  # nothing was merged away

    def test_searched_conclusion_stays_all_fresh(self):
        """The failed search's scratch bindings are not resolved classes."""
        kernel = ConstraintKernel(
            tgd("view-oi:like", 'tr(M, R) -> name(V, "V") & tr(V, W) & tr(W, R)')
        )
        assert not kernel.keyed
        instance = VremInstance()
        m, v = instance.new_class(), instance.new_class()
        instance.add_op("tr", (m,))
        instance.add_atom("name", (v, Const("V")))
        (w,) = instance.add_op("tr", (v,))  # so the search binds V and W, then fails
        match = next(found for found in kernel.full_matches(instance) if found[0] == m)
        slots = kernel.slots_for(instance, match)
        missing = kernel.missing(instance, slots)
        assert missing == kernel.every_atom  # a searched conclusion is missing as a whole
        first_fresh = instance._next_id
        kernel.materialize(instance, slots, missing)
        assert slots[kernel.n_premise:] == [first_fresh, first_fresh + 1]
        instance.check_invariants()

    @pytest.mark.parametrize("name", ["P2.17", "P2.21"])
    def test_congruence_closed_after_every_round(self, benchkit, name):
        """The two pipelines whose applications used to be merge-and-repair,
        under both programs, checked at every round the hook sees."""
        roles, plain, with_views = benchkit
        for session in (plain, with_views):
            ctx = PlanContext(session=session, expr=build_pipeline(name, roles))
            session.stages[0].run(ctx)
            rounds = []

            def check(instance: VremInstance) -> None:
                instance.check_invariants()
                rounds.append(instance.num_atoms())

            pruner = CostThresholdPruner(max(ctx.original_cost * THRESHOLD_SLACK, THRESHOLD_FLOOR))
            stats = session.engine.saturate(ctx.instance, pruner, check)
            ctx.instance.check_invariants()
            assert len(rounds) >= 3 and rounds == sorted(rounds)
            # Non-vacuity: a run big enough that the scheduler benched a rule
            # (which is what holds P2.21 to ~95-104 applications, seed by seed).
            assert stats.tgd_applications > 50 and stats.rules_benched >= 1


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


class TestCompilation:
    def test_kernel_is_built_once_per_constraint_object(self):
        rule = default_constraints()[0]
        assert kernel_for(rule) is kernel_for(default_constraints()[0])
        program = ConstraintProgram(default_constraints())
        assert program.compiled[0].kernel is kernel_for(rule)
        # The cache is no part of the constraint's value.
        assert "_kernel" not in repr(rule) and rule == dataclasses.replace(rule)

    def test_shipped_rules_are_parsed_once_per_process(self):
        first, second = default_constraints(), default_constraints()
        assert first is not second and all(a is b for a, b in zip(first, second))
        extra = tgd("extra", "tr(M, R) -> tr(M, R)")
        assert default_constraints(extra=[extra])[-1] is extra
        assert len(default_constraints()) == len(first)

    def test_uncompilable_constraints_are_refused_by_name(self):
        with pytest.raises(ChaseError, match="'bad'.*size needs a variable subject"):
            ConstraintKernel(TGD("bad", (Atom("size", (Const("M"), Var("k"), Var("z"))),)))
        with pytest.raises(ChaseError, match="'bad'.*cannot compile term 7"):
            ConstraintKernel(TGD("bad", (Atom("tr", (7, Var("r"))),)))
        with pytest.raises(ChaseError, match="'bad' has an empty premise"):
            ConstraintKernel(TGD("bad", ()))

    def test_masks_compile_only_when_a_search_reaches_them(self):
        """A 20-atom chain would tabulate 2^20 masks up front; built on
        demand it holds mask 0 and, after a search, only the masks reached."""
        chain = [Atom("tr", (Var(f"x{i}"), Var(f"x{i + 1}"))) for i in range(20)]
        join = JoinKernel(chain, {Var(f"x{i}"): i for i in range(21)})
        assert list(join._table) == [0]
        instance = VremInstance()
        classes = [instance.new_class() for _ in range(21)]
        for source, target in zip(classes, classes[1:]):
            instance.add_atom("tr", (source, target))
        out = []
        join.search(instance, [None] * 21, out)
        assert out == [tuple(classes)]
        # The chain is matched from its head, one atom per search node.
        assert sorted(join._table) == [(1 << k) - 1 for k in range(20)]

    def test_a_malformed_atom_fails_at_construction_wherever_it_sits(self):
        chain = [Atom("tr", (Var(f"x{i}"), Var(f"x{i + 1}"))) for i in range(12)]
        chain.append(Atom("tr", (Var("x12"), 7)))
        with pytest.raises(ChaseError, match="cannot compile term 7"):
            JoinKernel(chain, {Var(f"x{i}"): i for i in range(13)})

    def test_prebound_slots_restrict_the_search(self):
        instance = VremInstance()
        a, b, c = (instance.new_class() for _ in range(3))
        instance.add_atom("tr", (a, b))
        pattern = [Atom("tr", (Var("x"), Var("y")))]
        join = JoinKernel(pattern, {Var("x"): 0, Var("y"): 1}, prebound=[0])
        assert join.search(instance, [a, None], None)
        assert not join.search(instance, [c, None], None)


# ---------------------------------------------------------------------------
# The congruence table stays complete on the chase-bound pipelines
# ---------------------------------------------------------------------------


class TestCongruenceClosure:
    @pytest.mark.parametrize("name", ["P2.17", "P2.21"])
    def test_saturated_instance_is_congruence_closed(self, benchkit, name):
        """These two merge classes whose atoms re-canonicalise onto atoms
        already stored — the path that used to drop congruence entries."""
        roles, plain, with_views = benchkit
        for session in (plain, with_views):
            ctx = PlanContext(session=session, expr=build_pipeline(name, roles))
            for stage in session.stages[:2]:
                stage.run(ctx)
            ctx.instance.check_invariants()

    def test_check_invariants_sees_a_lost_entry_and_a_missed_merge(self):
        instance = VremInstance()
        a, b = instance.new_class(), instance.new_class()
        (r,) = instance.add_op("tr", (a,))
        instance.check_invariants()
        del instance._congruence[("tr", (a,))]
        with pytest.raises(ChaseError, match="no live congruence entry"):
            instance.check_invariants()
        instance.add_atom("tr", (a, b))  # registers itself: r and b never merge
        with pytest.raises(ChaseError, match="agree on their inputs but not their outputs"):
            instance.check_invariants()
        assert not instance.same_class(r, b)

    def test_check_invariants_cross_checks_the_atom_table_and_its_indexes(self):
        instance = VremInstance()
        a = instance.new_class()
        (r,) = instance.add_op("tr", (a,))
        (atom,) = instance.atoms("tr")
        instance.check_invariants()
        instance._by_position[("tr", 1, r)].discard(atom)
        with pytest.raises(ChaseError, match="missing from an index"):
            instance.check_invariants()
        instance._by_position[("tr", 1, r)].add(atom)
        instance.check_invariants()
        ghost = Atom("tr", (r, a))
        instance._by_relation["tr"].add(ghost)
        with pytest.raises(ChaseError, match="is not stored"):
            instance.check_invariants()
