"""Saturation of the VREM encoding under MMC / view constraints.

This is the chase of §6.3 as extended by §7.3 (PACB++ / Prune_prov):

* TGDs are applied with the *standard-chase* applicability test — a premise
  match only triggers an application when no extension of the match already
  satisfies the conclusion — so terminating constraint sets reach a fixpoint;
* EGDs merge equivalence classes (or assign known scalar constants);
* an optional :class:`CostThresholdPruner` refuses applications that would
  materialise a new intermediate class whose estimated size already exceeds
  the cost threshold (the cost of the best rewriting found so far — initially
  the cost of the original expression), exactly the pruning of Example 7.2;
* hard budgets on rounds, atoms and classes bound the work even for
  non-terminating constraint sets.

There is one production engine: serial, trigger-indexed and semi-naive.
A round visits only the *armed* constraints, whose trigger relations all
hold atoms (:meth:`~repro.chase.program.ConstraintProgram.armed`),
re-reading the list whenever a relation gets its first atom, so each rule
runs in the round and order of a walk over all.  It still skips one when
*dormant* — attempted before, and none of its trigger relations' delta logs
(nor, if it reads ``size``, the shape log) grew past its watermarks.
``constraints_skipped`` counts the unarmed, the dormant and (below) rules
serving a ban.  A re-attempted constraint only searches for matches that
touch the *delta* — the atoms added or re-canonicalised (and classes newly
shaped) since its previous attempt, read off the instance's append-only
delta logs.  Anything else was already found, applied, satisfied, or pruned
last time; the chase is monotone, so none of those outcomes can revert.
Matching, the conclusion test and the application all run on each
constraint's compiled form (:mod:`repro.chase.kernel`).

A round is cascaded — each constraint matches against what the ones before
it added in the same round — so a few mutually feeding TGDs (associativity,
``inv`` / ``tr`` over a product) can flood the last round long after the
plan is found.  The production engine therefore runs egg's *back-off
scheduler*: a TGD attempt with more premise matches than ``BENCH_MATCH_LIMIT
<< times_benched`` is *benched* — none is applied, the rule sits out the
next ``BENCH_ROUNDS << times_benched`` rounds, ``rules_benched`` counts it.
Watermarks are taken when matches are about to be applied, so a benched
attempt leaves them where they were and the next one searches the same delta
plus what accrued: no match is lost, only deferred.  EGDs are never benched
(they only merge).  A round in which a rule was benched or sat out a ban is
not a fixpoint; if it changed nothing else the bans are lifted (egg's
``can_stop``) and the loop goes on, so ``reached_fixpoint`` still means that
no constraint has an unapplied match.

``SaturationEngine(..., use_index=False)`` is the *reference* engine the
tests compare against on all 57 pipelines: the same loop with every position
armed, so every constraint is attempted every round by a full search,
nothing is ever benched, and both the premise match and the conclusion test
go through the generic linear-scan matcher of
:mod:`repro.chase.homomorphism`; it shares the kernel's application alone,
class ids included.  It reaches the same plans, only slower; on an op where
a rule is benched neither engine reaches a fixpoint inside the budget.

The saturated instance is then handed to the extraction step
(:mod:`repro.core.extraction`), which plays the role of the provenance-based
enumeration of minimal rewritings.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.constraints.core import Constraint, TGD
from repro.chase.homomorphism import find_instance_matches, is_satisfied
from repro.chase.kernel import ConstraintKernel, Match
from repro.chase.program import CompiledConstraint, ConstraintProgram
from repro.exceptions import ChaseBudgetExceeded, ChaseError
from repro.vrem.atoms import Atom, Const
from repro.vrem.instance import VremInstance

Shape = Tuple[int, int]

#: Back-off scheduler: a TGD attempt yielding more premise matches than
#: ``BENCH_MATCH_LIMIT << times_benched`` is benched, not applied, and the
#: rule sits out the next ``BENCH_ROUNDS << times_benched`` rounds.
BENCH_MATCH_LIMIT = 100
BENCH_ROUNDS = 1


class CostThresholdPruner:
    """Prune_prov-style pruning: drop derivations above a cost threshold.

    ``threshold`` is an upper bound on the total cost of an acceptable
    rewriting, measured (like the cost model of §7.1) in number of cells of
    intermediate results.  A chase step that would create a *new* matrix
    intermediate whose dense size alone exceeds the threshold can never be
    part of a minimum-cost rewriting and is skipped.

    The threshold is not static: as the saturation loop discovers cheaper
    rewritings of the root, :meth:`tighten` lowers it monotonically, so later
    rounds prune even derivations that were admissible against the original
    plan's cost.  ``pruned_by_tightening`` counts the applications rejected
    *only* because of tightening (i.e. the initial threshold would still have
    admitted them) — the extra pruning the dynamic bound buys.

    Instances are safe to share across concurrently-planning sessions: the
    check-then-write in :meth:`tighten` (and the counter bumps in
    :meth:`record_pruned`) happen under a lock, so two sessions tightening
    at once can never regress the threshold upward or lose counter
    increments.  ``allows`` / ``allowed_initially`` read a single attribute
    (an atomic read) and stay lock-free on the hot path.
    """

    def __init__(self, threshold: float):
        self.threshold = float(threshold)
        self.initial_threshold = self.threshold
        self.pruned_applications = 0
        self.pruned_by_tightening = 0
        self.tightenings = 0
        self._lock = threading.Lock()

    def allows(self, shape: Optional[Shape]) -> bool:
        """Whether an intermediate of the given shape may be materialised."""
        if shape is None:
            return True
        return float(shape[0]) * float(shape[1]) <= self.threshold

    def allowed_initially(self, shape: Optional[Shape]) -> bool:
        """Whether the *initial* (un-tightened) threshold would admit ``shape``."""
        if shape is None:
            return True
        return float(shape[0]) * float(shape[1]) <= self.initial_threshold

    def tighten(self, new_threshold: float) -> None:
        """Lower the threshold (monotonically) as better rewritings are found."""
        new_threshold = float(new_threshold)
        with self._lock:
            if new_threshold < self.threshold:
                self.threshold = new_threshold
                self.tightenings += 1

    def record_pruned(self, by_tightening: bool) -> None:
        """Count one pruned application (thread-safely)."""
        with self._lock:
            self.pruned_applications += 1
            if by_tightening:
                self.pruned_by_tightening += 1


@dataclass
class SaturationResult:
    """Statistics of one saturation run."""

    rounds: int = 0
    tgd_applications: int = 0
    egd_applications: int = 0
    pruned_applications: int = 0
    reached_fixpoint: bool = False
    elapsed_seconds: float = 0.0
    atom_count: int = 0
    class_count: int = 0
    applications_by_constraint: Dict[str, int] = field(default_factory=dict)
    #: Applications rejected only because the threshold was tightened
    #: mid-saturation (the initial threshold would have admitted them).
    pruned_by_tightening: int = 0
    #: How many times the pruner's threshold actually dropped.
    threshold_tightenings: int = 0
    #: Constraint attempts skipped without a search: a premise relation is
    #: empty, none changed since the last attempt, or the rule serves a ban.
    constraints_skipped: int = 0
    #: The pruner's threshold when saturation finished (None without pruning).
    final_threshold: Optional[float] = None
    #: Premise bindings considered across all constraint attempts (the raw
    #: volume the homomorphism search produced; semi-naive matching shrinks
    #: this without changing the fixpoint).
    matches_attempted: int = 0
    #: Net new atoms created by TGD applications.
    atoms_materialized: int = 0
    #: Constraint attempts that searched only the delta (semi-naive) rather
    #: than the full instance.
    delta_attempts: int = 0
    #: TGD attempts the back-off scheduler benched: their matches exceeded
    #: the rule's current limit and none of them was applied.
    rules_benched: int = 0


class SaturationEngine:
    """Applies a constraint set to a VREM instance until fixpoint or budget.

    The constraint set may be given as a plain sequence (compiled on the
    spot) or as a precompiled :class:`~repro.chase.program.ConstraintProgram`
    shared across many saturation runs — the planner's
    :class:`~repro.planner.session.PlanSession` does the latter, so the
    per-rewrite path never re-analyses the constraints.

    ``use_index=True`` (the default) is the production engine;
    ``use_index=False`` builds the reference engine of the module docstring:
    exhaustive search, no scheduler, the same plans.
    """

    def __init__(
        self,
        constraints: Union[Sequence[Constraint], ConstraintProgram],
        max_rounds: int = 6,
        max_atoms: int = 20_000,
        max_classes: int = 8_000,
        raise_on_budget: bool = False,
        use_index: bool = True,
    ):
        self.program = ConstraintProgram.coerce(constraints)
        self.max_rounds = max_rounds
        self.max_atoms = max_atoms
        self.max_classes = max_classes
        self.raise_on_budget = raise_on_budget
        self.use_index = use_index

    # ------------------------------------------------------------------ TGDs
    def _apply_tgd_matches(
        self,
        kernel: ConstraintKernel,
        instance: VremInstance,
        pruner: Optional[CostThresholdPruner],
        stats: SaturationResult,
        matches: Iterable[Match],
    ) -> int:
        """Apply the premise matches that are not yet satisfied or pruned."""
        tgd = kernel.constraint
        assert isinstance(tgd, TGD)
        applications = 0
        for match in matches:
            stats.matches_attempted += 1
            slots = kernel.slots_for(instance, match)
            # Both engines take the kernel's resolved existentials (and so
            # allocate the same class ids); the reference takes only those,
            # decides by its own search and adds the whole conclusion.
            missing = kernel.missing(instance, slots)
            if not self.use_index:
                missing = 0 if is_satisfied(
                    tgd.conclusion, instance, dict(zip(kernel.premise_vars, slots))
                ) else kernel.every_atom
            if not missing:
                continue
            if pruner is not None:
                new_shapes = kernel.new_shapes(instance, slots)
                blocked = [shape for shape in new_shapes if not pruner.allows(shape)]
                if blocked:
                    by_tightening = all(
                        pruner.allowed_initially(shape) for shape in blocked
                    )
                    pruner.record_pruned(by_tightening)
                    stats.pruned_applications += 1
                    if by_tightening:
                        stats.pruned_by_tightening += 1
                    continue
            before = instance.num_atoms()
            kernel.materialize(instance, slots, missing)
            grown = instance.num_atoms() - before
            if grown > 0:
                stats.atoms_materialized += grown
            applications += 1
            stats.applications_by_constraint[tgd.name] = (
                stats.applications_by_constraint.get(tgd.name, 0) + 1
            )
            if instance.num_atoms() > self.max_atoms or instance.num_classes() > self.max_classes:
                break
        return applications

    # ------------------------------------------------------------------ EGDs
    def _scalar_const_class(self, instance: VremInstance, value: float) -> int:
        for atom in instance.atoms("scalar_const"):
            if atom.args[1] == Const(value) or atom.args[1] == Const(float(value)):
                return instance.find(atom.args[0])
        cid = instance.new_class()
        instance.add_atom("scalar_const", (cid, Const(float(value))))
        instance.set_shape(cid, (1, 1))
        return cid

    def _apply_egd_matches(
        self,
        kernel: ConstraintKernel,
        instance: VremInstance,
        stats: SaturationResult,
        matches: Iterable[Match],
    ) -> int:
        egd = kernel.constraint
        applications = 0
        for match in matches:
            stats.matches_attempted += 1
            for (left_slot, left_const), (right_slot, right_const) in kernel.equalities:
                left_value = match[left_slot] if left_slot >= 0 else left_const
                right_value = match[right_slot] if right_slot >= 0 else right_const
                if isinstance(left_value, Const) and not isinstance(right_value, Const):
                    left_value, right_value = right_value, left_value
                if isinstance(left_value, int) and isinstance(right_value, int):
                    if instance.find(left_value) != instance.find(right_value):
                        instance.union(left_value, right_value)
                        instance.rebuild()
                        applications += 1
                elif isinstance(left_value, int) and isinstance(right_value, Const):
                    value = right_value.value
                    if isinstance(value, (int, float)):
                        const_class = self._scalar_const_class(instance, float(value))
                        if instance.find(left_value) != instance.find(const_class):
                            instance.union(left_value, const_class)
                            instance.rebuild()
                            applications += 1
                elif isinstance(left_value, Const) and isinstance(right_value, Const):
                    if left_value.value != right_value.value:
                        raise ChaseError(
                            f"EGD {egd.name!r} equates distinct constants "
                            f"{left_value.value!r} and {right_value.value!r}"
                        )
        if applications:
            stats.applications_by_constraint[egd.name] = (
                stats.applications_by_constraint.get(egd.name, 0) + applications
            )
        return applications

    # ------------------------------------------------------------------ main loop
    def saturate(
        self,
        instance: VremInstance,
        pruner: Optional[CostThresholdPruner] = None,
        tighten: Optional[Callable[[VremInstance], Optional[float]]] = None,
    ) -> SaturationResult:
        """Chase ``instance`` with the engine's constraints.

        ``tighten``, when given alongside a pruner, is called after every
        round that changed the instance; it should return the cost bound of
        the best rewriting currently extractable (or None when unknown), and
        the pruner's threshold is lowered to it — the dynamic Prune_prov
        bound of §7.3.
        """
        stats = SaturationResult()
        start = time.perf_counter()
        # Semi-naive watermarks: how far into the instance's delta logs each
        # constraint position has searched (absent: never attempted).  Keyed
        # by position, not name: ad-hoc constraint lists may carry duplicate
        # names, and collapsing them here would skip real work.
        delta_marks: Dict[int, Dict[str, int]] = {}
        shape_marks: Dict[int, int] = {}
        # Back-off scheduler, by position: benchings so far, first round back.
        times_benched: Dict[int, int] = {}
        banned_until: Dict[int, int] = {}

        def finish() -> SaturationResult:
            stats.elapsed_seconds = time.perf_counter() - start
            stats.atom_count = instance.num_atoms()
            stats.class_count = instance.num_classes()
            if pruner is not None:
                stats.final_threshold = pruner.threshold
                stats.threshold_tightenings = pruner.tightenings
            return stats

        def collect_matches(compiled: CompiledConstraint, position: int) -> Optional[List[Match]]:
            """The premise matches this attempt has to look at, or None when
            the constraint is dormant: attempted before, and no log it reads
            grew past its watermarks, so there is nothing it has not seen."""
            kernel = compiled.kernel
            if not self.use_index:
                # The reference engine: the generic matcher, linear scans.
                return [
                    tuple(binding[var] for var in kernel.premise_vars)
                    for binding in find_instance_matches(kernel.constraint.premise, instance)
                ]
            if position not in delta_marks:
                return kernel.full_matches(instance)
            marks = delta_marks[position]
            delta: Dict[str, List[Atom]] = {}
            delta_size = 0
            total_size = 0
            for relation in compiled.trigger_relations:
                log = instance.relation_log(relation)
                total_size += instance.atom_count(relation)
                if marks[relation] < len(log):
                    delta[relation] = log[marks[relation] :]
                    delta_size += len(delta[relation])
            shaped: List[int] = []
            if compiled.uses_shapes:
                shaped = instance.shape_log()[shape_marks[position] :]
                delta_size += len(shaped)
                total_size += instance.shaped_class_count()
            if delta_size == 0:
                return None
            if delta_size * 4 > total_size:
                # Seeding a search per delta atom costs more than one full
                # search unless the delta is selective (the late rounds).
                return kernel.full_matches(instance)
            stats.delta_attempts += 1
            return kernel.delta_matches(instance, delta, shaped)

        def consume_logs(compiled: CompiledConstraint, position: int) -> None:
            """Pre-application watermarks: what this very constraint now adds
            lands past them (re-queueing a recursive rule); a benched attempt
            never gets here, so its delta is searched again."""
            delta_marks[position] = {
                relation: len(instance.relation_log(relation))
                for relation in compiled.trigger_relations
            }
            shape_marks[position] = len(instance.shape_log())

        def apply_matches(compiled: CompiledConstraint, matches: List[Match]) -> int:
            if compiled.is_tgd:
                applications = self._apply_tgd_matches(
                    compiled.kernel, instance, pruner, stats, matches
                )
                stats.tgd_applications += applications
            else:
                applications = self._apply_egd_matches(
                    compiled.kernel, instance, stats, matches
                )
                stats.egd_applications += applications
            return applications

        every_position = tuple(range(len(self.program)))

        def armed_positions() -> Tuple[int, ...]:
            return self.program.armed(instance.populated) if self.use_index else every_position

        for round_index in range(self.max_rounds):
            stats.rounds = round_index + 1
            changed = 0
            held = False  # a rule was benched or sat out a ban: matches are owed
            populated = instance.populated
            armed = armed_positions()
            index, previous = 0, -1
            while index < len(armed):
                position = armed[index]
                index += 1
                # Positions passed over are unarmed: nothing can match them.
                stats.constraints_skipped += position - previous - 1
                previous = position
                compiled = self.program.compiled[position]
                if banned_until.get(position, 0) > round_index:  # serving a ban
                    held = True
                    stats.constraints_skipped += 1
                    continue
                matches = collect_matches(compiled, position)
                if matches is None:
                    stats.constraints_skipped += 1
                    continue
                if self.use_index:
                    benched = times_benched.get(position, 0)
                    if compiled.is_tgd and len(matches) > BENCH_MATCH_LIMIT << benched:
                        times_benched[position] = benched + 1
                        banned_until[position] = round_index + 1 + (BENCH_ROUNDS << benched)
                        stats.rules_benched += 1
                        held = True
                        continue
                    consume_logs(compiled, position)
                changed += apply_matches(compiled, matches)
                if (instance.num_atoms() > self.max_atoms
                        or instance.num_classes() > self.max_classes):
                    if self.raise_on_budget:
                        raise ChaseBudgetExceeded(
                            f"saturation exceeded budget: atoms={instance.num_atoms()}, "
                            f"classes={instance.num_classes()}"
                        )
                    return finish()
                if instance.populated is not populated:
                    # Rules a new relation arms later in this round still run.
                    populated = instance.populated
                    armed = armed_positions()
                    index = bisect_right(armed, position)
            stats.constraints_skipped += len(every_position) - previous - 1
            if changed == 0:
                if not held:
                    stats.reached_fixpoint = True
                    break
                banned_until.clear()  # only banned rules have work left
                continue
            if tighten is not None and pruner is not None:
                bound = tighten(instance)
                if bound is not None:
                    pruner.tighten(bound)
        return finish()
