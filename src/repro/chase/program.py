"""Compiled constraint programs: the chase's reusable, indexed form.

A :class:`ConstraintProgram` is built **once** per optimizer / plan session
from a constraint list and reused across every saturation run.  Compilation
does three things:

* validates the set (unique names, safe EGD conclusions) up front, so the
  per-rewrite path never re-checks;
* records, per constraint, its *trigger relations* — the relations its
  premise joins over — plus whether the premise consults ``size`` (shape
  metadata rather than stored atoms);
* partitions constraints by kind (TGD / EGD) while preserving the original
  application order, which the engine relies on for deterministic results.

Each constraint's match / test / apply kernel (:mod:`repro.chase.kernel`)
is compiled lazily, on the constraint's first attempt, and lives on the
constraint object rather than in the program: building a program stays a
fraction of a millisecond, and the shipped rules compile once per process.

The trigger metadata is what makes the chase semi-naive: the engine visits
only the constraints :meth:`ConstraintProgram.armed` lists (memoised per set
of populated relations, the program's one piece of derived state), keeps per
constraint watermarks into its trigger relations' delta logs
(:meth:`repro.vrem.instance.VremInstance.relation_log`), skips one while none
grew — most constraints, most rounds — and otherwise searches only the delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.chase.kernel import ConstraintKernel, kernel_for
from repro.constraints.core import Constraint, TGD, validate_constraints

#: Relations matched against per-class metadata instead of stored atoms.
_METADATA_RELATIONS = frozenset({"size"})


@dataclass(frozen=True)
class CompiledConstraint:
    """One constraint plus its precomputed trigger metadata."""

    constraint: Constraint
    #: Premise relations backed by stored atoms (joins over these can only
    #: change when the relations' atom sets change).
    trigger_relations: Tuple[str, ...]
    #: Whether the premise consults shape metadata (``size`` atoms).
    uses_shapes: bool
    is_tgd: bool

    @property
    def name(self) -> str:
        return self.constraint.name

    @cached_property
    def kernel(self) -> ConstraintKernel:
        """The constraint's compiled match / test / apply form, built on the
        first attempt and shared through the constraint object."""
        return kernel_for(self.constraint)


class ConstraintProgram:
    """An ordered constraint set compiled for repeated, indexed saturation."""

    def __init__(self, constraints: Sequence[Constraint], validate: bool = True):
        if validate:
            validate_constraints(constraints)
        self.constraints: List[Constraint] = list(constraints)
        self.compiled: List[CompiledConstraint] = [
            self._compile(constraint) for constraint in self.constraints
        ]
        self._armed: Dict[FrozenSet[str], Tuple[int, ...]] = {}

    @staticmethod
    def _compile(constraint: Constraint) -> CompiledConstraint:
        premise_relations = constraint.premise_relations()
        triggers = tuple(
            relation for relation in premise_relations if relation not in _METADATA_RELATIONS
        )
        return CompiledConstraint(
            constraint=constraint,
            trigger_relations=triggers,
            uses_shapes=any(r in _METADATA_RELATIONS for r in premise_relations),
            is_tgd=isinstance(constraint, TGD),
        )

    def __len__(self) -> int:
        return len(self.constraints)

    def armed(self, populated: FrozenSet[str]) -> Tuple[int, ...]:
        """The positions, in program order, whose trigger relations all hold
        atoms when the relations in ``populated`` do; memoised per set.

        Sessions are shared across threads: two threads racing here compute
        equal tuples and one store wins; both are valid.
        """
        armed = self._armed.get(populated)
        if armed is None:
            armed = self._armed[populated] = tuple(
                position for position, compiled in enumerate(self.compiled)
                if populated.issuperset(compiled.trigger_relations))
        return armed

    def verify(self, name: str = "program"):
        """Static verification findings for this program.

        Runs the full :mod:`repro.analysis.verifier` battery — safety,
        trigger completeness, commutativity soundness, weak acyclicity —
        and returns the list of :class:`repro.analysis.findings.Finding`.
        Imported lazily so the chase layer carries no analysis dependency
        unless verification is actually requested.
        """
        from repro.analysis.verifier import verify_program

        return verify_program(self, name)

    def extended(self, extra: Sequence[Constraint]) -> "ConstraintProgram":
        """A new program with ``extra`` constraints appended (e.g. view rules)."""
        if not extra:
            return self
        return ConstraintProgram(self.constraints + list(extra))

    @classmethod
    def coerce(
        cls, constraints: "Optional[Sequence[Constraint] | ConstraintProgram]"
    ) -> "ConstraintProgram":
        """Wrap a plain constraint list, passing compiled programs through."""
        if isinstance(constraints, ConstraintProgram):
            return constraints
        # Engine callers historically pass unvalidated ad-hoc lists (tests,
        # notebooks); keep that path lenient.
        return cls(constraints or (), validate=False)


__all__ = ["CompiledConstraint", "ConstraintProgram"]
