"""Constraint objects (TGDs and EGDs) and the textual DSL used to write them.

A constraint is written as ``premise -> conclusion`` where both sides are
``&``-separated atoms.  Inside an atom, arguments are separated by commas;
an argument is

* a **constant** when it is quoted (``"M.csv"``, ``"S"``) or numeric (``1``),
* a **variable** otherwise (``M``, ``R1``).

For a TGD, conclusion variables that do not occur in the premise are
existentially quantified.  For an EGD, the conclusion is a conjunction of
equalities ``x = y`` between premise variables (or a variable and a numeric
constant).

Example — commutativity of addition (TGD 1 of Figure 2)::

    tgd("add-commutes", "add_m(M, N, R) -> add_m(N, M, R)")

Example — a two-way law, one TGD per direction (``-fwd`` / ``-rev``)::

    equation("tr-add", "add_m(M, N, R1) & tr(R1, R2)",
             "tr(M, R3) & tr(N, R4) & add_m(R3, R4, R2)")

Example — the key constraint on names (I_name of §6.2.1)::

    egd("name-key", "name(M, n) & name(N, n) -> M = N")
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.exceptions import ChaseError
from repro.vrem.atoms import Atom, Const, Var
from repro.vrem.schema import VREM_SCHEMA

_ATOM_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)\s*\(([^()]*)\)\s*")
_EQUALITY_RE = re.compile(r"\s*([A-Za-z_0-9.\"']+)\s*=\s*([A-Za-z_0-9.\"']+)\s*")


def _parse_term(token: str):
    token = token.strip()
    if not token:
        raise ChaseError("empty term in constraint atom")
    if token[0] in "\"'" and token[-1] in "\"'":
        return Const(token[1:-1])
    try:
        value = float(token)
        return Const(int(value) if value.is_integer() else value)
    except ValueError:
        return Var(token)


def parse_atoms(text: str) -> Tuple[Atom, ...]:
    """Parse an ``&``-separated conjunction of atoms."""
    atoms: List[Atom] = []
    for part in text.split("&"):
        part = part.strip()
        if not part:
            continue
        match = _ATOM_RE.fullmatch(part)
        if not match:
            raise ChaseError(f"cannot parse constraint atom {part!r}")
        relation, arg_text = match.group(1), match.group(2)
        if relation not in VREM_SCHEMA:
            raise ChaseError(f"unknown relation {relation!r} in constraint atom {part!r}")
        args = tuple(_parse_term(token) for token in arg_text.split(","))
        if len(args) != VREM_SCHEMA[relation].arity:
            raise ChaseError(
                f"relation {relation!r} has arity {VREM_SCHEMA[relation].arity}, "
                f"got {len(args)} arguments in {part!r}"
            )
        atoms.append(Atom(relation, args))
    if not atoms:
        raise ChaseError("constraint side cannot be empty")
    return tuple(atoms)


def _parse_equalities(text: str) -> Tuple[Tuple[object, object], ...]:
    equalities = []
    for part in text.split("&"):
        part = part.strip()
        if not part:
            continue
        match = _EQUALITY_RE.fullmatch(part)
        if not match:
            raise ChaseError(f"cannot parse EGD equality {part!r}")
        equalities.append((_parse_term(match.group(1)), _parse_term(match.group(2))))
    if not equalities:
        raise ChaseError("EGD conclusion cannot be empty")
    return tuple(equalities)


@dataclass(frozen=True)
class Constraint:
    """Common base of TGDs and EGDs."""

    name: str
    premise: Tuple[Atom, ...]

    def premise_variables(self) -> Tuple[Var, ...]:
        seen = []
        for atom in self.premise:
            for var in atom.variables():
                if var not in seen:
                    seen.append(var)
        return tuple(seen)

    def premise_relations(self) -> Tuple[str, ...]:
        """Relation names the premise joins over, in first-occurrence order.

        These are the constraint's *trigger relations*: a saturation round
        can only produce new matches for this constraint when at least one
        of them gained atoms (or was re-canonicalised) since the constraint
        was last attempted.  ``size`` is included; callers that track shape
        metadata separately should treat it specially.
        """
        seen: List[str] = []
        for atom in self.premise:
            if atom.relation not in seen:
                seen.append(atom.relation)
        return tuple(seen)


@dataclass(frozen=True)
class TGD(Constraint):
    """A tuple-generating dependency ``∀x̄ φ(x̄) → ∃z̄ ψ(x̄, z̄)``."""

    conclusion: Tuple[Atom, ...] = field(default=())

    def existential_variables(self) -> Tuple[Var, ...]:
        premise_vars = set(self.premise_variables())
        seen = []
        for atom in self.conclusion:
            for var in atom.variables():
                if var not in premise_vars and var not in seen:
                    seen.append(var)
        return tuple(seen)


@dataclass(frozen=True)
class EGD(Constraint):
    """An equality-generating dependency ``∀x̄ φ(x̄) → w = w'``."""

    equalities: Tuple[Tuple[object, object], ...] = field(default=())


def tgd(name: str, text: str) -> TGD:
    """Build a TGD from its textual form ``premise -> conclusion``."""
    try:
        premise_text, conclusion_text = text.split("->")
    except ValueError as exc:
        raise ChaseError(f"TGD {name!r} must contain exactly one '->'") from exc
    return TGD(name=name, premise=parse_atoms(premise_text), conclusion=parse_atoms(conclusion_text))


def equation(name: str, lhs: str, rhs: str) -> List[TGD]:
    """A two-way law ``lhs = rhs`` as its two chase directions, named
    ``{name}-fwd`` (``lhs -> rhs``) and ``{name}-rev`` (``rhs -> lhs``)."""
    return [tgd(f"{name}-fwd", f"{lhs} -> {rhs}"), tgd(f"{name}-rev", f"{rhs} -> {lhs}")]


def egd(name: str, text: str) -> EGD:
    """Build an EGD from its textual form ``premise -> x = y [& ...]``."""
    try:
        premise_text, conclusion_text = text.split("->")
    except ValueError as exc:
        raise ChaseError(f"EGD {name!r} must contain exactly one '->'") from exc
    return EGD(
        name=name,
        premise=parse_atoms(premise_text),
        equalities=_parse_equalities(conclusion_text),
    )


def validate_constraints(constraints: Sequence[Constraint]) -> None:
    """Sanity-check a constraint set (unique names, safe conclusions)."""
    names = set()
    for constraint in constraints:
        if constraint.name in names:
            raise ChaseError(f"duplicate constraint name {constraint.name!r}")
        names.add(constraint.name)
        if isinstance(constraint, EGD):
            premise_vars = set(constraint.premise_variables())
            for left, right in constraint.equalities:
                for side in (left, right):
                    if isinstance(side, Var) and side not in premise_vars:
                        raise ChaseError(
                            f"EGD {constraint.name!r} equates unbound variable {side!r}"
                        )
