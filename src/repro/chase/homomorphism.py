"""Homomorphism search: matching constraint premises against a VREM instance.

A *match* (containment mapping) binds the variables of a conjunction of
non-ground atoms to terms of the instance — class IDs or constants — such
that every atom becomes an atom of the instance.  This is the work-horse of
both the chase (finding where a constraint premise applies) and the standard
chase termination check (is the conclusion already satisfied?).

The ``size`` relation gets special treatment: ``size(M, k, z)`` atoms are not
stored in the instance (shapes are per-class metadata), so a size atom
matches when the shape of the class bound to ``M`` is known and unifies with
``k`` and ``z``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.vrem.atoms import Atom, Const, Var
from repro.vrem.instance import VremInstance

Binding = Dict[Var, object]


def _unify_term(pattern, value, binding: Binding) -> Optional[Binding]:
    """Unify one pattern term against one ground term under a binding."""
    if isinstance(pattern, Var):
        bound = binding.get(pattern)
        if bound is None:
            extended = dict(binding)
            extended[pattern] = value
            return extended
        return binding if bound == value else None
    if isinstance(pattern, Const) and isinstance(value, Const):
        return binding if pattern.value == value.value else None
    return binding if pattern == value else None


def _match_atom_against(pattern: Atom, ground: Atom, binding: Binding,
                        instance: VremInstance) -> Optional[Binding]:
    if pattern.relation != ground.relation or len(pattern.args) != len(ground.args):
        return None
    current = binding
    for pat_arg, ground_arg in zip(pattern.args, ground.args):
        value = ground_arg
        if isinstance(value, int):
            value = instance.find(value)
        current = _unify_term(pat_arg, value, current)
        if current is None:
            return None
    return current


def _match_size_atom(pattern: Atom, binding: Binding, instance: VremInstance) -> Iterator[Binding]:
    """Match ``size(M, k, z)`` against per-class shape metadata."""
    m_term, k_term, z_term = pattern.args
    candidates: List[int]
    if isinstance(m_term, Var) and m_term in binding:
        value = binding[m_term]
        candidates = [value] if isinstance(value, int) else []
    elif isinstance(m_term, int):
        candidates = [instance.find(m_term)]
    else:
        candidates = instance.shaped_classes()
    for cid in candidates:
        shape = instance.shape(cid) if isinstance(cid, int) else None
        if shape is None:
            continue
        current = _unify_term(m_term, instance.find(cid), binding)
        if current is None:
            continue
        current = _unify_term(k_term, Const(shape[0]), current)
        if current is None:
            continue
        current = _unify_term(z_term, Const(shape[1]), current)
        if current is not None:
            yield current


def _candidate_atoms(pattern: Atom, binding: Binding, instance: VremInstance,
                     indexed: bool = True):
    """Candidate ground atoms for ``pattern``, using the positional index.

    The smallest index entry over all constant / already-bound argument
    positions is used; if no argument is bound the whole relation is scanned.
    ``indexed=False`` always scans the whole relation — the matcher of the
    ``SaturationEngine(use_index=False)`` reference engine.
    """
    if not indexed:
        return instance.atoms(pattern.relation)
    best = None
    for position, arg in enumerate(pattern.args):
        value = None
        if isinstance(arg, Const):
            value = arg
        elif isinstance(arg, Var) and arg in binding:
            value = binding[arg]
        elif isinstance(arg, int):
            value = instance.find(arg)
        if value is None:
            continue
        candidates = instance.atoms_with(pattern.relation, position, value)
        if best is None or len(candidates) < len(best):
            best = candidates
            if not best:
                return ()
    if best is not None:
        return best
    return instance.atoms(pattern.relation)


def _estimated_candidates(pattern: Atom, binding: Binding, instance: VremInstance,
                          indexed: bool = True) -> int:
    """Estimate of how many ground atoms a pattern can match under a binding.

    For stored relations the estimate is exact: the size of the smallest
    positional-index entry over all bound argument positions, or the
    relation's cardinality when nothing is bound yet.  ``size`` atoms match
    per-class shape metadata instead of stored atoms: bound subject → at
    most one candidate; unbound subject → one candidate per *shaped* class
    (not a huge constant — a shape-only premise atom over a lightly-shaped
    instance can well be the most selective starting point)."""
    if pattern.relation == "size":
        subject = pattern.args[0]
        if isinstance(subject, int) or (isinstance(subject, Var) and subject in binding):
            return 0
        return instance.shaped_class_count()
    best = instance.atom_count(pattern.relation)
    if not indexed:
        return best
    for position, arg in enumerate(pattern.args):
        value = None
        if isinstance(arg, Const):
            value = arg
        elif isinstance(arg, Var) and arg in binding:
            value = binding[arg]
        elif isinstance(arg, int):
            value = instance.find(arg)
        if value is not None:
            count = len(instance.atoms_with(pattern.relation, position, value))
            if count < best:
                best = count
                if best == 0:
                    break
    return best


def find_instance_matches(
    atoms: Sequence[Atom],
    instance: VremInstance,
    initial_binding: Optional[Binding] = None,
    *,
    indexed: bool = True,
) -> Iterator[Binding]:
    """Yield every binding of the atoms' variables that embeds them in the instance.

    The search is a backtracking join with greedy dynamic ordering: at each
    step the still-unmatched atom with the fewest candidate ground atoms
    (given the current binding) is matched next, and candidates are fetched
    through the instance's positional index rather than by scanning whole
    relations.  ``indexed=False`` scans relations linearly instead (the
    ``SaturationEngine(use_index=False)`` reference engine the tests
    compare against); the set of matches is identical either way.
    """
    initial = dict(initial_binding or {})
    for var, value in list(initial.items()):
        if isinstance(value, int):
            initial[var] = instance.find(value)
    remaining = list(atoms)

    def backtrack(pending: List[Atom], binding: Binding) -> Iterator[Binding]:
        if not pending:
            yield binding
            return
        # Pick the most selective pending atom under the current binding.
        if len(pending) == 1:
            best_index = 0
        else:
            best_index = min(
                range(len(pending)),
                key=lambda i: _estimated_candidates(
                    pending[i], binding, instance, indexed
                ),
            )
        pattern = pending[best_index]
        rest = pending[:best_index] + pending[best_index + 1 :]
        if pattern.relation == "size":
            for extended in _match_size_atom(pattern, binding, instance):
                yield from backtrack(rest, extended)
            return
        for ground in _candidate_atoms(pattern, binding, instance, indexed):
            extended = _match_atom_against(pattern, ground, binding, instance)
            if extended is not None:
                yield from backtrack(rest, extended)

    yield from backtrack(remaining, initial)


def find_delta_matches(
    atoms: Sequence[Atom],
    instance: VremInstance,
    delta_atoms: Dict[str, Sequence[Atom]],
    delta_shaped_classes: Sequence[int] = (),
) -> Iterator[Binding]:
    """Semi-naive matching: only bindings that touch the delta.

    ``delta_atoms`` maps relation names to the atoms added (or
    re-canonicalised after a class merge) since the constraint's last
    attempt; ``delta_shaped_classes`` lists classes whose shape became known
    since then.  Every *new* match of the conjunction must embed at least
    one premise atom into the delta — anything else was already derivable
    at the last attempt — so the search seeds each premise position with the
    delta of its relation in turn and completes the remaining atoms against
    the full instance.  Bindings are deduplicated across seed positions
    (a match touching two delta atoms is found twice otherwise).

    Stale delta entries (atoms re-canonicalised away after being logged)
    are skipped; their canonical successors were logged as well.
    """
    atom_list = list(atoms)
    seen: set = set()
    for seed_index, pattern in enumerate(atom_list):
        rest = atom_list[:seed_index] + atom_list[seed_index + 1 :]
        seed_bindings: List[Binding] = []
        if pattern.relation == "size":
            if not delta_shaped_classes:
                continue
            shaped = sorted({instance.find(cid) for cid in delta_shaped_classes})
            m_term, k_term, z_term = pattern.args
            for cid in shaped:
                shape = instance.shape(cid)
                if shape is None:
                    continue
                current = _unify_term(m_term, cid, {})
                if current is None:
                    continue
                current = _unify_term(k_term, Const(shape[0]), current)
                if current is None:
                    continue
                current = _unify_term(z_term, Const(shape[1]), current)
                if current is not None:
                    seed_bindings.append(current)
        else:
            delta = delta_atoms.get(pattern.relation)
            if not delta:
                continue
            for ground in dict.fromkeys(delta):
                if not instance.contains_atom(ground):
                    continue
                extended = _match_atom_against(pattern, ground, {}, instance)
                if extended is not None:
                    seed_bindings.append(extended)
        for seed in seed_bindings:
            for match in find_instance_matches(rest, instance, seed):
                key = frozenset(match.items())
                if key not in seen:
                    seen.add(key)
                    yield match


def is_satisfied(
    atoms: Sequence[Atom],
    instance: VremInstance,
    binding: Binding,
    *,
    indexed: bool = True,
) -> bool:
    """True if the (partially bound) conjunction has at least one match."""
    for _ in find_instance_matches(atoms, instance, binding, indexed=indexed):
        return True
    return False
