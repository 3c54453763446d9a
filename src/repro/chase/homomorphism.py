"""The reference matcher: generic homomorphism search over a VREM instance.

A *match* (containment mapping) binds the variables of a conjunction of
non-ground atoms to terms of the instance — class IDs or constants — such
that every atom becomes an atom of the instance.

The production chase does not run this code: it matches compiled
constraints (:mod:`repro.chase.kernel`).  This module is the plain
statement of what a match is — dict bindings, backtracking, linear scans of
whole relations — kept as the reference ``SaturationEngine(use_index=False)``
and the tests compare the kernel against.

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


def _estimated_candidates(pattern: Atom, binding: Binding, instance: VremInstance) -> int:
    """How many candidates a pattern is matched against under a binding.

    Stored relations are scanned whole, so the estimate is the relation's
    cardinality.  ``size`` atoms match per-class shape metadata instead:
    bound subject → at most one candidate; unbound subject → one candidate
    per *shaped* class."""
    if pattern.relation == "size":
        subject = pattern.args[0]
        if isinstance(subject, int) or (isinstance(subject, Var) and subject in binding):
            return 0
        return instance.shaped_class_count()
    return instance.atom_count(pattern.relation)


def find_instance_matches(
    atoms: Sequence[Atom],
    instance: VremInstance,
    initial_binding: Optional[Binding] = None,
) -> Iterator[Binding]:
    """Yield every binding of the atoms' variables that embeds them in the instance.

    A backtracking join: at each step the still-unmatched atom with the
    fewest candidates is matched next, against a linear scan of its whole
    relation.
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
                key=lambda i: _estimated_candidates(pending[i], binding, instance),
            )
        pattern = pending[best_index]
        rest = pending[:best_index] + pending[best_index + 1 :]
        if pattern.relation == "size":
            for extended in _match_size_atom(pattern, binding, instance):
                yield from backtrack(rest, extended)
            return
        for ground in instance.atoms(pattern.relation):
            extended = _match_atom_against(pattern, ground, binding, instance)
            if extended is not None:
                yield from backtrack(rest, extended)

    yield from backtrack(remaining, initial)


def is_satisfied(atoms: Sequence[Atom], instance: VremInstance, binding: Binding) -> bool:
    """True if the (partially bound) conjunction has at least one match."""
    for _ in find_instance_matches(atoms, instance, binding):
        return True
    return False
