"""Compiled constraints: the form the production chase runs on.

Every constraint is compiled once — on its first attempt, and kept on the
constraint object, so the shipped rules compile once per process and only
view rules compile per session — into a :class:`ConstraintKernel` with
three parts:

**match** — the premise as a :class:`JoinKernel`.  Premise variables are
*slots* of one flat list that the search writes in place: which slots are
bound after which atoms have been matched is static, so there are no
binding dicts to copy and nothing to undo on backtrack.  For a set of
already-matched atoms (a bit mask) the kernel compiles, per pending atom,
the index probes it can make and what each argument position does — check a
constant, check a bound slot, bind a slot; ``size`` atoms read shape
metadata instead.  Mask 0 (every atom pending) is compiled when the kernel
is built, so a malformed atom fails there; any other mask is compiled when
a search first reaches it.  A search reaches few of the 2^n masks of an
n-atom conjunction, and view rules of 7-8 atoms and more are compiled anew
for every planning session.

The search makes the decisions of the generic matcher one for one, because
the order matches are applied in fixes the class ids the chase allocates,
and class ids reach extraction ties: the next atom is the first pending one
(premise order) with the strictly smallest candidate count; its candidates
are the first strictly smallest index entry in argument order, iterated as
that very set (the whole relation when nothing is bound); semi-naive
seeding goes premise position by position, duplicates dropped in
first-seen order.

**test** — is the conclusion already there?  Operation relations are
functional and the instance keeps one congruence entry per (relation,
canonical inputs), so a conclusion whose existential variables are all
outputs of operation atoms is tested by a chain of keyed probes
(:attr:`ConstraintKernel.keyed`).  Commutative relations are keyed on the
sorted operands but stored as written — ``add_m(A, B, R)`` and
``add_m(B, A, R)`` are two atoms sharing one key — so there the probe only
yields the output class and the exact atom is confirmed separately;
otherwise ``add-commutes`` would never fire.  A conclusion with an
existential no operation determines (``name(?x, "V")`` of a ``view-oi``
rule) is searched by a second :class:`JoinKernel` with the premise slots
pre-bound.

**apply** — conclusion arguments and the shapes the pruner asks about are
read off the slots.  Existentials are resolved against the congruence table
before anything is allocated: the keyed test walks its whole chain, so an
unsatisfied conclusion leaves every existential that is the output of an
already stored operation bound to that stored class, and only the rest get
fresh ones — nothing is allocated just to be merged away and repaired.  Class
ids stay deterministic: which existentials resolve depends only on the
instance, and the others are allocated in slot order as before; the
reference engine applies through the same walk, so both allocate alike.

A kernel changes after it is built only by adding compiled masks to its
memo; a mask compiles to the same steps whoever compiles it, so two threads
that race on one both store a valid entry and constraint programs stay
shareable across sessions and planning threads.  The generic matcher of
:mod:`repro.chase.homomorphism` remains as the reference the tests compare
the kernel against (``SaturationEngine(use_index=False)``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.constraints.core import Constraint, EGD, TGD
from repro.exceptions import ChaseError
from repro.vrem.atoms import Atom, Const, Var
from repro.vrem.instance import COMMUTATIVE_RELATIONS, VremInstance
from repro.vrem.schema import VREM_SCHEMA, infer_output_shapes, relation_spec

Shape = Tuple[int, int]
#: One premise match: the value of every premise variable, in slot order.
Match = Tuple[object, ...]
#: Where a term's value comes from: ``(slot, None)`` or ``(-1, constant)``.
Source = Tuple[int, Optional[Const]]

# What a ``size`` dimension does with the extent it is matched against.
_CHECK_CONST, _CHECK_SLOT, _BIND = 0, 1, 2


def _source(term, slot_of: Dict[Var, int], where: str) -> Source:
    if isinstance(term, Const):
        return (-1, term)
    if isinstance(term, Var) and term in slot_of:
        return (slot_of[term], None)
    raise ChaseError(f"{where}: cannot compile term {term!r}")


def _values(sources: Sequence[Source], slots: List[object]) -> Tuple[object, ...]:
    return tuple([slots[slot] if slot >= 0 else const for slot, const in sources])


class JoinKernel:
    """A conjunction of atoms compiled for slot-addressed matching.

    ``slot_of`` numbers the variables; ``prebound`` are the slots the caller
    fills before searching (none for a premise, the premise slots for a
    searched conclusion).
    """

    def __init__(
        self,
        atoms: Sequence[Atom],
        slot_of: Dict[Var, int],
        prebound: Sequence[int] = (),
        where: str = "conjunction",
    ):
        self._atoms = tuple(atoms)
        # A copy: the caller goes on to number its existential variables.
        self._slot_of = dict(slot_of)
        self._prebound = frozenset(prebound)
        self._where = where
        self._full = (1 << len(self._atoms)) - 1
        self._binds = tuple(
            frozenset(self._slot_of[var] for var in atom.variables()) for atom in self._atoms
        )
        #: ``_table[mask]``: the steps of the atoms still pending once the
        #: atoms in ``mask`` are matched, in premise order; filled on demand.
        self._table: Dict[int, Tuple[tuple, ...]] = {}
        self._compile_mask(0)

    @property
    def seeds(self) -> Tuple[tuple, ...]:
        """One step per atom, nothing matched yet: the semi-naive seeds."""
        return self._table[0]

    def _compile_mask(self, mask: int) -> Tuple[tuple, ...]:
        """Compile and memoise the pending steps of ``mask``."""
        bound = set(self._prebound)
        for index, binds in enumerate(self._binds):
            if mask >> index & 1:
                bound |= binds
        steps = tuple(
            self._compile_step(index, atom, self._slot_of, bound, self._where)
            for index, atom in enumerate(self._atoms)
            if not mask >> index & 1
        )
        self._table[mask] = steps
        return steps

    @staticmethod
    def _compile_step(index, atom: Atom, slot_of, bound, where) -> tuple:
        """``(bit, relation, probes, checks, binds, same, size_ops)``.

        ``probes``: ``(index key | None, position, slot)`` per position whose
        value is known before the atom is matched; ``checks``: ``(position,
        slot, constant)`` to compare; ``binds``: ``(position, slot)`` to
        write; ``same``: position pairs of a variable repeated inside the
        atom.  ``size`` atoms carry ``size_ops`` instead: ``(subject slot,
        subject bound?, per-dimension (op, payload))``.
        """
        relation = atom.relation
        if relation == "size":
            subject, *dims = atom.args
            if not isinstance(subject, Var):
                raise ChaseError(f"{where}: size needs a variable subject, got {subject!r}")
            seen = bound | {slot_of[subject]}
            dim_ops = []
            for term in dims:
                slot, const = _source(term, slot_of, where)
                if const is not None:
                    dim_ops.append((_CHECK_CONST, const.value))
                elif slot in seen:
                    dim_ops.append((_CHECK_SLOT, slot))
                else:
                    seen.add(slot)
                    dim_ops.append((_BIND, slot))
            size_ops = (slot_of[subject], slot_of[subject] in bound, tuple(dim_ops))
            return (1 << index, relation, (), (), (), (), size_ops)
        probes, checks, binds, same = [], [], [], []
        first_position: Dict[int, int] = {}
        for position, term in enumerate(atom.args):
            slot, const = _source(term, slot_of, where)
            if const is not None:
                probes.append(((relation, position, const), position, -1))
                checks.append((position, -1, const))
            elif slot in bound:
                probes.append((None, position, slot))
                checks.append((position, slot, None))
            elif slot in first_position:
                same.append((first_position[slot], position))
            else:
                first_position[slot] = position
                binds.append((position, slot))
        return (
            1 << index, relation, tuple(probes), tuple(checks), tuple(binds), tuple(same), None
        )

    def search(
        self,
        instance: VremInstance,
        slots: List[object],
        out: Optional[List[Match]],
        mask: int = 0,
        step: Optional[tuple] = None,
        candidates=None,
    ) -> bool:
        """Extend the partial match held in ``slots`` over the pending atoms.

        Complete matches are appended to ``out`` as slot tuples; with
        ``out=None`` the search only answers whether one exists and returns
        True at the first.  ``step`` / ``candidates`` force the next atom and
        what it is matched against (a semi-naive seed) instead of choosing.
        The instance must be at rest (no pending unions): stored atoms are
        then canonical and are compared without ``find``.
        """
        if step is None:
            # The positional index is read directly: a probe per pending atom
            # per search node is the hottest path of the chase.
            index_get = instance._by_position.get
            best = -1
            pending_steps = self._table.get(mask)
            if pending_steps is None:
                pending_steps = self._compile_mask(mask)
            for pending in pending_steps:
                relation, probes, size_ops = pending[1], pending[2], pending[6]
                entry = None
                if size_ops is not None:
                    count = 0 if size_ops[1] else instance.shaped_class_count()
                elif probes:
                    count = -1
                    for key, position, slot in probes:
                        found = index_get(
                            key if slot < 0 else (relation, position, slots[slot])
                        )
                        if not found:
                            # No candidate for one atom: no match at all.
                            return False
                        if count < 0 or len(found) < count:
                            entry, count = found, len(found)
                else:
                    entry = instance._by_relation.get(relation)
                    if not entry:
                        return False
                    count = len(entry)
                if best < 0 or count < best:
                    best, step, candidates = count, pending, entry
        bit, _relation, _probes, checks, binds, same, size_ops = step
        mask |= bit
        done = mask == self._full
        if size_ops is not None:
            subject, subject_bound, dim_ops = size_ops
            if candidates is None:
                if subject_bound:
                    candidates = (slots[subject],) if type(slots[subject]) is int else ()
                else:
                    candidates = instance.shaped_classes()
            for cid in candidates:
                shape = instance.shape(cid)
                if shape is None:
                    continue
                slots[subject] = cid
                for (op, payload), extent in zip(dim_ops, shape):
                    if op == _BIND:
                        slots[payload] = Const(extent)
                    elif op == _CHECK_CONST:
                        if payload != extent:
                            break
                    else:
                        value = slots[payload]
                        if not isinstance(value, Const) or value.value != extent:
                            break
                else:
                    if done:
                        if out is None:
                            return True
                        out.append(tuple(slots))
                    elif self.search(instance, slots, out, mask):
                        return True
            return False
        for ground in candidates:
            args = ground.args
            for position, slot, const in checks:
                if not (args[position] == (slots[slot] if slot >= 0 else const)):
                    break
            else:
                if same and not all(args[p] == args[q] for p, q in same):
                    continue
                for position, slot in binds:
                    slots[slot] = args[position]
                if done:
                    if out is None:
                        return True
                    out.append(tuple(slots))
                elif self.search(instance, slots, out, mask):
                    return True
        return False


class ConstraintKernel:
    """One constraint's compiled match / test / apply (see module docstring)."""

    def __init__(self, constraint: Constraint):
        self.constraint = constraint
        where = f"constraint {constraint.name!r}"
        if not constraint.premise:
            raise ChaseError(f"{where} has an empty premise")
        for atom in constraint.premise + getattr(constraint, "conclusion", ()):
            spec = VREM_SCHEMA.get(atom.relation)
            if spec is None or spec.arity != len(atom.args):
                raise ChaseError(f"{where}: {atom!r} is not an atom of the VREM schema")
        self.premise_vars: Tuple[Var, ...] = constraint.premise_variables()
        self.n_premise = len(self.premise_vars)
        slot_of = {var: slot for slot, var in enumerate(self.premise_vars)}
        self.premise = JoinKernel(constraint.premise, slot_of, where=where)
        if isinstance(constraint, EGD):
            self.equalities = tuple(
                (_source(left, slot_of, where), _source(right, slot_of, where))
                for left, right in constraint.equalities
            )
            return
        if not isinstance(constraint, TGD):
            raise ChaseError(f"unsupported constraint type {type(constraint).__name__}")
        for var in constraint.existential_variables():
            slot_of[var] = len(slot_of)
        #: Fresh classes are allocated in slot order, which is the
        #: first-occurrence order of the existentials in the conclusion.
        self._existentials = (None,) * (len(slot_of) - self.n_premise)
        self._provenance = (constraint.name,)
        self._conclusion = tuple(
            (atom.relation, tuple(_source(term, slot_of, where) for term in atom.args))
            for atom in constraint.conclusion
        )
        probes = self._compile_keyed_test(self._conclusion, self.n_premise)
        #: Whether the conclusion test is a chain of keyed probes (else searched).
        self.keyed = probes is not None
        self._probes: Tuple[tuple, ...] = probes or ()
        self._searched = None if self.keyed else JoinKernel(
            constraint.conclusion, slot_of, prebound=range(self.n_premise), where=where
        )
        self._shape_steps = self._compile_shape_steps(self._conclusion)

    # ------------------------------------------------------------------ match
    def full_matches(self, instance: VremInstance) -> List[Match]:
        """Every premise match, in the order the chase applies them."""
        out: List[Match] = []
        self.premise.search(instance, [None] * self.n_premise, out)
        return out

    def delta_matches(
        self,
        instance: VremInstance,
        delta_atoms: Dict[str, Sequence[Atom]],
        delta_shaped: Sequence[int] = (),
    ) -> List[Match]:
        """Semi-naive matching: only the matches that touch the delta.

        ``delta_atoms`` maps relation names to the atoms added (or
        re-canonicalised after a class merge) since the constraint's last
        attempt; ``delta_shaped`` lists classes whose shape became known
        since then.  A *new* match must embed at least one premise atom into
        the delta — anything else was already derivable last time — so each
        premise position is seeded with its relation's delta in turn and the
        other atoms are completed against the full instance.  A match
        touching two delta atoms is found twice and kept once.  Stale delta
        entries (re-canonicalised away after being logged) are skipped;
        their canonical successors were logged as well.
        """
        found: List[Match] = []
        slots: List[object] = [None] * self.n_premise
        for seed in self.premise.seeds:
            candidates: Sequence[object]
            if seed[6] is not None:
                candidates = sorted({instance.find(cid) for cid in delta_shaped})
            else:
                candidates = [
                    atom
                    for atom in dict.fromkeys(delta_atoms.get(seed[1], ()))
                    if instance.contains_atom(atom)
                ]
            if candidates:
                self.premise.search(instance, slots, found, 0, seed, candidates)
        return list(dict.fromkeys(found))

    def slots_for(self, instance: VremInstance, match: Match) -> List[object]:
        """Working slots of one match: class ids canonical (earlier
        applications of the same batch merge classes), existentials unset."""
        find = instance.find
        slots = [find(value) if type(value) is int else value for value in match]
        slots.extend(self._existentials)
        return slots

    # ------------------------------------------------------------------ test
    @staticmethod
    def _compile_keyed_test(conclusion, n_premise: int) -> Optional[Tuple[tuple, ...]]:
        """Order the conclusion so every atom is determined when probed.

        A step is ``(relation, args, inputs, outputs, confirm)``: with
        ``inputs`` None the exact atom ``args`` is looked up; otherwise the
        congruence entry of ``inputs`` is probed, ``outputs`` are
        ``(position, slot, constant, bind?)`` read off the stored atom, and
        ``confirm`` asks for the exact atom as well (commutative relations).
        Returns None when some existential is no operation's output.
        """
        known = set(range(n_premise))
        pending = list(conclusion)
        steps = []
        while pending:
            for atom in pending:
                relation, sources = atom
                if relation == "size":
                    return None
                spec = relation_spec(relation)
                if all(slot in known for slot, const in sources if const is None):
                    steps.append((relation, sources, None, (), False))
                    break
                if spec.functional and all(
                    sources[pos][1] is not None or sources[pos][0] in known
                    for pos in spec.input_positions
                ):
                    outputs = []
                    for pos in spec.output_positions:
                        slot, const = sources[pos]
                        bind = const is None and slot not in known
                        outputs.append((pos, slot, const, bind))
                        if bind:
                            known.add(slot)
                    steps.append((
                        relation,
                        sources,
                        tuple(sources[pos] for pos in spec.input_positions),
                        tuple(outputs),
                        relation in COMMUTATIVE_RELATIONS,
                    ))
                    break
            else:
                return None
            pending.remove(atom)
        return tuple(steps)

    def satisfied(self, instance: VremInstance, slots: List[object]) -> bool:
        """Whether some extension of the match already satisfies the conclusion.

        A keyed chain is walked to its end either way: when the answer is no,
        every existential that is the output of an operation the instance
        already stores is left bound to that stored class, the rest stay
        None (a probe over an unbound input finds nothing) —
        :meth:`materialize` allocates for those alone.
        """
        if self._searched is not None:
            return self._searched.search(instance, slots, None)
        present = True
        for relation, args, inputs, outputs, confirm in self._probes:
            if inputs is not None:
                stored = instance.operation_atom(relation, _values(inputs, slots))
                if stored is None:
                    present = False
                    continue
                for position, slot, const, bind in outputs:
                    if bind:
                        slots[slot] = stored.args[position]
                    elif not (stored.args[position] == (slots[slot] if slot >= 0 else const)):
                        present = False
                if not confirm:
                    continue
            if present and not instance.stores(relation, _values(args, slots)):
                present = False
        return present

    # ------------------------------------------------------------------ apply
    @staticmethod
    def _compile_shape_steps(conclusion) -> Tuple[tuple, ...]:
        """``(relation, input slots, output slots, matrix output?)`` per
        operation atom of the conclusion; a constant's slot is -1."""
        steps = []
        for relation, sources in conclusion:
            spec = relation_spec(relation)
            if spec.functional:
                steps.append((
                    relation,
                    tuple(sources[pos][0] for pos in spec.input_positions),
                    tuple(sources[pos][0] for pos in spec.output_positions),
                    not spec.scalar_output,
                ))
        return tuple(steps)

    def new_shapes(self, instance: VremInstance, slots: List[object]) -> List[Optional[Shape]]:
        """Shapes of the matrix intermediates applying the TGD would create."""
        shapes: List[Optional[Shape]] = []
        n_premise = self.n_premise
        fresh: Dict[int, Optional[Shape]] = {}
        for relation, inputs, outputs, is_matrix in self._shape_steps:
            input_shapes: List[Optional[Shape]] = []
            for slot in inputs:
                if slot >= n_premise:
                    input_shapes.append(fresh.get(slot))
                elif slot >= 0 and type(slots[slot]) is int:
                    input_shapes.append(instance.shape(slots[slot]))
                else:
                    input_shapes.append((1, 1))
            inferred = infer_output_shapes(relation, input_shapes)
            for slot, shape in zip(outputs, inferred):
                if slot >= n_premise:
                    fresh[slot] = shape
                    if is_matrix:
                        shapes.append(shape)
        return shapes

    def materialize(self, instance: VremInstance, slots: List[object]) -> None:
        """Add the conclusion: a fresh class for every existential that
        :meth:`satisfied` did not resolve to a stored one (a searched
        conclusion resolves none: its slots hold the failed search's scratch)."""
        all_fresh = self._searched is not None
        for slot in range(self.n_premise, len(slots)):
            if all_fresh or slots[slot] is None:
                slots[slot] = instance.new_class()
        for relation, args in self._conclusion:
            instance.add_atom(relation, _values(args, slots), self._provenance)


def kernel_for(constraint: Constraint) -> ConstraintKernel:
    """The constraint's kernel, compiled on first use and kept on the object.

    Constraints are frozen dataclasses: the kernel goes into ``__dict__``
    beside the fields (it is no part of equality, hash or repr).  Two threads
    racing here build equal kernels and one wins; both are valid.
    """
    kernel = constraint.__dict__.get("_kernel")
    if kernel is None:
        kernel = constraint.__dict__["_kernel"] = ConstraintKernel(constraint)
    return kernel


__all__ = ["ConstraintKernel", "JoinKernel", "Match", "kernel_for"]
