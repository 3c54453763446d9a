"""The chased VREM instance.

A :class:`VremInstance` is the ground structure that the paper's reduction
manipulates: a set of atoms over the VREM relations whose ID arguments denote
*equivalence classes* of expressions (§6.2.1).  The functional EGDs of
§6.2.3 (every operation relation is functional in its inputs) are maintained
incrementally as a congruence: whenever two atoms of a functional relation
agree on their canonical input arguments, their output classes are merged,
and after every merge the instance re-canonicalises itself to a fixpoint.

Three structural invariants keep the chase hot path fast:

* **Hash-consing** — every stored atom is interned: one canonical
  :class:`~repro.vrem.atoms.Atom` object per (relation, canonical args)
  pair, with a cached hash, so index probes cost a pointer comparison.
* **Canonical commutative keys** — the congruence table keys commutative
  operation relations (``add_m``, ``multi_e``, scalar ``add_s`` /
  ``multi_s``) on the *sorted* input multiset, so ``A + B`` and ``B + A``
  hash-cons to the same output class at construction time instead of
  waiting for the commutativity TGD to merge them.
* **Incremental repair** — a class merge re-canonicalises only the atoms
  that actually mention the retired class (found through a per-class
  occurrence index), not the whole instance; this is the e-graph ``repair``
  step, and it turns the former O(instance) rebuild-per-union into
  O(delta).

Besides the atoms, the instance tracks per-class *shape* metadata (the
``size`` relation of Table 1), optional known scalar values and, per atom, a
set of provenance labels recording which constraint or encoding step
introduced it — the information the provenance-aware backchase reads off.
For the semi-naive chase the instance also keeps append-only **delta logs**
(per relation, plus one for newly shaped classes): every atom added or
re-canonicalised is appended, so the saturation engine can restrict
premise matching to what actually changed since a constraint's last attempt
(:meth:`relation_log`, :meth:`shape_log`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import ChaseError
from repro.vrem.atoms import Atom, AtomInterner, Const, Var
from repro.vrem.schema import VREM_SCHEMA, infer_output_shapes, relation_spec

Shape = Tuple[int, int]
Term = object  # int (class ID) or Const

#: Operation relations whose inputs commute: the congruence key uses the
#: sorted input multiset so both operand orders share one output class.
COMMUTATIVE_RELATIONS = frozenset({"add_m", "multi_e", "add_s", "multi_s"})


def _term_sort_key(term: Term) -> Tuple[int, object]:
    """Total order over ground terms, for canonical commutative keys."""
    if isinstance(term, int):
        return (0, term)
    return (1, repr(term))


class VremInstance:
    """Congruence-closed set of ground VREM atoms over equivalence classes."""

    def __init__(self) -> None:
        self._parent: Dict[int, int] = {}
        self._next_id = 0
        self._num_classes = 0
        self._interner = AtomInterner()
        self._atom_provenance: Dict[Atom, Set[str]] = {}
        #: Per-relation and per-(relation, position, value) indexes.  The
        #: compiled matcher (:mod:`repro.chase.kernel`) reads these two
        #: directly — a probe per pending atom per search node — and iterates
        #: the very set objects: their iteration order is part of the
        #: chase's deterministic match order.
        self._by_relation: Dict[str, Set[Atom]] = defaultdict(set)
        self._by_position: Dict[Tuple[str, int, object], Set[Atom]] = defaultdict(set)
        #: Per-class occurrence index: which stored atoms mention a class.
        #: This is what makes :meth:`rebuild` incremental — a merge touches
        #: exactly the atoms listed under the retired class.
        self._atoms_by_class: Dict[int, Set[Atom]] = defaultdict(set)
        self._congruence: Dict[Tuple, Atom] = {}
        self._shape: Dict[int, Shape] = {}
        self._scalar_value: Dict[int, float] = {}
        self._pending_unions: List[Tuple[int, int]] = []
        #: Monotonically increasing counter, bumped on every structural change;
        #: used by callers (the planner's tighten hook) to detect staleness.
        self.version = 0
        #: Counter for shape-metadata changes (shapes are not stored atoms,
        #: so ``version`` alone does not show them).
        self.shape_version = 0
        #: Append-only semi-naive delta logs: atoms added or re-canonicalised,
        #: per relation, and classes that gained a shape.  The saturation
        #: engine slices these by remembered lengths (watermarks).
        self._delta_log: Dict[str, List[Atom]] = defaultdict(list)
        self._shape_delta_log: List[int] = []

    # ------------------------------------------------------------------ classes
    def new_class(self) -> int:
        """Allocate a fresh equivalence-class identifier."""
        cid = self._next_id
        self._next_id += 1
        self._parent[cid] = cid
        self._num_classes += 1
        return cid

    def find(self, cid: int) -> int:
        """Canonical representative of a class (with path compression)."""
        parent = self._parent
        root = cid
        while parent[root] != root:
            root = parent[root]
        while parent[cid] != root:
            parent[cid], cid = root, parent[cid]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge two classes and return the surviving representative.

        Shape and scalar-value metadata are reconciled; conflicting shapes
        indicate an unsound constraint and raise :class:`ChaseError`.
        The re-canonicalisation of affected atoms is deferred to
        :meth:`rebuild` (incremental: only atoms mentioning the retired
        class are touched).
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        # Keep the smaller id as representative for determinism.
        keep, drop = (ra, rb) if ra < rb else (rb, ra)
        shape_keep, shape_drop = self._shape.get(keep), self._shape.pop(drop, None)
        if shape_keep is not None and shape_drop is not None and shape_keep != shape_drop:
            self._shape[drop] = shape_drop  # restore before failing
            raise ChaseError(
                f"cannot merge classes {keep} and {drop}: shapes {shape_keep} != {shape_drop}"
            )
        if shape_keep is None and shape_drop is not None:
            self._shape[keep] = shape_drop
            # The surviving class just became shape-matchable.
            self.shape_version += 1
            self._shape_delta_log.append(keep)
        value_drop = self._scalar_value.pop(drop, None)
        if value_drop is not None and keep not in self._scalar_value:
            self._scalar_value[keep] = value_drop
        self._parent[drop] = keep
        self._num_classes -= 1
        self._pending_unions.append((keep, drop))
        return keep

    def same_class(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def classes(self) -> Set[int]:
        """All canonical class representatives currently alive."""
        return {self.find(cid) for cid in self._parent}

    def num_classes(self) -> int:
        """Number of live classes (tracked incrementally; O(1))."""
        return self._num_classes

    # ------------------------------------------------------------------ metadata
    def set_shape(self, cid: int, shape: Optional[Shape]) -> None:
        if shape is None:
            return
        root = self.find(cid)
        known = self._shape.get(root)
        shape = (int(shape[0]), int(shape[1]))
        if known is not None and known != shape:
            raise ChaseError(f"class {root} already has shape {known}, cannot set {shape}")
        if known is None:
            self.shape_version += 1
            self._shape_delta_log.append(root)
        self._shape[root] = shape

    def shape(self, cid: int) -> Optional[Shape]:
        return self._shape.get(self.find(cid))

    def shaped_class_count(self) -> int:
        """Number of classes with known shape (selectivity of ``size`` scans)."""
        return len(self._shape)

    def shaped_classes(self) -> List[int]:
        """The classes with known shape, sorted.

        Keys of the shape table are canonical at rest (``union`` re-keys
        the retired side eagerly), so this equals
        ``sorted(c for c in classes() if shape(c) is not None)`` without the
        O(instance) scan."""
        return sorted(self._shape)

    def set_scalar_value(self, cid: int, value: float) -> None:
        self._scalar_value[self.find(cid)] = float(value)

    def scalar_value(self, cid: int) -> Optional[float]:
        return self._scalar_value.get(self.find(cid))

    # ------------------------------------------------------------------ atoms
    def _canonical_args(self, args: Sequence[Term]) -> Tuple[Term, ...]:
        canonical = []
        for arg in args:
            if isinstance(arg, bool):
                raise ChaseError("boolean atom arguments are not supported")
            if isinstance(arg, int):
                canonical.append(self.find(arg))
            elif isinstance(arg, Const):
                canonical.append(arg)
            elif isinstance(arg, Var):
                raise ChaseError("ground instances cannot contain variables")
            else:
                canonical.append(Const(arg))
        return tuple(canonical)

    def add_atom(
        self,
        relation: str,
        args: Sequence[Term],
        provenance: Optional[Iterable[str]] = None,
    ) -> Atom:
        """Insert a ground atom (idempotent), maintaining congruence.

        ``size`` atoms are intercepted and stored as shape metadata instead
        of as ordinary atoms (the matcher reconstitutes them on demand).
        Returns the canonical atom as stored.
        """
        if relation not in VREM_SCHEMA:
            raise ChaseError(f"unknown VREM relation {relation!r}")
        canonical = self._canonical_args(args)
        if relation == "size":
            cid, rows, cols = canonical
            if isinstance(rows, Const) and isinstance(cols, Const):
                self.set_shape(cid, (int(rows.value), int(cols.value)))
            return Atom("size", canonical)
        atom = self._insert_canonical(relation, canonical, set(provenance or ()))
        if self._pending_unions:
            self.rebuild()
        return atom

    def _insert_canonical(
        self, relation: str, canonical: Tuple[Term, ...], labels: Set[str]
    ) -> Atom:
        """Store one canonical atom: intern, index, log, congruence, shapes."""
        atom = self._interner.intern(relation, canonical)
        existing = self._atom_provenance.get(atom)
        if existing is not None:
            existing |= labels
            # A stale twin removed just before may have owned this key:
            # without re-registering, the table loses the entry and a later
            # atom over the same inputs is never merged with this one.
            self._apply_congruence(atom)
            return atom
        self._atom_provenance[atom] = labels
        self._by_relation[relation].add(atom)
        by_position = self._by_position
        by_class = self._atoms_by_class
        for position, arg in enumerate(canonical):
            by_position[(relation, position, arg)].add(atom)
            if isinstance(arg, int):
                by_class[arg].add(atom)
        self.version += 1
        self._delta_log[relation].append(atom)
        self._apply_congruence(atom)
        self._infer_shapes(atom)
        return atom

    def _remove_atom(self, atom: Atom) -> Set[str]:
        """Unindex a stale (pre-merge) atom, returning its provenance labels."""
        labels = self._atom_provenance.pop(atom, set())
        self._by_relation[atom.relation].discard(atom)
        for position, arg in enumerate(atom.args):
            self._by_position[(atom.relation, position, arg)].discard(atom)
            if isinstance(arg, int):
                entry = self._atoms_by_class.get(arg)
                if entry is not None:
                    entry.discard(atom)
        key = self._congruence_key(atom)
        if key is not None and self._congruence.get(key) is atom:
            del self._congruence[key]
        self._interner.discard(atom)
        return labels

    def _congruence_key(self, atom: Atom) -> Optional[Tuple]:
        spec = relation_spec(atom.relation)
        if not spec.functional:
            return None
        key_args: Tuple[Term, ...] = tuple(atom.args[pos] for pos in spec.input_positions)
        if atom.relation in COMMUTATIVE_RELATIONS:
            key_args = tuple(sorted(key_args, key=_term_sort_key))
        return (atom.relation, key_args)

    def _operation_key(self, relation: str, canonical_inputs: Tuple[Term, ...]) -> Tuple:
        """The congruence-table key for an operation's canonical inputs."""
        if relation in COMMUTATIVE_RELATIONS:
            canonical_inputs = tuple(sorted(canonical_inputs, key=_term_sort_key))
        return (relation, canonical_inputs)

    def _apply_congruence(self, atom: Atom) -> None:
        key = self._congruence_key(atom)
        if key is None:
            return
        other = self._congruence.get(key)
        if other is None:
            self._congruence[key] = atom
            return
        if other is atom:
            return
        spec = relation_spec(atom.relation)
        for pos in spec.output_positions:
            a, b = atom.args[pos], other.args[pos]
            if isinstance(a, int) and isinstance(b, int):
                self.union(a, b)

    def _infer_shapes(self, atom: Atom) -> None:
        spec = relation_spec(atom.relation)
        if spec.is_fact:
            return
        input_shapes = []
        const_args = []
        for pos in spec.input_positions:
            arg = atom.args[pos]
            if isinstance(arg, int):
                input_shapes.append(self.shape(arg))
            else:
                input_shapes.append((1, 1))
                const_args.append(arg.value)
        out_shapes = infer_output_shapes(atom.relation, input_shapes, const_args)
        for pos, shape in zip(spec.output_positions, out_shapes):
            arg = atom.args[pos]
            if shape is not None and isinstance(arg, int) and self.shape(arg) is None:
                self.set_shape(arg, shape)

    def add_op(
        self,
        relation: str,
        inputs: Sequence[Term],
        provenance: Optional[Iterable[str]] = None,
    ) -> Tuple[int, ...]:
        """Hash-consing insertion of an operation atom.

        If an atom of ``relation`` with the given (canonicalised, and for
        commutative relations order-normalised) inputs already exists, its
        output class IDs are returned; otherwise fresh classes are allocated
        for the outputs, the atom is added, and the new IDs are returned.
        """
        spec = relation_spec(relation)
        if spec.is_fact:
            raise ChaseError(f"{relation!r} is a fact relation, not an operation")
        canonical_inputs = self._canonical_args(inputs)
        existing = self.operation_atom(relation, canonical_inputs)
        if existing is not None:
            return tuple(self.find(existing.args[pos]) for pos in spec.output_positions)
        outputs = tuple(self.new_class() for _ in spec.output_positions)
        args: List[Term] = [None] * spec.arity
        for pos, value in zip(spec.input_positions, canonical_inputs):
            args[pos] = value
        for pos, value in zip(spec.output_positions, outputs):
            args[pos] = value
        self.add_atom(relation, args, provenance)
        return tuple(self.find(out) for out in outputs)

    def operation_atom(
        self, relation: str, canonical_inputs: Tuple[Term, ...]
    ) -> Optional[Atom]:
        """The stored atom of an operation over these canonical inputs, if any.

        Operations are functional, so at rest there is one output per input
        tuple and this keyed probe answers "is it there, and what is its
        output" without a search.  For a commutative relation the atom
        found may be stored with the operands in the other order.
        """
        return self._congruence.get(self._operation_key(relation, canonical_inputs))

    def stores(self, relation: str, canonical_args: Tuple[Term, ...]) -> bool:
        """Whether exactly this atom — canonical args, in this order — is stored."""
        return self._interner.has(relation, canonical_args)

    def contains_atom(self, atom: Atom) -> bool:
        """Whether this exact (already-canonical) atom is currently stored."""
        return atom in self._atom_provenance

    def atoms(self, relation: Optional[str] = None) -> Iterator[Atom]:
        """Iterate over stored atoms, optionally restricted to one relation."""
        if relation is not None:
            yield from list(self._by_relation.get(relation, ()))
            return
        yield from list(self._atom_provenance)

    def atom_count(self, relation: str) -> int:
        """Number of stored atoms of one relation (cheap)."""
        return len(self._by_relation.get(relation, ()))

    def atoms_with(self, relation: str, position: int, value) -> Set[Atom]:
        """Atoms of ``relation`` whose ``position``-th argument equals ``value``.

        ``value`` must already be canonical (a class representative or a
        :class:`Const`); this is the index the homomorphism matcher joins on.
        """
        if isinstance(value, int):
            value = self.find(value)
        return self._by_position.get((relation, position, value), set())

    def provenance(self, atom: Atom) -> FrozenSet[str]:
        canonical = Atom(atom.relation, self._canonical_args(atom.args))
        return frozenset(self._atom_provenance.get(canonical, ()))

    def num_atoms(self) -> int:
        return len(self._atom_provenance)

    # ------------------------------------------------------------------ deltas
    def relation_log(self, relation: str) -> List[Atom]:
        """Append-only log of atoms added / re-canonicalised in a relation.

        The semi-naive engine remembers the length at a constraint's last
        attempt; the slice past that watermark is the relation's delta.
        Entries may be stale (re-canonicalised away since being logged) —
        consumers filter through :meth:`contains_atom`.
        """
        return self._delta_log[relation]

    def shape_log(self) -> List[int]:
        """Append-only log of classes that gained a shape (``size`` deltas)."""
        return self._shape_delta_log

    # ------------------------------------------------------------------ rebuild
    def rebuild(self) -> None:
        """Re-canonicalise atoms affected by pending unions, to a fixpoint.

        Incremental e-graph repair: for every retired class, exactly the
        atoms mentioning it (per-class occurrence index) are removed,
        re-canonicalised and re-inserted; re-insertion may trigger further
        congruence unions, which queue more repair work until the instance
        is congruence-closed again.  Cost is proportional to the atoms
        actually touched, never to the whole instance.
        """
        while self._pending_unions:
            keep, drop = self._pending_unions.pop()
            affected = self._atoms_by_class.pop(drop, None)
            if not affected:
                continue
            self.version += 1
            for atom in list(affected):
                labels = self._remove_atom(atom)
                canonical = self._canonical_args(atom.args)
                self._insert_canonical(atom.relation, canonical, labels)

    def check_invariants(self) -> None:
        """Raise :class:`ChaseError` unless the instance is congruence-closed.

        At rest every stored atom is canonical, every operation atom has a
        live entry in the congruence table, and atoms sharing a key share
        their (canonical) outputs — what :meth:`operation_atom` relies on.
        """
        if self._pending_unions:
            raise ChaseError("instance has pending unions; call rebuild() first")
        for atom in self._atom_provenance:
            if atom.args != self._canonical_args(atom.args):
                raise ChaseError(f"stored atom {atom!r} is not canonical")
            key = self._congruence_key(atom)
            if key is None:
                continue
            owner = self._congruence.get(key)
            if owner is None or owner not in self._atom_provenance:
                raise ChaseError(f"operation atom {atom!r} has no live congruence entry")
            for pos in relation_spec(atom.relation).output_positions:
                if owner.args[pos] != atom.args[pos]:
                    raise ChaseError(
                        f"{atom!r} and {owner!r} agree on their inputs but not their outputs"
                    )

    # ------------------------------------------------------------------ helpers
    def leaf_name(self, cid: int) -> Optional[str]:
        """The storage name of a class, if it has a ``name`` atom."""
        for atom in self.atoms_with("name", 0, cid):
            return atom.args[1].value
        return None

    def class_of_name(self, name: str) -> Optional[int]:
        """The class carrying ``name(M, name)``, if any."""
        for atom in self.atoms_with("name", 1, Const(name)):
            return self.find(atom.args[0])
        return None

    def types_of(self, cid: int) -> Set[str]:
        """Structural type tags attached to a class via ``type`` atoms."""
        return {atom.args[1].value for atom in self.atoms_with("type", 0, cid)}

    def producers(self, cid: int) -> List[Atom]:
        """Operation atoms whose output positions include this class."""
        root = self.find(cid)
        result = []
        for atom in self._atoms_by_class.get(root, ()):
            spec = relation_spec(atom.relation)
            for pos in spec.output_positions:
                arg = atom.args[pos]
                if isinstance(arg, int) and self.find(arg) == root:
                    result.append(atom)
                    break
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"VremInstance(classes={self.num_classes()}, atoms={self.num_atoms()})"
