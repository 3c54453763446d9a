"""Static verification of constraint programs (TGD/EGD sets).

The planner's correctness and termination rest on properties of the
integrity-constraint programs that drive the chase; this module checks them
*before* a program is ever saturated:

* **Safety / range restriction** — every EGD equality is over premise-bound
  variables or constants (``RPA002``), atoms use known VREM relations at
  the right arity (``RPA003``), TGD conclusions are anchored to their
  premise (``RPA004``), names are unique (``RPA001``).
* **Trigger completeness** — a compiled constraint's trigger-relation set
  must cover every premise relation whose atom set can change, and premises
  that read ``size`` must watch the shape log (``RPA005``); a
  missed trigger makes semi-naive skipping silently drop matches.
* **Commutativity soundness** — the instance order-normalises the
  commutative relations (:data:`~repro.vrem.schema.COMMUTATIVE_RELATIONS`)
  at construction, so premises that *distinguish* operand order only match
  one orientation.  That is fine when the program ships a commutativity
  repair TGD for the relation (the chase rematerialises the swapped form),
  and wrong otherwise (``RPA006``); a constant pinned into a commutative
  input position never matches at all (``RPA007``).
* **Chase termination** — weak acyclicity of the TGD dependency graph: the
  *position graph* has a node per (relation, argument position); each TGD
  adds regular edges from the premise positions of a propagated variable to
  its conclusion positions, and special edges from those premise positions
  to every position holding an existential variable.  A cycle through a
  special edge means fresh labelled nulls can feed their own creation and
  the chase is not guaranteed to terminate (``RPA008``).  A weakly acyclic
  set where an existential-receiving position still reaches a positional
  cycle is reported one tier lower (``RPA009``).

Besides the checks, one info-level finding per program (``RPA011``) reports
how many TGD conclusions the compiled chase tests by keyed probes and names
the ones it has to search (:mod:`repro.chase.kernel`).

EGDs do not add edges to the position graph (they only merge classes), so
the termination analysis is over the TGD subset — the standard setting of
the weak-acyclicity result.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.chase.kernel import kernel_for
from repro.constraints.core import Constraint, EGD, TGD
from repro.exceptions import ChaseError
from repro.vrem.atoms import Atom, Const, Var
from repro.vrem.schema import COMMUTATIVE_RELATIONS, VREM_SCHEMA

#: A node of the position graph: (relation, argument position).
Position = Tuple[str, int]


def _atom_findings(program: str, constraint: Constraint, atoms: Sequence[Atom],
                   side: str) -> List[Finding]:
    """RPA003: unknown relations / arity mismatches in raw-built atoms."""
    findings: List[Finding] = []
    target = f"{program}:{constraint.name}"
    for atom in atoms:
        spec = VREM_SCHEMA.get(atom.relation)
        if spec is None:
            findings.append(Finding(
                code="RPA003", target=target,
                message=f"{side} atom uses unknown relation {atom.relation!r}",
            ))
        elif len(atom.args) != spec.arity:
            findings.append(Finding(
                code="RPA003", target=target,
                message=(
                    f"{side} atom {atom.relation}/{len(atom.args)} does not "
                    f"match declared arity {spec.arity}"
                ),
            ))
    return findings


def _check_safety(program: str, constraints: Sequence[Constraint]) -> List[Finding]:
    """RPA001/RPA002/RPA003/RPA004 over the raw constraint list."""
    findings: List[Finding] = []
    seen_names: Set[str] = set()
    for constraint in constraints:
        target = f"{program}:{constraint.name}"
        if constraint.name in seen_names:
            findings.append(Finding(
                code="RPA001", target=target,
                message="constraint name is declared more than once",
            ))
        seen_names.add(constraint.name)
        findings.extend(_atom_findings(program, constraint, constraint.premise, "premise"))
        if not constraint.premise:
            findings.append(Finding(
                code="RPA003", target=target, message="premise is empty",
            ))
        premise_vars = set(constraint.premise_variables())
        if isinstance(constraint, EGD):
            if not constraint.equalities:
                findings.append(Finding(
                    code="RPA003", target=target, message="EGD has no equalities",
                ))
            for left, right in constraint.equalities:
                for side_term in (left, right):
                    if isinstance(side_term, Var) and side_term not in premise_vars:
                        findings.append(Finding(
                            code="RPA002", target=target,
                            message=(
                                f"equality references variable ?{side_term.name} "
                                f"which the premise never binds"
                            ),
                        ))
                if (
                    isinstance(left, Const)
                    and isinstance(right, Const)
                    and left.value != right.value
                ):
                    findings.append(Finding(
                        code="RPA002", target=target,
                        message=(
                            f"equality {left.value!r} = {right.value!r} can "
                            f"never hold; the first match raises ChaseError"
                        ),
                    ))
        elif isinstance(constraint, TGD):
            findings.extend(
                _atom_findings(program, constraint, constraint.conclusion, "conclusion")
            )
            if not constraint.conclusion:
                findings.append(Finding(
                    code="RPA003", target=target, message="TGD has no conclusion",
                ))
            else:
                conclusion_vars = {
                    var for atom in constraint.conclusion for var in atom.variables()
                }
                if premise_vars and conclusion_vars and not (premise_vars & conclusion_vars):
                    findings.append(Finding(
                        code="RPA004", target=target,
                        message=(
                            "conclusion shares no variable with the premise; "
                            "every match generates disconnected fresh atoms"
                        ),
                    ))
    return findings


# ---------------------------------------------------------------------------
# Commutativity soundness
# ---------------------------------------------------------------------------

def _commutative_input_positions(relation: str) -> Tuple[int, ...]:
    spec = VREM_SCHEMA.get(relation)
    return spec.input_positions if spec is not None else ()


def _atom_signature(atom: Atom, mapping: Dict[Var, Var]) -> Optional[Tuple]:
    """Canonical, order-normalised signature of a fully mapped premise atom."""
    terms: List[object] = []
    for arg in atom.args:
        if isinstance(arg, Var):
            image = mapping.get(arg)
            if image is None:
                return None
            terms.append(("v", image.name))
        elif isinstance(arg, Const):
            terms.append(("c", repr(arg.value)))
        else:
            terms.append(("k", arg))
    if atom.relation in COMMUTATIVE_RELATIONS:
        inputs = _commutative_input_positions(atom.relation)
        if len(inputs) == 2:
            i, j = inputs
            if terms[i] > terms[j]:
                terms[i], terms[j] = terms[j], terms[i]
    return (atom.relation, tuple(terms))


def _premise_has_swap_automorphism(premise: Sequence[Atom], a: Var, b: Var) -> bool:
    """Whether some variable bijection exchanging ``a`` and ``b`` maps the
    premise (as an atom multiset, modulo commutative operand order) onto
    itself.  Premises are tiny (≤ 8 atoms), so a direct backtracking search
    over atom-to-atom assignments is plenty fast.
    """
    atoms = list(premise)
    identity: Dict[Var, Var] = {}
    for atom in atoms:
        for var in atom.variables():
            identity.setdefault(var, var)
    mapping: Dict[Var, Var] = dict(identity)
    mapping[a], mapping[b] = b, a

    target_signatures: Dict[Tuple, int] = defaultdict(int)
    for atom in atoms:
        signature = _atom_signature(atom, identity)
        target_signatures[signature] += 1

    def assign(index: int, current: Dict[Var, Var]) -> bool:
        if index == len(atoms):
            produced: Dict[Tuple, int] = defaultdict(int)
            for atom in atoms:
                signature = _atom_signature(atom, current)
                if signature is None:
                    return False
                produced[signature] += 1
            return produced == target_signatures
        # The swap is total already (every variable has an image seeded from
        # the identity); the "search" is just the final multiset comparison
        # unless we later generalise to partial mappings.
        return assign(len(atoms), current)

    if assign(0, mapping):
        return True

    # The plain swap failed; search for a bijection that swaps a/b and is
    # free on every other variable.  Backtrack over images of the remaining
    # variables, pruning through per-atom signatures.
    variables = [v for v in identity if v not in (a, b)]
    candidates = list(identity)

    def extend(position: int, current: Dict[Var, Var], used: Set[Var]) -> bool:
        if position == len(variables):
            produced: Dict[Tuple, int] = defaultdict(int)
            for atom in atoms:
                signature = _atom_signature(atom, current)
                if signature is None:
                    return False
                produced[signature] += 1
            return produced == target_signatures
        var = variables[position]
        for image in candidates:
            if image in used:
                continue
            current[var] = image
            if extend(position + 1, current, used | {image}):
                return True
        current.pop(var, None)
        return False

    partial: Dict[Var, Var] = {a: b, b: a}
    return extend(0, partial, {a, b})


def _repair_relations(constraints: Sequence[Constraint]) -> Set[str]:
    """Commutative relations covered by an explicit commutativity TGD.

    A repair rule has the shape ``R(x, y, z) -> … R(y, x, z) …`` — a single
    premise atom over ``R`` with distinct variable operands whose swapped
    form appears in the conclusion.  When present, the chase rematerialises
    both operand orientations, so order-sensitive premises over ``R``
    elsewhere in the program still (eventually) match.
    """
    repaired: Set[str] = set()
    for constraint in constraints:
        if not isinstance(constraint, TGD) or len(constraint.premise) != 1:
            continue
        atom = constraint.premise[0]
        if atom.relation not in COMMUTATIVE_RELATIONS:
            continue
        inputs = _commutative_input_positions(atom.relation)
        if len(inputs) != 2:
            continue
        i, j = inputs
        args = atom.args
        if not all(isinstance(arg, Var) for arg in args):
            continue
        if args[i] == args[j]:
            continue
        swapped = list(args)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        for head in constraint.conclusion:
            if head.relation == atom.relation and tuple(head.args) == tuple(swapped):
                repaired.add(atom.relation)
                break
    return repaired


def _check_commutativity(program: str, constraints: Sequence[Constraint]) -> List[Finding]:
    """RPA006/RPA007 over premise atoms of order-normalised relations."""
    findings: List[Finding] = []
    repaired = _repair_relations(constraints)
    for constraint in constraints:
        target = f"{program}:{constraint.name}"
        for atom in constraint.premise:
            if atom.relation not in COMMUTATIVE_RELATIONS:
                continue
            inputs = _commutative_input_positions(atom.relation)
            if len(inputs) != 2:
                continue
            left, right = atom.args[inputs[0]], atom.args[inputs[1]]
            if isinstance(left, Const) or isinstance(right, Const):
                findings.append(Finding(
                    code="RPA007", target=target,
                    message=(
                        f"premise atom {atom!r} pins a constant into a "
                        f"commutative input position of {atom.relation}; "
                        f"canonical atoms carry class IDs there and can "
                        f"never match"
                    ),
                ))
                continue
            if not isinstance(left, Var) or not isinstance(right, Var) or left == right:
                continue
            if atom.relation in repaired:
                continue
            if _premise_has_swap_automorphism(constraint.premise, left, right):
                continue
            findings.append(Finding(
                code="RPA006", target=target,
                message=(
                    f"premise atom {atom!r} distinguishes the operand order "
                    f"of commutative {atom.relation} (operands ?{left.name} "
                    f"/ ?{right.name} play asymmetric roles) and the program "
                    f"has no {atom.relation} commutativity TGD: the swapped "
                    f"orientation of canonical atoms never matches"
                ),
            ))
    return findings


# ---------------------------------------------------------------------------
# Chase termination: the position graph
# ---------------------------------------------------------------------------

class PositionGraph:
    """The weak-acyclicity dependency graph of a TGD set.

    Nodes are (relation, argument position) pairs; edges carry the set of
    constraint names that contribute them, and special edges additionally
    remember which existential variable they feed.
    """

    def __init__(self, tgds: Sequence[TGD]):
        self.regular: Dict[Position, Set[Position]] = defaultdict(set)
        self.special: Dict[Position, Set[Position]] = defaultdict(set)
        #: (src, dst, is_special) -> contributing constraint names.
        self.edge_owners: Dict[Tuple[Position, Position, bool], Set[str]] = defaultdict(set)
        self.nodes: Set[Position] = set()
        for tgd in tgds:
            premise_positions: Dict[Var, List[Position]] = defaultdict(list)
            for atom in tgd.premise:
                for position, arg in enumerate(atom.args):
                    self.nodes.add((atom.relation, position))
                    if isinstance(arg, Var):
                        premise_positions[arg].append((atom.relation, position))
            conclusion_positions: Dict[Var, List[Position]] = defaultdict(list)
            for atom in tgd.conclusion:
                for position, arg in enumerate(atom.args):
                    self.nodes.add((atom.relation, position))
                    if isinstance(arg, Var):
                        conclusion_positions[arg].append((atom.relation, position))
            existentials = [
                var for var in conclusion_positions if var not in premise_positions
            ]
            for var, sources in premise_positions.items():
                propagated = conclusion_positions.get(var, ())
                if not propagated:
                    # Standard weak-acyclicity (Fagin et al.): only premise
                    # variables that also occur in the head contribute edges
                    # — dropped join variables carry nothing forward.
                    continue
                for src in sources:
                    for dst in propagated:
                        self.regular[src].add(dst)
                        self.edge_owners[(src, dst, False)].add(tgd.name)
                    for ex in existentials:
                        for dst in conclusion_positions[ex]:
                            self.special[src].add(dst)
                            self.edge_owners[(src, dst, True)].add(tgd.name)

    # -------------------------------------------------------------- SCCs
    def _successors(self, node: Position) -> Set[Position]:
        return self.regular.get(node, set()) | self.special.get(node, set())

    def strongly_connected_components(self) -> Dict[Position, int]:
        """Iterative Tarjan; returns node -> component id."""
        index: Dict[Position, int] = {}
        lowlink: Dict[Position, int] = {}
        on_stack: Set[Position] = set()
        stack: List[Position] = []
        component: Dict[Position, int] = {}
        counter = [0]
        comp_counter = [0]

        for root in sorted(self.nodes):
            if root in index:
                continue
            work: List[Tuple[Position, List[Position]]] = [
                (root, sorted(self._successors(root)))
            ]
            index[root] = lowlink[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                while successors:
                    succ = successors.pop()
                    if succ not in index:
                        index[succ] = lowlink[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, sorted(self._successors(succ))))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component[member] = comp_counter[0]
                        if member == node:
                            break
                    comp_counter[0] += 1
        return component

    def _path_within(self, start: Position, goal: Position,
                     component: Dict[Position, int]) -> List[Position]:
        """A successor path start→goal staying inside one SCC (BFS)."""
        comp = component[start]
        if start == goal:
            return [start]
        frontier = [start]
        parents: Dict[Position, Position] = {}
        seen = {start}
        while frontier:
            node = frontier.pop(0)
            for succ in sorted(self._successors(node)):
                if component.get(succ) != comp or succ in seen:
                    continue
                parents[succ] = node
                if succ == goal:
                    path = [goal]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                seen.add(succ)
                frontier.append(succ)
        return []

    def special_cycles(self) -> List[Tuple[List[Position], FrozenSet[str]]]:
        """Every special edge lying on a cycle, with a witness and owners.

        Returns (cycle, owning constraint names) pairs; the cycle is the
        node sequence ``[src, dst, …, src]`` through the special edge.
        """
        component = self.strongly_connected_components()
        witnesses: List[Tuple[List[Position], FrozenSet[str]]] = []
        for src in sorted(self.special):
            for dst in sorted(self.special[src]):
                if component.get(src) != component.get(dst):
                    continue
                back = self._path_within(dst, src, component)
                if not back:
                    continue
                cycle = [src] + back
                owners = frozenset(self.edge_owners[(src, dst, True)])
                witnesses.append((cycle, owners))
        return witnesses

    def cyclic_nodes(self) -> Set[Position]:
        """Nodes lying on any cycle (SCC of size > 1, or with a self loop)."""
        component = self.strongly_connected_components()
        sizes: Dict[int, int] = defaultdict(int)
        for node, comp in component.items():
            sizes[comp] += 1
        cyclic: Set[Position] = set()
        for node, comp in component.items():
            if sizes[comp] > 1 or node in self._successors(node):
                cyclic.add(node)
        return cyclic

    def reaches(self, start: Position, targets: Set[Position]) -> bool:
        if start in targets:
            return True
        frontier = [start]
        seen = {start}
        while frontier:
            node = frontier.pop()
            for succ in self._successors(node):
                if succ in targets:
                    return True
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        return False


def _render_position(position: Position) -> str:
    return f"{position[0]}.{position[1]}"


def _check_termination(program: str, constraints: Sequence[Constraint]) -> List[Finding]:
    """RPA008 (not weakly acyclic) / RPA009 (not richly acyclic)."""
    tgds = [c for c in constraints if isinstance(c, TGD)]
    if not tgds:
        return []
    graph = PositionGraph(tgds)
    findings: List[Finding] = []
    witnesses = graph.special_cycles()
    if witnesses:
        reported: Set[str] = set()
        for cycle, owners in witnesses:
            rendered = " -> ".join(_render_position(p) for p in cycle)
            for name in sorted(owners):
                if name in reported:
                    continue
                reported.add(name)
                findings.append(Finding(
                    code="RPA008", target=f"{program}:{name}",
                    message=(
                        f"existential edge lies on position-graph cycle "
                        f"[{rendered}]; chase termination is bounded only by "
                        f"the saturation budgets"
                    ),
                ))
        return findings
    # Weakly acyclic: grade the rich-acyclicity heuristic tier.
    cyclic = graph.cyclic_nodes()
    if not cyclic:
        return findings
    reported: Set[str] = set()
    for src in sorted(graph.special):
        for dst in sorted(graph.special[src]):
            if not graph.reaches(dst, cyclic):
                continue
            for name in sorted(graph.edge_owners[(src, dst, True)]):
                if name in reported:
                    continue
                reported.add(name)
                findings.append(Finding(
                    code="RPA009", target=f"{program}:{name}",
                    message=(
                        f"existential position {_render_position(dst)} can "
                        f"reach a positional cycle; the oblivious chase may "
                        f"diverge even though the set is weakly acyclic"
                    ),
                ))
    return findings


# ---------------------------------------------------------------------------
# Trigger completeness (compiled programs)
# ---------------------------------------------------------------------------

#: Mirrors ``repro.chase.program._METADATA_RELATIONS`` — relations matched
#: against per-class metadata rather than stored atoms.
_METADATA_RELATIONS = frozenset({"size"})


def _check_triggers(program: str, compiled) -> List[Finding]:
    """RPA005 over a compiled program's trigger metadata."""
    findings: List[Finding] = []
    for entry in compiled:
        constraint = entry.constraint
        target = f"{program}:{constraint.name}"
        premise_relations = set()
        for atom in constraint.premise:
            premise_relations.add(atom.relation)
        stored = premise_relations - _METADATA_RELATIONS
        missing = sorted(stored - set(entry.trigger_relations))
        if missing:
            findings.append(Finding(
                code="RPA005", target=target,
                message=(
                    f"premise joins over {missing} but the trigger-relation "
                    f"set is {sorted(entry.trigger_relations)}; semi-naive "
                    f"rounds would skip matches after those relations change"
                ),
            ))
        if (premise_relations & _METADATA_RELATIONS) and not entry.uses_shapes:
            findings.append(Finding(
                code="RPA005", target=target,
                message=(
                    "premise reads `size` (shape metadata) but the compiled "
                    "constraint does not watch the shape log; shape-driven "
                    "matches would be skipped"
                ),
            ))
        if isinstance(entry.is_tgd, bool) and entry.is_tgd != isinstance(constraint, TGD):
            findings.append(Finding(
                code="RPA005", target=target,
                message="compiled is_tgd flag contradicts the constraint kind",
            ))
    return findings


def _check_footprint_recordable(program: str, compiled) -> List[Finding]:
    """RPA010: trigger relations must lie inside the VREM schema.

    Plan footprints record catalog dependencies through schema relations
    anchored in ``name``/``scalar_name`` facts; selective revalidation
    (:meth:`repro.service.pool.PlanSessionPool.apply_delta`) is sound only
    if every fact that can re-trigger a constraint lives in that
    recordable set.  A compiled constraint triggering on a relation the
    schema does not declare could fire on facts no footprint ever sees.
    """
    findings: List[Finding] = []
    recordable = set(VREM_SCHEMA)
    for entry in compiled:
        target = f"{program}:{entry.constraint.name}"
        outside = sorted(set(entry.trigger_relations) - recordable)
        if outside:
            findings.append(Finding(
                code="RPA010", target=target,
                message=(
                    f"trigger relation(s) {outside} are outside the "
                    f"footprint-recordable VREM schema; a catalog delta "
                    f"could affect this constraint without intersecting "
                    f"any plan footprint"
                ),
            ))
    return findings


def _report_conclusion_tests(program: str, constraints: Sequence[Constraint]) -> List[Finding]:
    """RPA011 (info): how the compiled chase tests each TGD's conclusion.

    One finding per program.  Constraints the kernel refuses to compile are
    left out — they already carry an RPA003."""
    keyed = 0
    searched: List[str] = []
    for constraint in constraints:
        if not isinstance(constraint, TGD):
            continue
        try:
            kernel = kernel_for(constraint)
        except ChaseError:
            continue
        if kernel.keyed:
            keyed += 1
        else:
            searched.append(constraint.name)
    message = f"{keyed} TGD conclusions keyed, {len(searched)} searched"
    if searched:
        message += ": " + ", ".join(searched)
    return [Finding(code="RPA011", target=program, message=message)]


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def verify_constraints(
    constraints: Sequence[Constraint], program: str = "program"
) -> List[Finding]:
    """All constraint-level checks over a raw TGD/EGD list."""
    findings: List[Finding] = []
    findings.extend(_check_safety(program, constraints))
    findings.extend(_check_commutativity(program, constraints))
    findings.extend(_check_termination(program, constraints))
    findings.extend(_report_conclusion_tests(program, constraints))
    return findings


def verify_program(program_obj, name: str = "program") -> List[Finding]:
    """All checks — constraint-level plus compiled trigger metadata.

    Accepts a :class:`repro.chase.program.ConstraintProgram` (or anything
    with ``constraints`` and ``compiled`` attributes).
    """
    findings = verify_constraints(program_obj.constraints, name)
    findings.extend(_check_triggers(name, program_obj.compiled))
    findings.extend(_check_footprint_recordable(name, program_obj.compiled))
    return findings


__all__ = [
    "PositionGraph",
    "verify_constraints",
    "verify_program",
]
