"""Minimum-cost extraction from a saturated VREM instance.

After the chase, every equivalence class of the instance may have several
*derivations*: a leaf fact (a stored base matrix or materialized view, a
scalar constant, the identity / zero matrix) or any operation atom producing
it.  Each derivation of the query's root class corresponds to one equivalent
rewriting; its cost is the summed size of the intermediates it materialises
(§7.1).

Extraction computes, by a Bellman-style fixpoint over classes, the cheapest
derivation of every class and reconstructs the cheapest expression for the
root.  This is the realisation of the provenance-based enumeration of
minimal rewritings with cost pruning (Prune_prov, §7.3): derivations are
costed exactly once per class (memoisation), partial derivations costlier
than the best-known full derivation are never expanded, and cyclic
derivations (introduced e.g. by involution constraints) are priced out by the
fixpoint.  Like the size annotation, that fixpoint runs in semi-naive passes:
a class is rescanned only once an input of it got cheaper since its last scan.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.cost.model import NnzInfo, Producer, annotate_producers, instance_producers
from repro.data.catalog import Catalog
from repro.exceptions import DecodingError, RewriteError
from repro.lang import matrix_expr as mx
from repro.vrem.atoms import Atom
from repro.vrem.decoder import decode_atom_to_expr, decode_fact_to_expr
from repro.vrem.instance import VremInstance

#: Small per-operator charge that breaks ties in favour of smaller expressions
#: and guarantees strictly increasing cost along any derivation cycle.
_OPERATOR_EPSILON = 1e-3

_LEAF_RELATIONS = ("name", "scalar_const", "scalar_name", "identity", "zero")


@dataclass(slots=True)
class _Derivation:
    """One way of producing a class: either a leaf fact or an op atom."""

    atom: Atom
    is_leaf: bool
    output_index: int = 0
    input_classes: Tuple[int, ...] = ()


@dataclass
class CostAnalysis:
    """One instance state, costed once: per-class (shape, nnz) ``infos``,
    every class's ``derivations``, and the DP's cheapest ``costs`` /
    ``choices``.  Tighten, Annotate, Extract and the alternatives read it."""

    infos: Dict[int, NnzInfo]
    derivations: Dict[int, List[_Derivation]]
    costs: Dict[int, float]
    choices: Dict[int, _Derivation]


def analyse(instance: VremInstance, catalog: Optional[Catalog], estimator) -> CostAnalysis:
    """Annotate and cost every class of a quiescent ``instance`` from one
    walk of its atoms."""
    producers = instance_producers(instance)
    infos = annotate_producers(instance, producers, catalog, estimator)
    return _analysis(instance, producers, infos)


def _analysis(
    instance: VremInstance, producers: List[Producer], infos: Dict[int, NnzInfo]
) -> CostAnalysis:
    """The analysis of ``instance`` under the given ``infos``."""
    derivations: Dict[int, List[_Derivation]] = {}
    choices: Dict[int, _Derivation] = {}
    for relation in _LEAF_RELATIONS:
        for atom in instance._by_relation.get(relation, ()):
            derivation = _Derivation(atom, True)
            derivations.setdefault(atom.args[0], []).append(derivation)
            # A class's leaves come first: its first one costs nothing.
            choices.setdefault(atom.args[0], derivation)
    for atom, _, classes, outputs in producers:
        for out_index, cid, _ in outputs:
            derivations.setdefault(cid, []).append(_Derivation(atom, False, out_index, classes))
    costs = dict.fromkeys(choices, 0.0)
    _compute_costs(derivations, infos, costs, choices)
    return CostAnalysis(infos, derivations, costs, choices)


def _class_size(cid: int, infos: Dict[int, NnzInfo]) -> float:
    info = infos.get(cid)
    return info.size if info is not None else 1.0


def _compute_costs(
    derivations: Dict[int, List[_Derivation]],
    infos: Dict[int, NnzInfo],
    costs: Dict[int, float],
    choices: Dict[int, _Derivation],
    max_passes: int = 25,
) -> None:
    """Fixpoint of the cheapest derivation cost of every class, from the
    leaves already in ``costs`` / ``choices``, in the semi-naive passes of
    :func:`repro.cost.model.annotate_producers`."""
    inf = float("inf")
    readers: Dict[int, List[int]] = {}  # complete once the first pass is over
    dirty: Optional[Set[int]] = None  # None: the first pass, which scans all
    for _ in range(max_passes):
        later: Set[int] = set()
        for position, (cid, cands) in enumerate(derivations.items()):
            if dirty is None:
                for derivation in cands:
                    for input_cid in derivation.input_classes:
                        readers.setdefault(input_cid, []).append(position)
            elif position not in dirty:
                continue
            best_cost = costs.get(cid, inf)
            best_choice = choices.get(cid)
            op_cost = _class_size(cid, infos) + _OPERATOR_EPSILON
            for derivation in cands:
                if derivation.is_leaf:
                    candidate = 0.0
                else:
                    candidate = op_cost
                    for input_cid in derivation.input_classes:
                        input_cost = costs.get(input_cid)
                        if input_cost is None:  # infeasible: never beats best_cost
                            candidate = inf
                            break
                        candidate += input_cost
                if candidate < best_cost - 1e-12:
                    best_cost = candidate
                    best_choice = derivation
            if best_choice is not None and (cid not in costs or best_cost < costs[cid] - 1e-12):
                costs[cid] = best_cost
                choices[cid] = best_choice
                for reader in readers.get(cid, ()):
                    if reader <= position:
                        later.add(reader)
                    elif dirty is not None:
                        dirty.add(reader)
        if not later:
            break
        dirty = later


def _reconstruct(
    cid: int,
    instance: VremInstance,
    choices: Dict[int, _Derivation],
    derivation: Optional[_Derivation] = None,
    _stack: Optional[set] = None,
) -> mx.Expr:
    """The expression of ``cid``'s chosen derivation (``derivation`` overrides
    the choice of ``cid`` itself)."""
    _stack = _stack if _stack is not None else set()
    cid = instance.find(cid)
    if cid in _stack:
        raise DecodingError(f"cyclic cheapest derivation through class {cid}")
    derivation = derivation or choices.get(cid)
    if derivation is None:
        raise DecodingError(f"class {cid} has no extractable derivation")
    if derivation.is_leaf:
        shape = instance.shape(cid)
        return decode_fact_to_expr(derivation.atom, shape)
    _stack.add(cid)
    try:
        children = [
            _reconstruct(input_cid, instance, choices, None, _stack)
            for input_cid in derivation.input_classes
        ]
    finally:
        _stack.discard(cid)
    return decode_atom_to_expr(derivation.atom, derivation.output_index, children)


def extract_best_expression(
    instance: VremInstance,
    root: int,
    infos: Dict[int, NnzInfo],
    analysis: Optional[CostAnalysis] = None,
) -> Tuple[mx.Expr, float]:
    """The cheapest equivalent expression of the root class, with its DP cost.

    ``analysis``, when given, is read instead of costing ``instance`` under
    ``infos``.
    """
    analysis = analysis or _analysis(instance, instance_producers(instance), infos)
    root = instance.find(root)
    if root not in analysis.choices:
        raise RewriteError("the root class has no extractable derivation")
    return _reconstruct(root, instance, analysis.choices), analysis.costs[root]


def enumerate_equivalent_expressions(
    instance: VremInstance,
    root: int,
    infos: Dict[int, NnzInfo],
    limit: int = 8,
    max_depth: int = 12,
    analysis: Optional[CostAnalysis] = None,
) -> List[Tuple[mx.Expr, float]]:
    """Enumerate up to ``limit`` distinct equivalent expressions of the root.

    Expressions are produced cheapest-first using the per-class optimal costs
    as lower bounds (a best-first search over the choice of the root's
    derivation and, recursively, of its inputs' cheapest derivations).  This
    mirrors Figure 4, where several equivalent reorderings of a pipeline are
    listed alongside the views-based rewriting.  ``analysis``, when given, is
    read instead of costing ``instance`` under ``infos``.
    """
    analysis = analysis or _analysis(instance, instance_producers(instance), infos)
    infos, costs = analysis.infos, analysis.costs
    root = instance.find(root)
    results: List[Tuple[mx.Expr, float]] = []
    seen = set()

    root_candidates: List[Tuple[float, int, _Derivation]] = []
    for order, derivation in enumerate(analysis.derivations.get(root, [])):
        if derivation.is_leaf:
            bound = 0.0
        elif all(input_cid in costs for input_cid in derivation.input_classes):
            bound = _class_size(root, infos) + _OPERATOR_EPSILON
            for input_cid in derivation.input_classes:
                bound += costs[input_cid]
        else:
            continue
        heapq.heappush(root_candidates, (bound, order, derivation))

    while root_candidates and len(results) < limit:
        bound, _, derivation = heapq.heappop(root_candidates)
        try:
            expr = _reconstruct(root, instance, analysis.choices, derivation)
        except DecodingError:
            continue
        key = expr.signature()
        if key in seen:
            continue
        seen.add(key)
        results.append((expr, bound))
    results.sort(key=lambda pair: pair[1])
    return results
