"""The intermediate-result-size cost model (§7.1).

``γ(E)`` is the sum of the estimated sizes of the intermediate results
produced when ``E`` is evaluated in its stated syntactic order.  Sizes count
non-zero cells only (sparse intermediates are stored in economical formats),
and the estimation of non-zeros is delegated to a pluggable sparsity
estimator (naive worst-case or MNC).

The model is *monotonic* — an expression never costs less than any of its
sub-expressions — which is the precondition of the soundness/completeness
theorems of §8; tests assert this property.

Two consumers exist:

* :func:`expression_cost` — cost of a concrete AST, used to cost the original
  pipeline and candidate rewritings;
* :func:`annotate_producers` — per-class size estimates on a saturated VREM
  instance, for :func:`repro.core.extraction.analyse` (§7.3): a fixpoint in
  semi-naive passes, re-running a producer only when an input class was
  re-annotated since its last run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.data.catalog import Catalog
from repro.exceptions import UnknownMatrixError
from repro.lang import matrix_expr as mx
from repro.lang.shapes import shape_of
from repro.vrem.atoms import Atom, Const
from repro.vrem.instance import VremInstance
from repro.vrem.schema import VREM_SCHEMA

Shape = Tuple[int, int]


@dataclass(slots=True)
class NnzInfo:
    """Size information about one (sub-)result.

    ``nnz`` is the estimated number of non-zero cells; ``row_counts`` /
    ``col_counts`` are the optional MNC histograms.
    """

    shape: Optional[Shape]
    nnz: float
    row_counts: Optional[np.ndarray] = None
    col_counts: Optional[np.ndarray] = None

    @property
    def size(self) -> float:
        """The size charged by the cost model for materialising this result."""
        return float(self.nnz)

    @property
    def cells(self) -> float:
        if self.shape is None:
            return self.nnz
        return float(self.shape[0]) * float(self.shape[1])

    @property
    def sparsity(self) -> float:
        cells = self.cells
        return self.nnz / cells if cells else 1.0


_SCALAR_INFO_NNZ = 1.0


def _leaf_info(expr: mx.Expr, catalog: Optional[Catalog], estimator) -> NnzInfo:
    if isinstance(expr, (mx.ScalarConst, mx.ScalarRef)):
        return NnzInfo(shape=(1, 1), nnz=_SCALAR_INFO_NNZ)
    if isinstance(expr, mx.Identity):
        return NnzInfo(shape=(expr.n, expr.n), nnz=float(expr.n))
    if isinstance(expr, mx.Zero):
        return NnzInfo(shape=(expr.rows, expr.cols), nnz=0.0)
    if isinstance(expr, mx.MatrixRef):
        if catalog is None or not catalog.has_matrix(expr.name):
            raise UnknownMatrixError(
                f"matrix {expr.name!r} is not in the catalog; cannot estimate its size"
            )
        data = catalog.matrix(expr.name) if catalog.has_matrix_values(expr.name) else None
        return estimator.leaf_info(catalog.meta(expr.name), data)
    raise UnknownMatrixError(f"expression {expr!r} is not a leaf")


def annotate_expression(
    expr: mx.Expr,
    catalog: Optional[Catalog],
    estimator,
    annotations: Optional[Dict[mx.Expr, NnzInfo]] = None,
) -> Dict[mx.Expr, NnzInfo]:
    """Bottom-up (shape, nnz) annotation of every node of ``expr``.

    Nodes already in ``annotations`` are read, the others are annotated into
    it: a node's annotation depends only on the node, the catalog and the
    estimator, so one dict can memoise many expressions.
    """
    annotations = {} if annotations is None else annotations
    shapes: Dict[mx.Expr, Shape] = {}

    def visit(node: mx.Expr) -> NnzInfo:
        cached = annotations.get(node)
        if cached is not None:
            return cached
        if not node.children:
            info = _leaf_info(node, catalog, estimator)
        else:
            child_infos = [visit(child) for child in node.children]
            shape = None
            if catalog is not None:
                try:
                    shape = shape_of(node, catalog, shapes)
                except UnknownMatrixError:
                    shape = None
            if shape is None:
                # Derive from children when the catalog cannot resolve leaves.
                shape = child_infos[0].shape
            relation = node.op
            info = estimator.propagate(relation, shape, child_infos)
        annotations[node] = info
        return info

    visit(expr)
    return annotations


def expression_cost(
    expr: mx.Expr,
    catalog: Optional[Catalog],
    estimator,
    annotations: Optional[Dict[mx.Expr, NnzInfo]] = None,
) -> float:
    """γ(E): the summed size of every intermediate produced below the root.

    Leaves (stored matrices, scalars) cost nothing to scan and the root is
    produced by every equivalent plan alike, so only *strictly internal*
    nodes are charged — exactly the accounting of Example 7.1.  Nodes
    missing from ``annotations`` are annotated into it.
    """
    annotations = annotate_expression(expr, catalog, estimator, annotations)

    total = 0.0

    def visit(node: mx.Expr, is_root: bool) -> None:
        nonlocal total
        if node.children and not is_root:
            info = annotations.get(node)
            if info is None:
                info = annotate_expression(node, catalog, estimator, annotations)[node]
            total += info.size
        for child in node.children:
            visit(child, False)

    visit(expr, True)
    return total


# ---------------------------------------------------------------------------
# Per-class annotation of a saturated instance
# ---------------------------------------------------------------------------


#: One operation atom as the class analysis reads it: the atom, the class
#: of each input position (``None`` for a constant argument), the input
#: classes alone, and ``(output index, class, class shape)`` of each class
#: output.
Producer = Tuple[
    Atom, Tuple[Optional[int], ...], Tuple[int, ...], Tuple[Tuple[int, int, Optional[Shape]], ...]
]

_CONSTANT_INFO = NnzInfo(shape=(1, 1), nnz=1.0)


def instance_producers(instance: VremInstance) -> List[Producer]:
    """The operation atoms of a quiescent ``instance`` in atom order (one
    walk).  Stored atoms are canonical at rest, so their class arguments
    are read as stored."""
    specs, shape, producers = VREM_SCHEMA, instance._shape.get, []
    for atom in instance._atoms.values():
        spec = specs[atom.relation]
        if not spec.functional:
            continue
        args = atom.args
        inputs = classes = args[: len(spec.input_positions)]
        if Const in map(type, inputs):  # a constant input (``mat_pow``'s exponent)
            inputs = tuple([arg if type(arg) is int else None for arg in inputs])
            classes = tuple([arg for arg in inputs if arg is not None])
        outputs = tuple([
            (index, args[pos], shape(args[pos]))
            for index, pos in enumerate(spec.output_positions)
            if type(args[pos]) is int
        ])
        producers.append((atom, inputs, classes, outputs))
    return producers


def annotate_instance_classes(
    instance: VremInstance,
    catalog: Optional[Catalog],
    estimator,
    max_passes: int = 12,
) -> Dict[int, NnzInfo]:
    """Estimate (shape, nnz) for every equivalence class of an instance.

    Classes carrying a ``name`` atom are seeded from the catalog; classes
    carrying scalar facts get size 1; remaining classes are estimated by
    propagating through their producer atoms, keeping the *minimum* estimate
    across derivations (all derivations of a class denote the same value, so
    the tightest estimate is the most informative one).  The propagation is
    iterated to a fixpoint (bounded by ``max_passes``).
    """
    return annotate_producers(
        instance, instance_producers(instance), catalog, estimator, max_passes
    )


def annotate_producers(
    instance: VremInstance,
    producers: List[Producer],
    catalog: Optional[Catalog],
    estimator,
    max_passes: int = 12,
) -> Dict[int, NnzInfo]:
    """:func:`annotate_instance_classes` over an already walked producer list.

    Semi-naive passes: the first runs every producer in order; a later one
    re-runs, in order, the producers reading a class re-annotated at or
    after their run in the pass before, and within a pass a producer
    further down re-runs once a class it reads is re-annotated — every
    update full passes would make.  A skipped run would propose what it
    did last time, which cannot beat values that only drop."""
    infos: Dict[int, NnzInfo] = {}
    by_relation, shape = instance._by_relation, instance._shape.get

    # Seeds: named matrices, scalars, identity / zero.
    for atom in by_relation.get("name", ()):
        cid = atom.args[0]
        name = atom.args[1].value
        if catalog is not None and catalog.has_matrix(name):
            data = catalog.matrix(name) if catalog.has_matrix_values(name) else None
            candidate = estimator.leaf_info(catalog.meta(name), data)
        else:
            known = shape(cid)
            nnz = float(known[0] * known[1]) if known else 1.0
            candidate = NnzInfo(shape=known, nnz=nnz)
        existing = infos.get(cid)
        if existing is None or candidate.nnz < existing.nnz:
            infos[cid] = candidate
    for relation in ("scalar_const", "scalar_name"):
        for atom in by_relation.get(relation, ()):
            infos.setdefault(atom.args[0], NnzInfo(shape=(1, 1), nnz=1.0))
    for atom in by_relation.get("identity", ()):
        cid = atom.args[0]
        known = shape(cid)
        infos.setdefault(cid, NnzInfo(shape=known, nnz=float(known[0]) if known else 1.0))
    for atom in by_relation.get("zero", ()):
        cid = atom.args[0]
        infos.setdefault(cid, NnzInfo(shape=shape(cid), nnz=0.0))

    # Fixpoint propagation over producer atoms.
    propagate, get = estimator.propagate, infos.get
    readers: Dict[int, List[int]] = {}  # complete once the first pass is over
    dirty: Optional[Set[int]] = None  # None: the first pass, which runs all
    for _ in range(max_passes):
        later: Set[int] = set()
        for position, (atom, inputs, classes, outputs) in enumerate(producers):
            if dirty is None:
                for cid in classes:
                    readers.setdefault(cid, []).append(position)
            elif position not in dirty:
                continue
            input_infos = []
            for input_cid in inputs:
                info = _CONSTANT_INFO if input_cid is None else get(input_cid)
                if info is None:
                    break
                input_infos.append(info)
            else:
                for _, cid, out_shape in outputs:
                    candidate = propagate(atom.relation, out_shape, input_infos)
                    existing = get(cid)
                    if existing is None or candidate.nnz < existing.nnz - 1e-9:
                        infos[cid] = candidate
                        for reader in readers.get(cid, ()):
                            if reader <= position:
                                later.add(reader)
                            elif dirty is not None:
                                dirty.add(reader)
        if not later:
            break
        dirty = later

    # Any class still unknown gets a dense default based on its shape.
    for cid in instance.classes():
        if cid not in infos:
            known = shape(cid)
            nnz = float(known[0] * known[1]) if known else 1.0
            infos[cid] = NnzInfo(shape=known, nnz=nnz)
    return infos
