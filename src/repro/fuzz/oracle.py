"""The differential oracle: is a rewrite *actually* equivalent?

Each generated expression is planned through :meth:`repro.api.Engine.rewrite`
and the result is checked against two independent notions of equivalence —
neither of which trusts the planner:

**Static properties** (no execution):

* the rewritten plan's inferred shape equals the original's;
* ``canonical_fingerprint`` is stable when commutative operands are swapped
  (``A + B`` vs ``B + A`` must plan to the same canonical form);
* the estimator's sparsity annotation of every internal node is a sane
  bound: ``0 <= nnz <= cells``.

**Numeric backtesting** (small concrete instances):

* the *original* expression evaluated on the as-stated NumPy substrate is
  the reference value;
* the original is evaluated once more on the NumPy substrate over the
  catalog's dense twin (:meth:`~repro.data.catalog.Catalog.densified`), so
  the sparse and mixed sparse/dense kernels are checked against dense ones
  and not only against themselves;
* both the original and the rewritten plan are executed on every LA-capable
  backend (numpy, systemml_like, morpheus) and compared against the
  reference with an operator-aware tolerance (conditioning-sensitive
  operators — inversion, determinants, matrix exponentials/powers,
  element-wise division — get a looser relative tolerance);
* the relational backend, which declares ``supports_la=False``, must
  *refuse* the plan with :class:`~repro.exceptions.ExecutionError`; a
  silently returned value is itself a violation.

The plan is made under the estimator the oracle is named for
(``estimator_name``), the same one the sparsity check annotates with.  A
failed check is a :class:`Violation`; the full per-expression outcome —
the plan, its violations and each LA backend's execute time — is an
:class:`OracleReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import Engine
from repro.backends import (
    MorpheusBackend,
    NumpyBackend,
    RelationalEngine,
    SystemMLLikeBackend,
)
from repro.backends.base import to_dense
from repro.config import PlannerConfig
from repro.constraints.views import LAView
from repro.cost import resolve_estimator
from repro.cost.model import annotate_expression
from repro.core.result import RewriteResult
from repro.data.catalog import Catalog
from repro.exceptions import ExecutionError, ShapeError, UnknownMatrixError
from repro.lang import matrix_expr as mx
from repro.lang.shapes import shape_of

#: Operators whose results are sensitive to conditioning / cancellation;
#: expressions containing any of them are compared with looser tolerances.
RISKY_OPS = frozenset({"inv_m", "det", "exp", "adj", "mat_pow", "div_m"})

#: (rtol, atol) used when the expression contains no risky operator.
STRICT_TOLERANCE = (1e-5, 1e-8)
#: (rtol, atol) used when it does.
LOOSE_TOLERANCE = (2e-3, 1e-6)

#: LA-capable substrates the backtest executes on; the reference value is
#: always the as-stated evaluation on the first of these.
LA_BACKENDS: Tuple[str, ...] = ("numpy", "systemml_like", "morpheus")


def expression_ops(expr: mx.Expr) -> frozenset:
    """The set of operator names appearing anywhere in ``expr``."""
    ops = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        ops.add(node.op)
        stack.extend(node.children)
    return frozenset(ops)


def tolerance_for(expr: mx.Expr) -> Tuple[float, float]:
    """(rtol, atol) for numeric comparison, operator-aware."""
    if expression_ops(expr) & RISKY_OPS:
        return LOOSE_TOLERANCE
    return STRICT_TOLERANCE


@dataclass(frozen=True)
class Violation:
    """One failed equivalence check.

    ``kind`` is one of ``shape`` / ``fingerprint`` / ``sparsity`` /
    ``numeric`` / ``backend``; ``detail`` is a human-readable explanation
    carrying the backend name and the observed discrepancy.
    """

    kind: str
    detail: str

    def to_json(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}

    @classmethod
    def from_json(cls, payload: dict) -> "Violation":
        return cls(kind=str(payload["kind"]), detail=str(payload["detail"]))


@dataclass
class OracleReport:
    """Everything the oracle learned about one expression."""

    expr: mx.Expr
    result: Optional[RewriteResult] = None
    violations: List[Violation] = field(default_factory=list)
    #: ``backend name -> execute seconds`` for the rewritten plan.
    timings: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.violations and self.error is None


def _commute_once(expr: mx.Expr) -> Optional[mx.Expr]:
    """``expr`` with the operands of the *first* commutative node swapped.

    Returns ``None`` when the tree contains no commutative node.  Swapping a
    single node suffices: canonical fingerprints sort commutative child
    digests recursively, so one swap anywhere exercises the invariant.
    """

    def rebuild(node: mx.Expr) -> Tuple[mx.Expr, bool]:
        if node.commutative:
            left, right = node.children
            return type(node)(right, left), True
        for index, child in enumerate(node.children):
            swapped, done = rebuild(child)
            if done:
                children = list(node.children)
                children[index] = swapped
                return rebuild_node(node, tuple(children)), True
        return node, False

    swapped, done = rebuild(expr)
    return swapped if done else None


def rebuild_node(node: mx.Expr, children: Tuple[mx.Expr, ...]) -> mx.Expr:
    """A structurally identical node with ``children`` substituted in.

    Payload-carrying nodes (``MatPow``) keep their payload; leaves are
    returned unchanged.  Shared with the shrinker.
    """
    if not node.children:
        return node
    if isinstance(node, mx.MatPow):
        return mx.MatPow(children[0], node.exponent)
    cls = type(node)
    if node.arity == 1:
        return cls(children[0])
    return cls(children[0], children[1])


class DifferentialOracle:
    """Plans expressions through the Engine and cross-checks equivalence."""

    def __init__(
        self,
        catalog: Catalog,
        views: Sequence[LAView] = (),
        estimator_name: str = "mnc",
    ):
        self.catalog = catalog
        self.views = list(views)
        self.estimator_name = estimator_name
        self.estimator = resolve_estimator(estimator_name)
        self.engine = Engine(
            catalog, views=self.views, config=PlannerConfig(estimator=estimator_name)
        )
        self.backends = {
            "numpy": NumpyBackend(catalog),
            "systemml_like": SystemMLLikeBackend(catalog),
            "morpheus": MorpheusBackend(catalog),
        }
        self.relational = RelationalEngine(catalog)
        self.dense_twin = NumpyBackend(catalog.densified())

    # ------------------------------------------------------------------ checks
    def _check_shape(self, report: OracleReport) -> None:
        result = report.result
        try:
            original_shape = shape_of(result.original, self.catalog)
        except (ShapeError, UnknownMatrixError) as exc:
            report.violations.append(
                Violation("shape", f"original expression has no inferable shape: {exc}")
            )
            return
        try:
            best_shape = shape_of(result.best, self.catalog)
        except (ShapeError, UnknownMatrixError) as exc:
            report.violations.append(
                Violation("shape", f"rewritten plan has no inferable shape: {exc}")
            )
            return
        if best_shape != original_shape:
            report.violations.append(
                Violation(
                    "shape",
                    f"rewritten plan has shape {best_shape} but the original "
                    f"has {original_shape}: {result.best.to_string()}",
                )
            )

    def _check_commuted_fingerprint(self, report: OracleReport) -> None:
        commuted = _commute_once(report.expr)
        if commuted is None:
            return
        if commuted.canonical_fingerprint() != report.expr.canonical_fingerprint():
            report.violations.append(
                Violation(
                    "fingerprint",
                    "canonical_fingerprint changed when commutative operands "
                    f"were swapped: {report.expr.to_string()}",
                )
            )

    def _check_sparsity(self, report: OracleReport) -> None:
        try:
            annotations = annotate_expression(report.result.best, self.catalog, self.estimator)
        except (ShapeError, UnknownMatrixError) as exc:
            report.violations.append(
                Violation("sparsity", f"rewritten plan could not be annotated: {exc}")
            )
            return
        for node, info in annotations.items():
            if not node.children:
                continue
            if not np.isfinite(info.nnz) or info.nnz < 0:
                report.violations.append(
                    Violation(
                        "sparsity",
                        f"estimator produced nnz={info.nnz!r} for {node.op} "
                        f"node in {report.result.best.to_string()}",
                    )
                )
            elif info.shape is not None and info.nnz > info.cells + 1e-6:
                report.violations.append(
                    Violation(
                        "sparsity",
                        f"estimated nnz {info.nnz} exceeds the {info.shape} "
                        f"cell count for {node.op} node",
                    )
                )

    @staticmethod
    def _compare(report: OracleReport, label: str, value, reference: np.ndarray, expr) -> bool:
        """Record a ``numeric`` violation unless ``value`` matches the reference."""
        rtol, atol = tolerance_for(report.result.original)
        value = to_dense(value)
        if value.shape != reference.shape:
            report.violations.append(
                Violation(
                    "numeric",
                    f"{label} returned shape {value.shape}, reference is {reference.shape}",
                )
            )
            return False
        if not np.allclose(value, reference, rtol=rtol, atol=atol):
            delta = float(np.max(np.abs(value - reference)))
            report.violations.append(
                Violation(
                    "numeric",
                    f"{label} diverges from the reference by max |delta|={delta:.3e} "
                    f"(rtol={rtol}, atol={atol}): {expr.to_string()}",
                )
            )
            return False
        return True

    def _check_numeric(self, report: OracleReport) -> None:
        result = report.result
        try:
            reference_eval = self.backends[LA_BACKENDS[0]].execute_plan(
                result, use_rewritten=False
            )
        except ExecutionError as exc:
            report.error = f"reference evaluation failed: {exc}"
            return
        reference = to_dense(reference_eval.value)
        if not np.all(np.isfinite(reference)):
            report.error = "reference evaluation is not finite; expression skipped"
            return

        try:
            twin = self.dense_twin.execute_plan(result, use_rewritten=False)
        except ExecutionError as exc:
            report.violations.append(
                Violation("backend", f"numpy failed on the dense twin of the original: {exc}")
            )
        else:
            self._compare(report, "numpy/dense-twin", twin.value, reference, result.original)

        for name in LA_BACKENDS:
            backend = self.backends[name]
            for use_rewritten, label in ((False, "original"), (True, "rewritten")):
                if name == LA_BACKENDS[0] and not use_rewritten:
                    evaluation = reference_eval
                else:
                    try:
                        evaluation = backend.execute_plan(result, use_rewritten=use_rewritten)
                    except ExecutionError as exc:
                        report.violations.append(
                            Violation(
                                "backend",
                                f"{name} failed to execute the {label} plan: {exc}",
                            )
                        )
                        continue
                expr = result.best if use_rewritten else result.original
                if self._compare(report, f"{name}/{label}", evaluation.value, reference, expr):
                    if use_rewritten:
                        report.timings[name] = evaluation.seconds

        # The relational engine declares supports_la=False: it must refuse.
        try:
            self.relational.execute_plan(result, use_rewritten=True)
        except ExecutionError:
            pass
        else:
            report.violations.append(
                Violation(
                    "backend",
                    "relational backend silently executed an LA plan it "
                    "declares unsupported",
                )
            )

    # ------------------------------------------------------------------ entry
    def check(self, expr: mx.Expr) -> OracleReport:
        """Plan ``expr`` and run every equivalence check against the plan."""
        report = OracleReport(expr=expr)
        try:
            report.result = self.engine.rewrite(expr)
        except Exception as exc:  # planner crash on a valid expression IS a finding
            report.violations.append(
                Violation("planner", f"planner raised {type(exc).__name__}: {exc}")
            )
            return report
        self._check_shape(report)
        self._check_commuted_fingerprint(report)
        self._check_sparsity(report)
        self._check_numeric(report)
        return report


__all__ = [
    "LA_BACKENDS",
    "LOOSE_TOLERANCE",
    "RISKY_OPS",
    "STRICT_TOLERANCE",
    "DifferentialOracle",
    "OracleReport",
    "Violation",
    "expression_ops",
    "rebuild_node",
    "tolerance_for",
]
