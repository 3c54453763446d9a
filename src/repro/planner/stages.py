"""The staged planner pipeline: Encode → Saturate → Annotate → Extract → PostOpt.

Each stage is a small, stateless object transforming a :class:`PlanContext`;
the long-lived state (catalog, compiled constraint program, saturation
engine, plan store) lives on the owning
:class:`~repro.planner.session.PlanSession` and is only *read* here, options
through ``session.config``.  The split buys two things over the former
monolithic ``rewrite``:

* per-stage wall-clock timings on every
  :class:`~repro.core.result.RewriteResult` (the paper's RW_find becomes
  inspectable instead of a single number);
* reuse — the compiled constraints and engine are built once per session,
  not once per rewrite; within a rewrite, each instance state is costed
  once (one :class:`~repro.core.extraction.CostAnalysis`, read by the
  tighten bound, Annotate and Extract) and every expression costed shares
  one ``annotate_expression`` memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.chase.saturation import CostThresholdPruner, SaturationResult
from repro.core.extraction import (
    CostAnalysis,
    analyse,
    enumerate_equivalent_expressions,
    extract_best_expression,
)
from repro.core.matchain import optimize_matmul_chains
from repro.cost.model import NnzInfo, expression_cost
from repro.exceptions import RewriteError, UnknownMatrixError
from repro.lang import matrix_expr as mx
from repro.lang.visitor import collect_refs
from repro.vrem.encoder import LAEncoder
from repro.vrem.instance import VremInstance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.planner.session import PlanSession

#: Threshold slack and floor shared by the initial bound and tightening
#: (Example 7.2): keep same-cost alternatives around for tie-breaking and
#: never prune on toy-sized instances.
THRESHOLD_SLACK = 1.5
THRESHOLD_FLOOR = 1024.0

#: Equivalent rewritings kept on ``RewriteResult.alternatives``.
ALTERNATIVES_LIMIT = 6


@dataclass
class PlanContext:
    """Mutable per-rewrite state threaded through the stages."""

    session: "PlanSession"
    expr: mx.Expr
    instance: Optional[VremInstance] = None
    root: Optional[int] = None
    original_cost: float = float("inf")
    pruner: Optional[CostThresholdPruner] = None
    saturation: Optional[SaturationResult] = None
    best_expr: Optional[mx.Expr] = None
    best_cost: float = float("inf")
    alternatives: List[Tuple[mx.Expr, float]] = field(default_factory=list)
    used_views: List[str] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)
    # The cost analysis of the instance at (version, shape_version): tighten
    # builds one per changed round, and annotate / extract reuse the last one
    # when the final round changed nothing (the usual case).
    analysis: Optional[CostAnalysis] = None
    analysis_version: Optional[Tuple[int, int]] = None
    # One annotate_expression memo for the original, alternatives and plan.
    cost_memo: Dict[mx.Expr, NnzInfo] = field(default_factory=dict)

    def analyse(self) -> CostAnalysis:
        """The cost analysis of the instance as it is now (built if stale)."""
        version = (self.instance.version, self.instance.shape_version)
        if self.analysis_version != version:
            self.analysis = analyse(self.instance, self.session.catalog, self.session.estimator)
            self.analysis_version = version
        return self.analysis

    def cost_or_inf(self, expr: mx.Expr) -> float:
        try:
            return expression_cost(
                expr, self.session.catalog, self.session.estimator, self.cost_memo
            )
        except UnknownMatrixError:
            return float("inf")


class Stage:
    """Base class: a named transformation of the plan context."""

    name = "stage"

    def run(self, ctx: PlanContext) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class EncodeStage(Stage):
    """Cost the original expression and encode it on the VREM schema."""

    name = "encode"

    def run(self, ctx: PlanContext) -> None:
        session = ctx.session
        ctx.original_cost = ctx.cost_or_inf(ctx.expr)
        ctx.instance = VremInstance()
        encoder = LAEncoder(ctx.instance, session.catalog)
        ctx.root = encoder.encode(ctx.expr)
        self._register_normalized_matrices(session, encoder, ctx.expr)

    @staticmethod
    def _register_normalized_matrices(
        session: "PlanSession", encoder: LAEncoder, expr: mx.Expr
    ) -> None:
        """Add ``factorized`` facts for declared normalized matrices."""
        if not session.config.normalized_matrices:
            return
        referenced = collect_refs(expr)
        for matrix_name, (s_name, k_name, r_name) in session.config.normalized_matrices:
            if matrix_name not in referenced:
                continue
            m_cid = encoder.encode(mx.MatrixRef(matrix_name))
            s_cid = encoder.encode(mx.MatrixRef(s_name))
            k_cid = encoder.encode(mx.MatrixRef(k_name))
            r_cid = encoder.encode(mx.MatrixRef(r_name))
            encoder.instance.add_atom("factorized", (m_cid, s_cid, k_cid, r_cid))


class SaturateStage(Stage):
    """Chase the encoding with the session's compiled constraint program."""

    name = "saturate"

    def run(self, ctx: PlanContext) -> None:
        session = ctx.session
        if session.config.prune and ctx.original_cost != float("inf"):
            # The threshold bounds the size of any single new intermediate: an
            # intermediate larger than the entire original plan's cost can
            # never appear in a better plan (Example 7.2).
            ctx.pruner = CostThresholdPruner(
                max(ctx.original_cost * THRESHOLD_SLACK, THRESHOLD_FLOOR)
            )
        tighten = self._tighten_callback(ctx) if (
            ctx.pruner is not None and session.config.tighten_thresholds
        ) else None
        ctx.saturation = session.engine.saturate(ctx.instance, ctx.pruner, tighten)

    @staticmethod
    def _tighten_callback(ctx: PlanContext):
        """Bound for the next rounds: cost of the best rewriting found so far."""

        def bound(instance: VremInstance) -> Optional[float]:
            cost = ctx.analyse().costs.get(instance.find(ctx.root), float("inf"))
            if cost == float("inf"):
                return None
            return max(cost * THRESHOLD_SLACK, THRESHOLD_FLOOR)

        return bound


class AnnotateStage(Stage):
    """The cost analysis of the saturated instance (the last tighten's, if current)."""

    name = "annotate"

    def run(self, ctx: PlanContext) -> None:
        ctx.analyse()


class ExtractStage(Stage):
    """Cheapest derivation of the root, plus bounded alternatives."""

    name = "extract"

    def run(self, ctx: PlanContext) -> None:
        analysis = ctx.analyse()
        try:
            ctx.best_expr, _ = extract_best_expression(
                ctx.instance, ctx.root, analysis.infos, analysis=analysis
            )
        except RewriteError:
            ctx.best_expr = ctx.expr
        ctx.alternatives = [
            (alt, ctx.cost_or_inf(alt))
            for alt, _ in enumerate_equivalent_expressions(
                ctx.instance, ctx.root, analysis.infos, ALTERNATIVES_LIMIT, analysis=analysis
            )
        ]


class PostOptStage(Stage):
    """Syntactic post-optimization and final cost accounting."""

    name = "postopt"

    def run(self, ctx: PlanContext) -> None:
        session = ctx.session
        best = ctx.best_expr
        if session.catalog is not None:
            best = optimize_matmul_chains(best, session.catalog)
        best_cost = ctx.cost_or_inf(best)
        # Never return something we estimate to be worse than the original.
        if best_cost > ctx.original_cost:
            best, best_cost = ctx.expr, ctx.original_cost
        ctx.best_expr, ctx.best_cost = best, best_cost
        ctx.alternatives.sort(key=lambda pair: pair[1])
        view_names = {view.name for view in session.views}
        ctx.used_views = sorted(
            name for name in collect_refs(best) if name in view_names
        )


#: The canonical stage order of a plan session.
DEFAULT_STAGES = (
    EncodeStage(),
    SaturateStage(),
    AnnotateStage(),
    ExtractStage(),
    PostOptStage(),
)

__all__ = [
    "PlanContext",
    "Stage",
    "EncodeStage",
    "SaturateStage",
    "AnnotateStage",
    "ExtractStage",
    "PostOptStage",
    "DEFAULT_STAGES",
    "THRESHOLD_SLACK",
    "THRESHOLD_FLOOR",
]
