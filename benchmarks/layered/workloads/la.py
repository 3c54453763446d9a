"""Shared pieces of the LA-pipeline ops: counters, references, traced decomposition."""

from __future__ import annotations

import time
from typing import Callable, Dict, Mapping, Optional

from repro.api.schema import PlanRequest, PlanResponse
from repro.backends.base import values_allclose
from repro.benchkit.expected import EXPECTED_REWRITES, build_expected_rewrite
from repro.core.result import RewriteResult
from repro.cost.model import expression_cost
from repro.lang import matrix_expr as mx
from repro.planner.session import PlanSession
from repro.planner.stages import PlanContext
from repro.service.service import ServiceRequest, ServiceResult

from benchmarks.layered.tracer import Tracer
from benchmarks.layered.workloads.base import OpSample, Workload

#: Per-layer count metric -> ``SaturationResult`` attribute.
CHASE_COUNTERS = {
    "chase.rounds": "rounds",
    "chase.matches_attempted": "matches_attempted",
    "chase.atoms_materialized": "atoms_materialized",
    "chase.delta_attempts": "delta_attempts",
    "chase.pruned": "pruned_applications",
}

#: Planner stage name -> span name (the layer that does the stage's work).
STAGE_SPANS = {
    "encode": "vrem.encode",
    "saturate": "chase.saturate",
    "annotate": "cost.annotate",
    "extract": "core.extract",
    "postopt": "core.postopt",
}

RTOL, ATOL = 1e-4, 1e-5


def plan_counters(result: RewriteResult) -> Dict[str, float]:
    """The exact, repeatable numbers of one cold plan."""
    counters = {
        metric: float(getattr(result.saturation, attribute))
        for metric, attribute in CHASE_COUNTERS.items()
    }
    counters["cost.original"] = float(result.original_cost)
    counters["cost.best"] = float(result.best_cost)
    counters["planner.changed_plans"] = float(result.changed)
    counters["views_used"] = float(len(result.used_views))
    return counters


def timed(call: Callable, *args):
    start = time.perf_counter()
    value = call(*args)
    return time.perf_counter() - start, value


def check_values(
    name: str,
    expr: mx.Expr,
    best: mx.Expr,
    backend,
    roles: Optional[Mapping[str, mx.Expr]] = None,
) -> Optional[str]:
    """Why the chosen plan is wrong, judged without the optimiser: its value
    against the pipeline as stated on numpy, and against the paper's
    hand-written rewrite where ``repro.benchkit.expected`` has one."""
    stated = backend.evaluate(expr)
    chosen = backend.evaluate(best)
    if not values_allclose(stated, chosen, rtol=RTOL, atol=ATOL):
        return f"value of chosen plan {best.to_string()} differs from the pipeline as stated"
    if roles is not None and name in EXPECTED_REWRITES:
        expected = backend.evaluate(build_expected_rewrite(name, roles))
        if not values_allclose(expected, chosen, rtol=RTOL, atol=ATOL):
            return f"value of chosen plan {best.to_string()} differs from the paper's rewrite"
    return None


def exec_beside(sample: OpSample, expr: mx.Expr, best: mx.Expr, backend) -> None:
    """Time the as-stated pipeline and the chosen plan on numpy for
    ``payoff_x``, outside the op's own latency."""
    sample.parts["q_exec"], _ = timed(backend.evaluate, expr)
    sample.parts["rw_exec"], _ = timed(backend.evaluate, best)


def trace_plan_op(
    workload: Workload,
    tracer: Tracer,
    op: str,
    build_expr: Callable[[], mx.Expr],
    decomposed: PlanSession,
    whole: PlanSession,
) -> RewriteResult:
    """One cold plan, taken apart from outside.

    ``decomposed`` plans ``op`` stage by stage under spans (the five
    ``Stage.run`` calls are all ``PlanSession.rewrite`` does on a miss);
    ``whole`` plans a second fresh AST through ``PlanSession.rewrite`` in
    one span, which gives the untraced time of the same call, the planner's
    own ``stage_timings`` to cross-check the spans against, and a warm
    session for the hit probe.  Both sessions must be cold for ``op``.
    """
    with tracer.span("lang.build_fingerprint", op):
        expr = build_expr()
        expr.fingerprint()
    with tracer.span("planner.rewrite_staged", op):
        ctx = PlanContext(session=decomposed, expr=expr)
        for stage in decomposed.stages:
            with tracer.span(STAGE_SPANS[stage.name], op):
                stage.run(ctx)
    expr = build_expr()
    with tracer.span("planner.rewrite_cold", op):
        result = whole.rewrite(expr)
    with tracer.span("planner.rewrite_warm", op):
        warm = whole.rewrite(expr)
    if result.cache_hit or not warm.cache_hit:
        raise AssertionError(f"{op}: traced sessions were not cold-then-warm")
    if ctx.best_expr != result.best:
        raise AssertionError(
            f"{op}: stage-by-stage plan {ctx.best_expr.to_string()} differs from "
            f"PlanSession.rewrite's {result.best.to_string()}"
        )
    workload.traced_counters[op] = plan_counters(result)
    reported = workload.reported_stage_seconds
    for stage, seconds in result.stage_timings.items():
        key = (STAGE_SPANS[stage], op)
        reported[key] = min(seconds, reported.get(key, seconds))
    with tracer.span("cost.expression_cost", op):
        expression_cost(expr, whole.catalog, whole.estimator)
    with tracer.span("api.schema_roundtrip", op):
        request = PlanRequest(expression=expr, name=op, execute=False)
        PlanRequest.from_json(request.to_json(), execute_default=False)
        response = PlanResponse.from_result(
            ServiceResult(request=ServiceRequest(expr, name=op, execute=False), rewrite=result)
        )
        PlanResponse.from_json(response.to_json())
    return result


def trace_exec_op(tracer: Tracer, op: str, result: RewriteResult, backends: Mapping) -> None:
    """Run the as-stated pipeline on numpy and the chosen plan on every
    given backend (``{"numpy": ..., "systemml_like": ..., "morpheus": ...}``)."""
    with tracer.span("backends.numpy_q_exec", op):
        backends["numpy"].evaluate(result.original)
    for name, backend in backends.items():
        with tracer.span(f"backends.{name}_rw_exec", op):
            backend.execute_plan(result)
