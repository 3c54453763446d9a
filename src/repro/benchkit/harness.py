"""Benchmark harness: original vs rewritten execution of pipelines.

For one pipeline the harness reports the quantities the paper plots:

* ``q_exec``   — execution time of the pipeline as stated,
* ``rw_find``  — HADAD's rewriting time (optimization overhead),
* ``rw_exec``  — execution time of the chosen rewriting,
* ``speedup``  — q_exec / rw_exec,
* ``overhead`` — rw_find / (q_exec + rw_find) (§9.1.3),

plus the estimated costs and a numerical-equivalence check of the two
results (soundness in practice, not just on paper).

The ``optimizer`` argument of :func:`run_pipeline` is anything exposing the
``rewrite`` protocol — a :class:`repro.api.Engine` or a
:class:`~repro.planner.PlanSession`.  :func:`materialize_views` performs the
offline view materialisation the workloads and examples share, and
:class:`TenantEngineFactory` builds the same multi-tenant engine in the
gateway process and in every spawned planner worker.  Sweeps and timing
gates live in ``benchmarks/layered/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends.base import values_allclose
from repro.backends.numpy_backend import NumpyBackend
from repro.constraints.views import LAView
from repro.core.result import RewriteResult
from repro.data.catalog import Catalog
from repro.data.matrix import MatrixData
from repro.lang import matrix_expr as mx


@dataclass
class PipelineRun:
    """Measurements for one pipeline on one backend."""

    name: str
    q_exec: float
    rw_find: float
    rw_exec: float
    original_cost: float
    best_cost: float
    changed: bool
    equivalent: Optional[bool]
    rewrite: str
    used_views: List[str] = field(default_factory=list)
    cache_hit: bool = False
    stage_timings: Dict[str, float] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.rw_exec <= 0:
            return float("inf")
        return self.q_exec / self.rw_exec

    @property
    def overhead(self) -> float:
        denominator = self.q_exec + self.rw_find
        return self.rw_find / denominator if denominator > 0 else 0.0

    def as_row(self) -> str:
        """One formatted report line (the shape of the paper's figures)."""
        equiv = "=" if self.equivalent else ("?" if self.equivalent is None else "!")
        return (
            f"{self.name:8s} Qexec={self.q_exec * 1000:9.2f}ms "
            f"RWfind={self.rw_find * 1000:7.2f}ms RWexec={self.rw_exec * 1000:9.2f}ms "
            f"speedup={self.speedup:7.2f}x overhead={self.overhead * 100:5.2f}% {equiv} "
            f"{self.rewrite}"
        )


def materialize_views(views: Sequence[LAView], catalog: Catalog, backend=None) -> None:
    """Compute and register the stored results of materialized views.

    This is the offline step the paper performs when it materializes V_exp
    on disk: each view definition is evaluated once and the result is
    registered in the catalog under the view's storage name, so rewritten
    pipelines can scan it.
    """
    backend = backend if backend is not None else NumpyBackend(catalog)
    for view in views:
        if catalog.has_matrix_values(view.name):
            continue
        value = backend.evaluate(view.definition)
        if hasattr(value, "shape") and getattr(value, "ndim", 2) >= 1:
            data = MatrixData.from_dense(view.name, value) if not hasattr(value, "tocsr") else MatrixData.from_sparse(view.name, value)
        else:
            data = MatrixData.from_dense(view.name, [[float(value)]])
        catalog.drop_matrix(view.name)
        catalog.register_matrix(data)


def run_pipeline(
    name: str,
    expr: mx.Expr,
    optimizer,
    backend,
    check_equivalence: bool = True,
    execute: bool = True,
) -> PipelineRun:
    """Optimize and (optionally) execute one pipeline, original vs rewrite.

    ``optimizer`` is anything with a ``rewrite(expr)`` method — a
    :class:`repro.api.Engine` or a :class:`~repro.planner.PlanSession`.
    """
    result: RewriteResult = optimizer.rewrite(expr)
    q_exec = rw_exec = 0.0
    equivalent: Optional[bool] = None
    if execute:
        original_run = backend.timed(expr)
        rewritten_run = backend.timed(result.best) if result.changed else original_run
        q_exec, rw_exec = original_run.seconds, rewritten_run.seconds
        if check_equivalence and result.changed:
            equivalent = values_allclose(original_run.value, rewritten_run.value, rtol=1e-4, atol=1e-5)
        elif not result.changed:
            equivalent = True
    return PipelineRun(
        name=name,
        q_exec=q_exec,
        rw_find=result.rewrite_seconds,
        rw_exec=rw_exec,
        original_cost=result.original_cost,
        best_cost=result.best_cost,
        changed=result.changed,
        equivalent=equivalent,
        rewrite=result.best.to_string(),
        used_views=result.used_views,
        cache_hit=result.cache_hit,
        stage_timings=dict(result.stage_timings),
    )


@dataclass(frozen=True)
class TenantEngineFactory:
    """A picklable multi-tenant engine factory for the worker-pool tier.

    The worker-pool tests need the *same* engine built in the gateway
    process and inside every spawned planner worker; a closure cannot cross
    the spawn boundary, a module-level dataclass with ``__call__`` can.  Every tenant gets the benchkit catalog at ``scale``
    (one shared catalog object per engine — tenants are isolation-
    equivalent, not data-divergent, which is exactly what the byte-identity
    check needs).
    """

    tenants: Tuple[str, ...]
    scale: float = 0.01

    def __call__(self) -> "object":
        from repro.api import Engine, WorkspaceRegistry
        from repro.benchkit.datasets import benchmark_catalog

        catalog = benchmark_catalog(scale=self.scale)
        registry = WorkspaceRegistry()
        for tenant in self.tenants:
            registry.register(tenant, catalog=catalog)
        return Engine(workspaces=registry)


def print_report(title: str, runs: Sequence[PipelineRun]) -> str:
    """Format a block of pipeline runs as the examples print them."""
    lines = [f"== {title} =="]
    lines.extend(run.as_row() for run in runs)
    improved = [run for run in runs if run.changed]
    if runs:
        lines.append(
            f"-- {len(improved)}/{len(runs)} rewritten; "
            f"median speedup {sorted(run.speedup for run in runs)[len(runs) // 2]:.2f}x"
        )
    return "\n".join(lines)
