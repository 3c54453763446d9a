"""End-to-end service throughput: concurrency sweep over the 57 pipelines.

The sweep drives :meth:`repro.api.Engine.submit_many` over the
full Tables 2/3 pipeline batch at several worker counts, each on a fresh
engine (cold pool, cold caches), and compares every concurrent plan against
a serial ``rewrite_all`` reference — concurrency must never change a plan.

Run under pytest (``python -m pytest benchmarks/bench_service_throughput.py``)
for the assertions, or directly
(``python benchmarks/bench_service_throughput.py``) to emit the JSON summary
used by the perf trajectory.
"""

from __future__ import annotations

import json

from repro.api import Engine
from repro.benchkit.datasets import ROLE_BINDINGS_DENSE, benchmark_catalog
from repro.benchkit.harness import run_service_sweep
from repro.benchkit.pipelines import build_pipeline, default_roles, pipeline_names
from repro.planner import PlanSession
from repro.service import ServiceRequest

WORKER_COUNTS = (1, 2, 4, 8)


def _engine(catalog, max_sessions: int = 8) -> Engine:
    return Engine(catalog, config={"service": {"max_sessions": max_sessions}})


def _pipelines(names=None):
    roles = default_roles(ROLE_BINDINGS_DENSE)
    return [(name, build_pipeline(name, roles)) for name in (names or pipeline_names())]


def measure(scale: float = 0.01, worker_counts=WORKER_COUNTS, names=None) -> dict:
    """Sweep the full batch (plan-only) and return the JSON-ready summary."""
    catalog = benchmark_catalog(scale=scale)
    summary = run_service_sweep(
        _pipelines(names),
        engine_factory=lambda: _engine(catalog),
        worker_counts=worker_counts,
        execute=False,
        session_factory=lambda: PlanSession(catalog),
    )
    summary["scale"] = scale
    return summary


def test_concurrent_plans_byte_identical_to_serial(catalog):
    """Acceptance: submit_many over all 57 pipelines with 8 workers matches
    a serial ``rewrite_all`` plan for plan."""
    summary = run_service_sweep(
        _pipelines(),
        engine_factory=lambda: _engine(catalog),
        worker_counts=(8,),
        execute=False,
        session_factory=lambda: PlanSession(catalog),
    )
    point = summary["sweep"][0]
    assert point["byte_identical_to_serial"]
    assert len(summary["pipelines"]) == 57
    # Dedup bound: never more plans computed than distinct fingerprints.
    assert point["pool"]["plans_computed"] <= 57


def test_batch_dedupes_before_fanout(catalog):
    names = ["P1.1", "P1.4", "P1.13"]
    pipelines = _pipelines(names) * 3
    engine = _engine(catalog, max_sessions=4)
    requests = [
        ServiceRequest(expression=expr, name=name, execute=False)
        for name, expr in pipelines
    ]
    results = engine.submit_many(requests, workers=4)
    assert len(results) == 9
    assert engine.pool.stats.plans_computed == len(names)
    assert sum(r.rewrite.cache_hit for r in results) == 6


if __name__ == "__main__":
    print(json.dumps(measure(), indent=2))
