"""Saturation-engine acceptance: the fast chase is faster *and* plan-identical.

Two claims, each of which the perf gate (``tools/check_perf.py``) holds
this benchmark to:

* **Byte-identity** — for every one of the 57 benchkit pipelines, the
  optimized engine (hash-consed canonical terms, indexed matching,
  semi-naive delta rounds) extracts exactly the plan of the *reference*
  engine (every constraint every round, full searches, linear relation
  scans — ``SaturationEngine(use_index=False)``, kept precisely for this
  comparison).
* **Speedup** — on the *chase-bound* pipelines (the ones whose saturation
  materializes at least ``CHASE_BOUND_ATOMS`` atoms; the chase, not
  encoding or extraction, dominates their latency) the median cold-plan
  latency improves by at least 3x over the reference configuration.
  Most of the 57 pipelines saturate in a couple of milliseconds under
  either engine — the asymptotic win only shows where the instance grows,
  so the latency claim is scoped to where the work is; the identity
  claim always covers all 57.

The summary also reports the chase counters (rounds, matches attempted,
atoms materialized, delta attempts) totalled over the full sweep; they are
deterministic under ``PYTHONHASHSEED=0`` and tracked as ratios by the gate.

Run under pytest (``python -m pytest benchmarks/bench_saturation.py``) for
the assertions, or directly (``python benchmarks/bench_saturation.py``) to
emit the JSON summary the perf gate consumes.
"""

from __future__ import annotations

import json
import statistics
import time

from repro.benchkit.datasets import ROLE_BINDINGS_DENSE, benchmark_catalog
from repro.benchkit.pipelines import build_pipeline, default_roles, pipeline_names
from repro.chase.saturation import SaturationEngine
from repro.planner import PlanSession

#: A pipeline is chase-bound when its saturation materializes this many
#: atoms (measured on the optimized engine; deterministic).
CHASE_BOUND_ATOMS = 100

#: ``measure`` is deterministic per scale; the pytest entry points share
#: one sweep instead of re-running the reference engine per test.
_SUMMARIES: dict = {}


def _sweep(catalog, pipelines, reference: bool = False):
    """Cold-plan every pipeline; per-pipeline latency, plan and counters."""
    out = {}
    for name, expr in pipelines:
        session = PlanSession(catalog)
        if reference:
            session.engine = SaturationEngine(session.program, use_index=False)
        started = time.perf_counter()
        result = session.rewrite(expr)
        elapsed = time.perf_counter() - started
        sat = result.saturation
        out[name] = {
            "seconds": elapsed,
            "plan": result.best.to_string(),
            "cost": round(result.best_cost, 9),
            "rounds": sat.rounds,
            "matches_attempted": sat.matches_attempted,
            "atoms_materialized": sat.atoms_materialized,
            "delta_attempts": sat.delta_attempts,
        }
    return out


def measure(scale: float = 0.01) -> dict:
    cached = _SUMMARIES.get(scale)
    if cached is not None:
        return cached
    catalog = benchmark_catalog(scale=scale)
    roles = default_roles(ROLE_BINDINGS_DENSE)
    pipelines = [(name, build_pipeline(name, roles)) for name in pipeline_names()]

    optimized = _sweep(catalog, pipelines)
    reference = _sweep(catalog, pipelines, reference=True)

    serial_mismatched = [
        name
        for name, row in optimized.items()
        if (row["plan"], row["cost"])
        != (reference[name]["plan"], reference[name]["cost"])
    ]
    chase_bound = sorted(
        name
        for name, row in optimized.items()
        if row["atoms_materialized"] >= CHASE_BOUND_ATOMS
    )
    median_optimized = statistics.median(
        optimized[name]["seconds"] for name in chase_bound
    )
    median_reference = statistics.median(
        reference[name]["seconds"] for name in chase_bound
    )

    def totals(sweep):
        return {
            "seconds": sum(row["seconds"] for row in sweep.values()),
            "rounds": sum(row["rounds"] for row in sweep.values()),
            "matches_attempted": sum(
                row["matches_attempted"] for row in sweep.values()
            ),
            "atoms_materialized": sum(
                row["atoms_materialized"] for row in sweep.values()
            ),
            "delta_attempts": sum(row["delta_attempts"] for row in sweep.values()),
        }

    summary = _SUMMARIES[scale] = {
        "benchmark": "saturation",
        "scale": scale,
        "pipelines": len(pipelines),
        "chase_bound_pipelines": chase_bound,
        "acceptance": {
            "byte_identical_serial": not serial_mismatched,
            "serial_mismatched": serial_mismatched,
            "median_chase_bound_reference_seconds": median_reference,
            "median_chase_bound_optimized_seconds": median_optimized,
            "median_chase_bound_speedup": median_reference / median_optimized,
        },
        "optimized": totals(optimized),
        "reference": totals(reference),
    }
    return summary


def test_optimized_plans_byte_identical_to_reference_on_all_57_pipelines():
    summary = measure()
    assert summary["pipelines"] == 57
    acceptance = summary["acceptance"]
    assert acceptance["byte_identical_serial"], acceptance["serial_mismatched"]


def test_chase_bound_median_latency_improves_3x():
    summary = measure()
    acceptance = summary["acceptance"]
    assert summary["chase_bound_pipelines"], "no chase-bound pipelines found"
    assert acceptance["median_chase_bound_speedup"] >= 3.0, acceptance


if __name__ == "__main__":
    print(json.dumps(measure(), indent=2))
