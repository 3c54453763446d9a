#!/usr/bin/env python
"""Perf-regression gate: compare benchmark summaries against baselines.

Usage (what CI runs after emitting the JSON summaries)::

    python tools/check_perf.py rewrite-cache-summary.json \
        service-throughput-summary.json gateway-sweep-summary.json

Each summary file carries a ``"benchmark"`` name; its baseline lives at
``benchmarks/baselines/<name>.json``.  For every benchmark a list of
**tracked metrics** (see ``TRACKED``) is evaluated; the gate fails — exit
status 1 — when any tracked metric regresses.  Three metric kinds:

* ``flag``      — a boolean that must stay true (plan correctness,
  micro-batching observed, zero rejections);
* ``threshold`` — an absolute floor the current value must clear,
  independent of the baseline (e.g. cache speedup >= 10x, peak in-flight
  >= 200).  Used where run-to-run variance across machine classes makes a
  relative comparison meaningless but the product claim is absolute;
* ``ratio``     — the current value must be within ``tolerance`` (default
  25%) of the committed baseline, in the metric's good direction.  Used
  for counters and same-process ratios that are stable across machines
  (plans computed per batch, cache hit rate, end-to-end throughput).

Refreshing baselines
--------------------
When a change *legitimately* moves a tracked metric (a new optimization, a
benchmark change), refresh the baselines from a trusted run and commit the
result together with the change that moved it::

    PYTHONHASHSEED=0 python benchmarks/bench_rewrite_cache.py > rewrite-cache-summary.json
    PYTHONHASHSEED=0 python benchmarks/bench_service_throughput.py > service-throughput-summary.json
    PYTHONHASHSEED=0 python benchmarks/bench_gateway_sweep.py > gateway-sweep-summary.json
    PYTHONHASHSEED=0 python benchmarks/bench_gateway_sweep.py --workspaces > gateway-workspace-summary.json
    PYTHONHASHSEED=0 python benchmarks/bench_gateway_sweep.py --planner-workers > gateway-worker-summary.json
    PYTHONHASHSEED=0 python benchmarks/bench_catalog_updates.py > catalog-updates-summary.json
    python tools/check_perf.py --update *.json

``--update`` rewrites ``benchmarks/baselines/*.json`` from the given
summaries (after validating they parse and their benchmarks are known).
Review the baseline diff like any other code change: a silently shrinking
throughput baseline is exactly the regression this gate exists to catch.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE_DIR = ROOT / "benchmarks" / "baselines"
DEFAULT_TOLERANCE = 0.25


@dataclass(frozen=True)
class Metric:
    """One tracked metric: where it lives and how it may move."""

    path: str
    kind: str  # "flag" | "threshold" | "ratio"
    direction: str = "higher"  # for ratio: which way is good
    minimum: Optional[float] = None  # for threshold
    tolerance: Optional[float] = None  # per-metric override for ratio

    def describe(self) -> str:
        if self.kind == "flag":
            return f"{self.path} must stay true"
        if self.kind == "threshold":
            return f"{self.path} >= {self.minimum}"
        arrow = ">=" if self.direction == "higher" else "<="
        return f"{self.path} {arrow} baseline within tolerance"


#: The contract: which metrics each benchmark is held to.
TRACKED: Dict[str, List[Metric]] = {
    "rewrite_cache": [
        Metric("single_expression.warm_was_cache_hit", "flag"),
        Metric("single_expression.same_best", "flag"),
        # Cold/warm cache speedup is huge but noisy (the warm probe is
        # microseconds); an absolute floor catches "the cache died" without
        # flapping on scheduler jitter.
        Metric("single_expression.speedup", "threshold", minimum=10.0),
        Metric("cache_on.hit_rate", "ratio", direction="higher"),
    ],
    "service_concurrency_sweep": [
        Metric("sweep[-1].byte_identical_to_serial", "flag"),
        # Fingerprint dedup: never more plans than distinct pipelines.
        Metric("sweep[-1].pool.plans_computed", "ratio", direction="lower"),
    ],
    "gateway_load_sweep": [
        Metric("acceptance.peak_in_flight", "threshold", minimum=200.0),
        Metric("acceptance.micro_batching_observed", "flag"),
        Metric("acceptance.byte_identical_to_serial", "flag"),
        Metric("acceptance.no_rejections", "flag"),
        # End-to-end serving throughput under the 220-client storm.  A
        # wall-clock number, hence machine-variant: an absolute floor (an
        # order of magnitude under a 1-core dev box's ~4.5k req/s) catches
        # "micro-batching collapsed to per-connection serving" without
        # flapping on runner hardware.
        Metric("acceptance.requests_per_sec", "threshold", minimum=500.0),
        # Dedup at the gateway: duplicate requests answered per batch leader.
        Metric("acceptance.pool.plans_computed", "ratio", direction="lower"),
    ],
    "saturation": [
        # The fast chase may only skip matching work, never change which
        # plan wins: the optimized engine must extract exactly the
        # reference engine's plans on all 57 pipelines.
        Metric("acceptance.byte_identical_serial", "flag"),
        # Median cold-plan latency on the chase-bound pipelines must stay
        # >= 3x better than the reference engine.  The measured margin is
        # in the hundreds (360x-570x on the 2-core sandbox); an absolute
        # floor because wall-clock ratios vary across machine classes.
        Metric("acceptance.median_chase_bound_speedup", "threshold", minimum=3.0),
        # Deterministic chase counters (PYTHONHASHSEED=0): the optimized
        # engine's work volume may not silently grow.
        Metric("optimized.rounds", "ratio", direction="lower"),
        Metric("optimized.matches_attempted", "ratio", direction="lower"),
        Metric("optimized.atoms_materialized", "ratio", direction="lower"),
    ],
    "learned_router": [
        # The adaptive cost model's closed loop: the "learned" estimator is
        # selectable by name, plans with a fitted instance, and the oracle-
        # verified hybrid suite (Q1-Q10) shows zero equivalence violations.
        Metric("acceptance.learned_selectable", "flag"),
        Metric("acceptance.learned_plans", "flag"),
        Metric("acceptance.hybrid_no_violations", "flag"),
        # Adaptive routing must serve the same values as static routing and
        # must not be slower end-to-end (the PR's acceptance criterion);
        # the measured margin is ~1.7x, the floor absorbs timer noise.
        Metric("acceptance.values_identical", "flag"),
        Metric("acceptance.adaptive_not_slower", "flag"),
        Metric("routing.speedup", "threshold", minimum=0.9),
        # The calibration pass must actually feed the estimator.
        Metric("calibration.nnz_observations", "threshold", minimum=10.0),
    ],
    "gateway_workspace_sweep": [
        # Multi-tenant serving: >= 2 workspaces served concurrently through
        # one gateway, every answer byte-identical to its *own* tenant's
        # serial plans (a cross-tenant cache hit would break this), and the
        # tenants' plan sets provably distinct (the isolation is load-
        # bearing, not vacuous).
        Metric("acceptance.tenants_served", "threshold", minimum=2.0),
        Metric("acceptance.per_tenant_byte_identical", "flag"),
        Metric("acceptance.tenant_plans_distinct", "flag"),
        Metric("acceptance.workspace_series_present", "flag"),
        Metric("acceptance.no_rejections", "flag"),
        # Both tenants' request waves overlap in flight (2 tenants × 12
        # clients; an absolute floor tolerant of slow runners).
        Metric("acceptance.peak_in_flight", "threshold", minimum=16.0),
        # Wall-clock throughput floor, an order of magnitude under a 1-core
        # dev box's ~470 req/s for the same reason as the single-tenant
        # storm's floor.
        Metric("acceptance.requests_per_sec", "threshold", minimum=40.0),
        # Per-tenant planning is deduped within each workspace: never more
        # plans than tenants × distinct pipelines.
        Metric("acceptance.plans_computed_total", "ratio", direction="lower"),
    ],
    "catalog_updates": [
        # Selective revalidation under a steady single-relation update
        # stream over a warm two-tenant cache.  The issue's acceptance
        # floor: >= 70% of post-delta serves on the updated tenant come
        # from the warm cache (the sample pipelines' partitioned
        # footprints put the expected value at 5/6).
        Metric("acceptance.hit_rate", "threshold", minimum=0.7),
        # The correctness gate: every plan served after a delta — kept
        # warm, re-keyed or replanned — byte-identical to a cold re-plan
        # against a shadow catalog fast-forwarded through the same deltas.
        Metric("acceptance.byte_identical", "flag"),
        # A delta to tenant A may not cool tenant B.
        Metric("acceptance.untouched_tenant_stays_warm", "flag"),
        # Post-delta P50 serve latency vs the full-invalidation baseline.
        # Warm serves are cache reads, so the measured margin is ~100x;
        # the floor catches "revalidation silently evicts everything"
        # without flapping on timer noise.
        Metric("acceptance.p50_speedup", "threshold", minimum=2.0),
        # Deterministic revalidation counters: the stream keeps exactly
        # the non-intersecting plans warm.
        Metric("acceptance.plans_kept_warm", "ratio", direction="higher"),
        Metric("acceptance.plans_revalidated", "ratio", direction="lower"),
    ],
    "gateway_worker_sweep": [
        # The multi-process worker tier may only move *where* planning
        # runs: every answer byte-identical to the in-process path at
        # every worker count, and every answer produced by exactly the
        # worker the consistent-hash ring assigns that tenant (checked
        # again under the 2-hot-tenant skewed load).
        Metric("acceptance.byte_identical_all_points", "flag"),
        Metric("acceptance.worker_attribution_ok", "flag"),
        # Shard stickiness is load-bearing: a warm second round must be
        # all cache hits — a request landing on the wrong worker would
        # surface as a cold plan.
        Metric("acceptance.warm_rounds_all_cache_hits", "flag"),
        Metric("acceptance.no_lost_requests", "flag"),
        Metric("acceptance.skew_light_byte_identical", "flag"),
        Metric("acceptance.skew_hot_cache_hit_fraction", "threshold", minimum=0.7),
        # The scaling floor is computed CPU-aware inside the benchmark
        # (>= 2.5x at 4 workers on >= 4 cores — i.e. CI runners; a
        # collapse-detection floor on smaller boxes where process-level
        # scaling physically cannot appear): the flag must hold wherever
        # the sweep ran.
        Metric("scaling.meets_scaling_floor", "flag"),
        # Absolute chase-bound throughput floor, machine-variant like the
        # other wall-clock floors (a 1-core dev box sustains ~3 plans/s
        # on this workload).
        Metric("scaling.top_plans_per_sec", "threshold", minimum=1.0),
        # A healthy sweep never consumes a respawn.
        Metric("acceptance.restarts_total", "ratio", direction="lower"),
    ],
}

_PATH_TOKEN = re.compile(r"([^.\[\]]+)|\[(-?\d+)\]")


def resolve(summary: dict, path: str):
    """Walk ``a.b[-1].c`` style paths through dicts and lists."""
    value = summary
    for match in _PATH_TOKEN.finditer(path):
        key, index = match.groups()
        try:
            value = value[key] if key is not None else value[int(index)]
        except (KeyError, IndexError, TypeError) as exc:
            raise KeyError(f"path {path!r} broke at {match.group(0)!r}: {exc}") from exc
    return value


@dataclass
class Verdict:
    benchmark: str
    metric: Metric
    ok: bool
    detail: str


def check_metric(
    benchmark: str,
    metric: Metric,
    summary: dict,
    baseline: dict,
    tolerance: float,
) -> Verdict:
    try:
        current = resolve(summary, metric.path)
    except KeyError as exc:
        return Verdict(benchmark, metric, False, f"missing in summary: {exc}")

    if metric.kind == "flag":
        ok = bool(current)
        return Verdict(benchmark, metric, ok, f"value={current}")

    try:
        current = float(current)
    except (TypeError, ValueError):
        return Verdict(benchmark, metric, False, f"not numeric: {current!r}")

    if metric.kind == "threshold":
        assert metric.minimum is not None
        ok = current >= metric.minimum
        return Verdict(
            benchmark, metric, ok, f"value={current:.6g} floor={metric.minimum:.6g}"
        )

    # ratio
    try:
        base = float(resolve(baseline, metric.path))
    except (KeyError, TypeError, ValueError) as exc:
        return Verdict(benchmark, metric, False, f"missing in baseline: {exc}")
    allowed = metric.tolerance if metric.tolerance is not None else tolerance
    if metric.direction == "higher":
        bound = base * (1.0 - allowed)
        ok = current >= bound
        detail = f"value={current:.6g} baseline={base:.6g} min_allowed={bound:.6g}"
    else:
        bound = base * (1.0 + allowed)
        ok = current <= bound
        detail = f"value={current:.6g} baseline={base:.6g} max_allowed={bound:.6g}"
    return Verdict(benchmark, metric, ok, detail)


def load_summary(path: Path) -> Tuple[str, dict]:
    try:
        summary = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read summary {path}: {exc}")
    name = summary.get("benchmark")
    if not isinstance(name, str):
        raise SystemExit(f"error: {path} has no 'benchmark' name")
    if name not in TRACKED:
        raise SystemExit(
            f"error: {path} reports unknown benchmark {name!r} "
            f"(known: {', '.join(sorted(TRACKED))})"
        )
    return name, summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when tracked benchmark metrics regress vs baselines."
    )
    parser.add_argument("summaries", nargs="+", type=Path, help="summary JSON files")
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=DEFAULT_BASELINE_DIR,
        help=f"baseline directory (default: {DEFAULT_BASELINE_DIR})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative regression for ratio metrics (default: 0.25)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baselines from the given summaries instead of checking",
    )
    args = parser.parse_args(argv)

    loaded = [(path, *load_summary(path)) for path in args.summaries]

    if args.update:
        args.baseline_dir.mkdir(parents=True, exist_ok=True)
        for path, name, summary in loaded:
            target = args.baseline_dir / f"{name}.json"
            target.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
            print(f"updated {target} from {path}")
        return 0

    verdicts: List[Verdict] = []
    for path, name, summary in loaded:
        baseline_path = args.baseline_dir / f"{name}.json"
        try:
            baseline = json.loads(baseline_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(
                f"error: no baseline for {name!r} at {baseline_path} ({exc}); "
                "commit one with --update"
            )
        for metric in TRACKED[name]:
            verdicts.append(
                check_metric(name, metric, summary, baseline, args.tolerance)
            )

    failed = [verdict for verdict in verdicts if not verdict.ok]
    width = max(len(v.metric.path) for v in verdicts) if verdicts else 0
    for verdict in verdicts:
        status = "ok  " if verdict.ok else "FAIL"
        print(
            f"[{status}] {verdict.benchmark}: {verdict.metric.path:<{width}} "
            f"{verdict.detail}  ({verdict.metric.describe()})"
        )
    if failed:
        print(
            f"\n{len(failed)} tracked metric(s) regressed; see "
            "tools/check_perf.py for the refresh procedure if this is intentional."
        )
        return 1
    print(f"\nall {len(verdicts)} tracked metrics within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
