"""The metric tables: six end-to-end metrics and the per-layer metrics.

``BENCHMARK.json`` repeats the names, units and directions from here (a
test keeps the two in step); the ``moves`` column — which end-to-end metric
a layer metric should move, and on which workload — lives only here and in
``README.md`` because the contract fixes ``BENCHMARK.json``'s keys.

A layer is a package under ``src/repro``.  Every layer time is taken from
the benchmark's side of a public call and reduced with the same floor as
the end-to-end metrics: per op, the minimum over traced passes; per
metric, the sum / median / maximum of those op floors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


#: Bounds come from spreads measured on the 2-core sandbox (README, "How
#: steady"): a floor removes bursts inside a run, not the host's speed
#: regime, which drifted ~10 % within one 47-minute session (calibration
#: floor 9.7-11.5 ms).  CPU-bound times reached inter-quartile spreads of
#: 10-15 % over ten runs, so they sit at the contract's cap of 0.25; the
#: ratio drifts less and memory hardly at all.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "sweep_floor_ms", "ms", "lower", 0.25,
        "sum over the pass's ops of each op's floor latency",
    ),
    EndToEnd(
        "op_p50_floor_ms", "ms", "lower", 0.25,
        "nearest-rank median over ops of the op floors",
    ),
    EndToEnd(
        "op_p90_floor_ms", "ms", "lower", 0.25,
        "nearest-rank 90th percentile over ops of the op floors",
    ),
    EndToEnd(
        "payoff_x", "x", "higher", 0.20,
        "sum of q_exec floors over sum of (find + rw_exec) floors: "
        "time without HADAD over time with it",
    ),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05, "ru_maxrss of the measuring process"),
    EndToEnd("setup_s", "s", "lower", 0.25, "floor over >= 3 builds of the whole fixture"),
)


@dataclass(frozen=True)
class Layer:
    """One per-layer metric.

    ``how`` is ``(aggregate, key)``: ``sum`` / ``median`` / ``max`` over the
    op floors of span ``key``; ``count`` sums the exact per-op counter
    ``key``; ``derived`` and ``harness`` name a function / a harness-side
    reading in :mod:`benchmarks.layered.harness`.
    """

    name: str
    unit: str
    better: str
    how: Tuple[str, str]
    moves: str


def _t(name, unit, aggregate, span, moves, better="lower"):
    return Layer(name, unit, better, (aggregate, span), moves)


LAYERS: Tuple[Layer, ...] = (
    _t("data.catalog_build_ms", "ms", "sum", "data.catalog_build", "setup_s, all workloads"),
    _t("lang.build_fingerprint_us", "us", "median", "lang.build_fingerprint",
       "op_p50_floor_ms on serve_churn (cache key of a hit)"),
    _t("vrem.encode_ms", "ms", "sum", "vrem.encode", "sweep_floor_ms on plan_cold (~2 %)"),
    _t("constraints.program_build_ms", "ms", "median", "constraints.program_build",
       "setup_s; op_p90_floor_ms on serve_churn (the first miss after a delta builds a session)"),
    _t("chase.saturate_ms", "ms", "sum", "chase.saturate",
       "sweep_floor_ms and op_p90_floor_ms on plan_cold (~94 %); about half of "
       "exec_payoff's sweep; op_p90_floor_ms on serve_churn; nothing on serve_churn p50"),
    _t("chase.saturate_heaviest_ms", "ms", "max", "chase.saturate",
       "sweep_floor_ms on plan_cold (P2.17)"),
    Layer("chase.rounds", "count", "lower", ("count", "chase.rounds"), "explains chase.saturate_ms"),
    Layer("chase.matches_attempted", "count", "lower", ("count", "chase.matches_attempted"),
          "explains chase.saturate_ms"),
    Layer("chase.atoms_materialized", "count", "lower", ("count", "chase.atoms_materialized"),
          "explains chase.saturate_ms"),
    Layer("chase.delta_attempts", "count", "lower", ("count", "chase.delta_attempts"),
          "explains chase.saturate_ms"),
    Layer("chase.pruned", "count", "higher", ("count", "chase.pruned"),
          "explains chase.saturate_ms"),
    Layer("chase.match_yield", "x", "higher", ("derived", "match_yield"),
          "a pruning change must raise it without changing plans"),
    _t("cost.annotate_ms", "ms", "sum", "cost.annotate", "sweep_floor_ms on plan_cold (small)"),
    _t("cost.expression_cost_us", "us", "median", "cost.expression_cost",
       "sweep_floor_ms on plan_cold (small)"),
    Layer("cost.plan_quality_x", "x", "higher", ("derived", "plan_quality"),
          "payoff_x on exec_payoff and hybrid"),
    _t("core.extract_ms", "ms", "sum", "core.extract", "sweep_floor_ms on plan_cold (~4 %)"),
    _t("core.postopt_ms", "ms", "sum", "core.postopt", "sweep_floor_ms on plan_cold (small)"),
    _t("planner.rewrite_cold_ms", "ms", "sum", "planner.rewrite_cold", "sweep_floor_ms on plan_cold"),
    _t("planner.rewrite_warm_us", "us", "median", "planner.rewrite_warm",
       "op_p50_floor_ms on serve_churn"),
    Layer("planner.changed_plans", "count", "higher", ("count", "planner.changed_plans"),
          "payoff_x"),
    _t("api.engine_build_ms", "ms", "median", "api.engine_build", "setup_s"),
    Layer("api.rewrite_overhead_us", "us", "lower", ("derived", "rewrite_overhead"),
          "op_p50_floor_ms on plan_cold"),
    _t("api.schema_roundtrip_us", "us", "median", "api.schema_roundtrip",
       "op_p50_floor_ms on serve_churn"),
    _t("service.pool_plan_warm_us", "us", "median", "service.pool_plan_warm",
       "op_p50_floor_ms on serve_churn"),
    _t("service.submit_many_ms", "ms", "sum", "service.submit_many",
       "sweep_floor_ms on plan_cold (dedup / fan-out cost)"),
    Layer("service.router_overhead_us", "us", "lower", ("derived", "router_overhead"),
          "sweep_floor_ms and payoff_x on exec_payoff"),
    _t("service.apply_delta_ms", "ms", "median", "service.apply_delta",
       "sweep_floor_ms and op_p90_floor_ms on serve_churn; no other workload"),
    Layer("service.kept_warm_ratio", "x", "higher", ("derived", "kept_warm_ratio"),
          "op_p90_floor_ms on serve_churn"),
    _t("server.http_roundtrip_ms", "ms", "median", "server.http_roundtrip",
       "op_p50_floor_ms on serve_churn"),
    _t("server.plan_warm_ms", "ms", "median", "server.plan_warm", "op_p50_floor_ms on serve_churn"),
    _t("server.plan_miss_ms", "ms", "median", "server.plan_miss", "op_p90_floor_ms on serve_churn"),
    _t("server.delta_request_ms", "ms", "median", "server.delta_request",
       "sweep_floor_ms on serve_churn"),
    Layer("server.batch_wait_ms", "ms", "lower", ("derived", "batch_wait"),
          "op_p50_floor_ms on serve_churn: the 5 ms window is most of a warm hit"),
    Layer("server.batch_size_mean", "x", "higher", ("derived", "batch_size_mean"),
          "explains server.batch_wait_ms"),
    _t("server.codec_us", "us", "median", "server.codec", "op_p50_floor_ms on serve_churn"),
    _t("backends.numpy_q_exec_ms", "ms", "sum", "backends.numpy_q_exec",
       "payoff_x on exec_payoff and hybrid"),
    _t("backends.numpy_rw_exec_ms", "ms", "sum", "backends.numpy_rw_exec",
       "payoff_x and sweep_floor_ms on exec_payoff and hybrid"),
    _t("backends.systemml_like_rw_exec_ms", "ms", "sum", "backends.systemml_like_rw_exec",
       "none gated: what a locally optimising engine would still gain"),
    _t("backends.morpheus_rw_exec_ms", "ms", "sum", "backends.morpheus_rw_exec",
       "payoff_x on hybrid when routed to the factorised backend"),
    _t("backends.relational_build_ms", "ms", "sum", "backends.relational_build",
       "sweep_floor_ms on hybrid"),
    _t("hybrid.rewrite_ms", "ms", "sum", "hybrid.rewrite", "sweep_floor_ms on hybrid"),
    _t("hybrid.ra_build_ms", "ms", "sum", "hybrid.ra_build", "sweep_floor_ms on hybrid"),
    _t("hybrid.factor_materialize_ms", "ms", "sum", "hybrid.factor_materialize",
       "setup_s on hybrid"),
    Layer("hybrid.views_used", "count", "higher", ("count", "views_used"), "payoff_x on hybrid"),
    _t("catalog.delta_apply_us", "us", "median", "catalog.delta_apply",
       "sweep_floor_ms on serve_churn"),
    _t("catalog.delta_wire_us", "us", "median", "catalog.delta_wire",
       "sweep_floor_ms on serve_churn"),
    Layer("interp.import_s", "s", "lower", ("harness", "import_s"), "none gated"),
    Layer("interp.gc_ms_per_pass", "ms", "lower", ("harness", "gc_ms_per_pass"), "none gated"),
    Layer("interp.gc_collections", "count", "lower", ("harness", "gc_collections"), "none gated"),
    Layer("host.calib_floor_ms", "ms", "lower", ("harness", "calib_floor_ms"), "none gated"),
    Layer("host.calib_p50_ms", "ms", "lower", ("harness", "calib_p50_ms"),
          "none gated; calib_p50 / calib_floor > 1.25 marks the run noisy_host"),
    Layer("trace.overhead_pct", "%", "lower", ("derived", "trace_overhead"), "none gated"),
)
