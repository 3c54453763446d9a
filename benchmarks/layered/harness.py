"""Measures one workload inside the pinned child process.

``measure`` replays the workload's op list for the time budget and reduces
the samples to the six end-to-end metrics; ``measure_layers`` is the traced
run behind the per-layer metrics.  Both print a readable report and return
the result document whose JSON the child prints as its last line.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.layered.layers import END_TO_END, LAYERS, SCALE, Layer
from benchmarks.layered.stats import WARMUP_PASSES, floor, nearest_rank
from benchmarks.layered.tracer import Tracer
from benchmarks.layered.workloads.base import OpSample, Workload

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden_plans.json"
OUT_DIR = HERE / "out"

#: Fixture builds per run; ``setup_s`` is their floor (the first build pays
#: first-touch costs a later one does not: 1.0 s against 0.19 s measured).
#: A fixture that builds in tens of milliseconds is built more often, until
#: ``SETUP_MIN_SECONDS`` have gone into builds, so its floor converges too.
SETUP_BUILDS = 3
SETUP_MAX_BUILDS = 10
SETUP_MIN_SECONDS = 1.0
#: A traced run builds twice: enough to drop the first-touch build.
TRACED_SETUP_BUILDS = 2
#: Most traced passes kept per run (plus one discarded warm-up).
TRACED_PASSES = 5
#: Share of ``--seconds`` a traced run spends on untraced / traced passes.
TRACED_BUDGET_SPLIT = (0.35, 0.45)

CALIB_ITERATIONS = 200_000
NOISY_HOST_RATIO = 1.25
#: Below this many timed passes a floor has not converged on this host.
STEADY_PASSES = 15


def calibrate() -> float:
    """A fixed pure-Python loop: what the host gives the interpreter now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIB_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def settle_collector() -> None:
    """Between passes, outside every timer: the only full collection.

    The collector stays enabled during the ops, but only its two young
    generations run there.  A full collection scans the whole fixture
    (~18 ms here) and is triggered by an allocation count, so it would land
    on the same op in every pass — and on another op for every seed:
    P2.10/vexp floored at 2.6 ms under seed 1 and 21.6 ms under seed 3,
    which moves the nearest-rank percentiles by a rank or two.
    """
    young, middle, _ = gc.get_threshold()
    gc.set_threshold(young, middle, 1_000_000_000)
    gc.collect()


class GcMeter:
    """``gc.callbacks`` hook: time and count of collections."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1


@dataclass
class Measured:
    """The samples of one run of passes and what went wrong in them."""

    passes: List[Dict[str, OpSample]] = field(default_factory=list)
    calibrations: List[float] = field(default_factory=list)
    gc_seconds: List[float] = field(default_factory=list)
    gc_collections: List[int] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def timed(self) -> List[Dict[str, OpSample]]:
        return self.passes[WARMUP_PASSES:]

    def floors(self, read: Callable[[OpSample], Optional[float]]) -> Dict[str, float]:
        """Per-op floor of one reading (ops without it are left out)."""
        result = {}
        for op in self.passes[0]:
            values = [read(samples[op]) for samples in self.timed]
            values = [value for value in values if value is not None]
            if values:
                result[op] = floor(values, warmup=0)
        return result


def load_golden() -> Dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def run_passes(
    workload: Workload,
    seconds: float,
    golden: Optional[dict],
) -> Measured:
    """Replay the op list until the budget is spent (never fewer than one
    timed pass), checking every op of every pass."""
    measured = Measured()
    meter = GcMeter()
    deadline = time.perf_counter() + seconds
    while True:
        index = len(measured.passes)
        settle_collector()
        measured.calibrations.append(calibrate())
        gc.callbacks.append(meter)
        before = (meter.seconds, meter.collections)
        start = time.perf_counter()
        try:
            samples = workload.run_pass(index, check=index == 0)
        finally:
            gc.callbacks.remove(meter)
        elapsed = time.perf_counter() - start
        measured.gc_seconds.append(meter.seconds - before[0])
        measured.gc_collections.append(meter.collections - before[1])
        measured.passes.append(samples)
        _judge(workload, measured, samples, index, golden)
        if index >= WARMUP_PASSES and time.perf_counter() + elapsed > deadline:
            return measured


def _judge(
    workload: Workload,
    measured: Measured,
    samples: Dict[str, OpSample],
    index: int,
    golden: Optional[dict],
) -> None:
    """Count the pass's ops and record every reason one of them is wrong."""
    reference = measured.passes[0]
    if set(samples) != set(reference):
        measured.failures.append(f"pass {index} ran a different op list than pass 0")
    for op, sample in samples.items():
        measured.attempted += 1
        problem = sample.failure
        alternatives = golden.get(op) if golden is not None else None
        if isinstance(alternatives, list) and sample.plan in alternatives:
            # Reviewed equal-cost plans between which the extractor's choice
            # follows object addresses (see README): one plan for every check.
            sample.plan = alternatives[0]
        if problem is None and workload.cold and sample.cache_hit:
            problem = "served from a cache in a workload whose ops must plan cold"
        if problem is None and index and op in reference:
            if sample.signature() != reference[op].signature():
                problem = (
                    f"pass {index} differs from pass 0: {sample.signature()} "
                    f"!= {reference[op].signature()}"
                )
        if problem is None and index == 0 and golden is not None and sample.plan is not None:
            expected = alternatives[0] if isinstance(alternatives, list) else alternatives
            if expected is None:
                problem = "no golden plan recorded (see README: regenerating golden_plans.json)"
            elif expected != sample.plan:
                problem = f"plan {sample.plan!r} differs from golden {expected!r}"
        if problem is not None:
            measured.failed += 1
            measured.failures.append(f"{op}: {problem}")


# --------------------------------------------------------------------------- end to end
def end_to_end(measured: Measured, setup_seconds: Sequence[float]) -> Dict[str, float]:
    latency = measured.floors(lambda sample: sample.seconds)
    q_exec = measured.floors(lambda sample: sample.parts.get("q_exec"))
    find = measured.floors(lambda sample: sample.parts.get("find"))
    rw_exec = measured.floors(lambda sample: sample.parts.get("rw_exec"))
    with_hadad = sum(find[op] + rw_exec[op] for op in q_exec)
    floors = list(latency.values())
    return {
        "sweep_floor_ms": sum(floors) * 1e3,
        "op_p50_floor_ms": nearest_rank(floors, 50) * 1e3,
        "op_p90_floor_ms": nearest_rank(floors, 90) * 1e3,
        "payoff_x": sum(q_exec.values()) / with_hadad,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": min(setup_seconds),
    }


def build_fixture(
    factory: Callable[[], Workload],
    builds: int,
    min_seconds: float = 0.0,
    tracer: Optional[Tracer] = None,
) -> Tuple[Workload, List[float]]:
    """Build the workload's whole fixture ``builds`` times, and on until
    ``min_seconds`` have gone into builds; keep the last."""
    seconds: List[float] = []
    workload = None
    for build in range(SETUP_MAX_BUILDS):
        if build >= builds and sum(seconds) >= min_seconds:
            break
        if workload is not None:
            workload.teardown()
        gc.collect()
        if tracer is not None:
            tracer.pass_index = build
        workload = factory()
        start = time.perf_counter()
        workload.setup(tracer)
        seconds.append(time.perf_counter() - start)
    return workload, seconds


def _print_host(measured: Measured) -> None:
    calib_floor = min(measured.calibrations)
    calib_p50 = statistics.median(measured.calibrations)
    noisy = calib_p50 / calib_floor > NOISY_HOST_RATIO
    print(
        f"  host: calib floor {calib_floor * 1e3:.2f} ms, p50 {calib_p50 * 1e3:.2f} ms"
        + ("  ** noisy_host: raw medians below are inflated, floors are not **" if noisy else "")
    )


def measure(factory: Callable[[], Workload], seconds: float, regenerate: bool = False) -> dict:
    """The gated run: set up, replay, reduce to the end-to-end metrics.

    With ``regenerate`` the golden check is skipped and the plans of the
    check pass are written to ``golden_plans.json`` instead."""
    workload, setup_seconds = build_fixture(factory, SETUP_BUILDS, SETUP_MIN_SECONDS)
    golden = None if regenerate else _golden_for(workload)
    try:
        measured = run_passes(workload, seconds, golden)
    finally:
        workload.teardown()
    timed = measured.timed
    print(
        f"{workload.name}: {len(measured.passes[0])} ops/pass, closed loop, "
        f"{workload.clients} client(s), {len(timed)} timed passes "
        f"(+{WARMUP_PASSES} warm-up), ops attempted {measured.attempted}, "
        f"succeeded {measured.attempted - measured.failed}, failed {measured.failed}"
    )
    if len(timed) < STEADY_PASSES and not workload.smoke:
        print(f"  ** low_passes: {len(timed)} < {STEADY_PASSES}, floors may not have converged **")
    _print_host(measured)
    raw = sorted(sample.seconds for samples in timed for sample in samples.values())
    print(
        f"  raw (not gated): p50 {nearest_rank(raw, 50) * 1e3:.3f} ms, "
        f"p99 {nearest_rank(raw, 99) * 1e3:.3f} ms, "
        f"{len(raw) / sum(raw):.1f} ops/s over {len(raw)} samples"
    )
    signature = sorted((op, sample.signature()) for op, sample in measured.passes[0].items())
    print(
        f"  signature {hashlib.sha1(repr(signature).encode()).hexdigest()[:16]} "
        f"(plans, hit/miss vector and exact counters of a pass: equal in every pass, "
        f"process and seed)"
    )
    for failure in measured.failures[:20]:
        print(f"  FAILED {failure}")
    document = {
        "correct": not measured.failures,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {},
    }
    if not measured.failures:
        values = end_to_end(measured, setup_seconds)
        for metric in END_TO_END:
            print(f"  {metric.name:32s} {values[metric.name]:14.4f} {metric.unit}")
            document["metrics"][metric.name] = {"value": values[metric.name], "unit": metric.unit}
    if regenerate and not measured.failures:
        recorded = load_golden()
        previous = recorded.get(workload.name, {})
        recorded[workload.name] = {
            # A reviewed list of equal-cost alternatives survives while the
            # plan is still one of them.
            op: previous[op]
            if isinstance(previous.get(op), list) and sample.plan in previous[op]
            else sample.plan
            for op, sample in measured.passes[0].items()
            if sample.plan is not None
        }
        GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"  recorded {len(recorded[workload.name])} golden plans")
    return document


def _golden_for(workload: Workload) -> Optional[dict]:
    if workload.smoke and not workload.golden_in_smoke:
        return None
    return load_golden().get(workload.name, {})


# --------------------------------------------------------------------------- per layer
@dataclass
class LayerInputs:
    """Span floors and exact counts from one source of a traced run."""

    source: str
    floors: Dict[str, Dict[str, float]]
    counts: Dict[str, float]


def _counts(workload: Workload, samples: Dict[str, OpSample]) -> Dict[str, float]:
    """Sum the per-op counters (the wire hides a served plan's chase
    counters, so those come from the traced in-process re-plan)."""
    totals: Dict[str, float] = {}
    for op, sample in samples.items():
        for key, value in {**workload.traced_counters.get(op, {}), **sample.counters}.items():
            totals[key] = totals.get(key, 0.0) + value
    totals.update(workload.extra_counts())
    return totals


def _traced_passes(workload: Workload, tracer: Tracer, seconds: float) -> None:
    """One discarded warm-up pass, then up to ``TRACED_PASSES`` within the budget."""
    deadline = time.perf_counter() + seconds
    for index in range(1 + TRACED_PASSES):
        settle_collector()
        tracer.pass_index = index
        start = time.perf_counter()
        workload.run_traced_pass(tracer)
        elapsed = time.perf_counter() - start
        if index >= 1 and time.perf_counter() + elapsed > deadline:
            break


def _trace_workload(
    factory: Callable[[], Workload], builds: int, untraced_seconds: float, traced_seconds: float
) -> Tuple[LayerInputs, Measured, Workload, Tracer, Tracer]:
    setup_tracer = Tracer()
    workload, _ = build_fixture(factory, builds, tracer=setup_tracer)
    try:
        measured = run_passes(workload, untraced_seconds, _golden_for(workload))
        tracer = Tracer()
        _traced_passes(workload, tracer, traced_seconds)
        counts = _counts(workload, measured.passes[-1])
    finally:
        workload.teardown()
    floors = setup_tracer.floors(0)
    floors.update(tracer.floors(1))
    for part, span in workload.part_spans.items():
        floors[span] = measured.floors(lambda sample: sample.parts.get(part))
    return LayerInputs("ops", floors, counts), measured, workload, setup_tracer, tracer


class _Resolver:
    """Finds each metric's inputs: the workload's own ops first, then the
    smoke-sized probe of the first other workload that enters the layer."""

    def __init__(self, inputs: Sequence[LayerInputs]):
        self.inputs = inputs

    def spans(self, name: str) -> LayerInputs:
        for candidate in self.inputs:
            if candidate.floors.get(name):
                return candidate
        raise KeyError(f"no source recorded a span named {name!r}")

    def counter(self, name: str) -> LayerInputs:
        for candidate in self.inputs:
            if name in candidate.counts:
                return candidate
        raise KeyError(f"no source recorded a count named {name!r}")


def _median(floors: Dict[str, float]) -> float:
    return statistics.median(floors.values())


def _paired_median(first: Dict[str, float], second: Dict[str, float]) -> float:
    return statistics.median(first[op] - second[op] for op in first if op in second)


def _derive(name: str, resolver: _Resolver) -> Tuple[float, str]:
    """The metrics that are a ratio or a difference of several readings,
    all taken from the one source that has the leading reading."""
    if name == "match_yield":
        src = resolver.counter("chase.matches_attempted")
        return src.counts["chase.atoms_materialized"] / src.counts["chase.matches_attempted"], src.source
    if name == "plan_quality":
        src = resolver.counter("cost.original")
        return src.counts["cost.original"] / src.counts["cost.best"], src.source
    if name == "kept_warm_ratio":
        src = resolver.counter("service.plans_kept_warm")
        kept = src.counts["service.plans_kept_warm"]
        return kept / (kept + src.counts["service.plans_revalidated"]), src.source
    if name == "batch_size_mean":
        src = resolver.counter("server.batches")
        return src.counts["server.batched_requests"] / src.counts["server.batches"], src.source
    if name == "rewrite_overhead":
        src = resolver.spans("api.rewrite")
        return _paired_median(src.floors["api.rewrite"], src.floors["planner.rewrite_cold"]), src.source
    if name == "router_overhead":
        src = resolver.spans("service.execute")
        return (
            _paired_median(src.floors["service.execute"], src.floors["backends.numpy_rw_exec"]),
            src.source,
        )
    if name == "batch_wait":
        src = resolver.spans("server.plan_warm")
        return (
            _median(src.floors["server.plan_warm"])
            - _median(src.floors["server.http_roundtrip"])
            - _median(src.floors["service.pool_plan_warm"]),
            src.source,
        )
    if name == "trace_overhead":
        src = resolver.spans("planner.rewrite_staged")
        staged, whole = src.floors["planner.rewrite_staged"], src.floors["planner.rewrite_cold"]
        untraced = sum(whole[op] for op in staged)
        return (sum(staged.values()) - untraced) / untraced, src.source
    raise KeyError(name)


def layer_value(
    layer: Layer, resolver: _Resolver, harness: Dict[str, float]
) -> Tuple[float, str]:
    """One per-layer metric and where its inputs came from."""
    aggregate, key = layer.how
    if aggregate == "harness":
        return harness[key], "harness"
    if aggregate == "count":
        src = resolver.counter(key)
        return src.counts[key], src.source
    if aggregate == "derived":
        value, source = _derive(key, resolver)
        return value * SCALE.get(layer.unit, 100.0 if layer.unit == "%" else 1.0), source
    src = resolver.spans(key)
    floors = list(src.floors[key].values())
    value = {"sum": sum, "max": max, "median": statistics.median}[aggregate](floors)
    return value * SCALE[layer.unit], src.source


STAGE_SPAN_NAMES = ("vrem.encode", "chase.saturate", "cost.annotate", "core.extract", "core.postopt")


def measure_layers(
    factory: Callable[[], Workload],
    probe_factories: Dict[str, Callable[[], Workload]],
    seconds: float,
    import_seconds: float,
) -> dict:
    """The traced run: untraced passes (the reference), traced passes of the
    workload's own ops, then smoke-sized probes of the other workloads for
    the layers this one never enters."""
    untraced_share, traced_share = TRACED_BUDGET_SPLIT
    own, measured, workload, setup_tracer, tracer = _trace_workload(
        factory, TRACED_SETUP_BUILDS, seconds * untraced_share, seconds * traced_share
    )
    inputs = [own]
    failures = list(measured.failures)
    for name, probe_factory in probe_factories.items():
        probe, probed, *_ = _trace_workload(probe_factory, 1, 0.0, 0.0)
        probe.source = f"probe:{name}"
        inputs.append(probe)
        failures += [f"probe {name}: {failure}" for failure in probed.failures]
    timed = measured.timed
    harness = {
        "import_s": import_seconds,
        "gc_ms_per_pass": statistics.fmean(measured.gc_seconds[WARMUP_PASSES:]) * 1e3,
        "gc_collections": float(sum(measured.gc_collections[WARMUP_PASSES:])),
        "calib_floor_ms": min(measured.calibrations) * 1e3,
        "calib_p50_ms": statistics.median(measured.calibrations) * 1e3,
    }
    resolver = _Resolver(inputs)
    print(
        f"{workload.name} (traced): {len(timed)} untraced + "
        f"{tracer.pass_index} traced passes, {len(tracer.spans)} spans, "
        f"ops attempted {measured.attempted}, failed {measured.failed}"
    )
    _print_host(measured)
    document = {
        "correct": not failures,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {},
    }
    sources = {}
    for layer in LAYERS:
        value, source = layer_value(layer, resolver, harness)
        sources[layer.name] = source
        print(f"  {layer.name:36s} {value:14.4f} {layer.unit:6s} [{source}]")
        document["metrics"][layer.name] = {"value": value, "unit": layer.unit}
    for failure in failures[:20]:
        print(f"  FAILED {failure}")

    # How well the stage spans account for the untraced sweep, and how the
    # planner's own stage_timings compare with the spans around them.
    untraced_find = sum(measured.floors(lambda s: s.parts.get("find")).values())
    self_floors = tracer.floors(1, self_time=True)
    stage_self = {name: sum(self_floors.get(name, {}).values()) for name in STAGE_SPAN_NAMES}
    stage_check = {}
    for name in STAGE_SPAN_NAMES:
        reported = sum(
            seconds for (span, _op), seconds in workload.reported_stage_seconds.items() if span == name
        )
        stage_check[name] = {
            "span_ms": sum(own.floors.get(name, {}).values()) * 1e3,
            "planner_reported_ms": reported * 1e3,
        }
    summary = {
        "untraced_find_floor_ms": untraced_find * 1e3,
        "stage_self_sum_ms": sum(stage_self.values()) * 1e3,
        "saturate_share_of_untraced_find": stage_self["chase.saturate"] / untraced_find,
        "stage_spans_vs_planner_stage_timings": stage_check,
    }
    print(
        f"  stage self times sum to {summary['stage_self_sum_ms']:.1f} ms = "
        f"{summary['stage_self_sum_ms'] / summary['untraced_find_floor_ms'] * 100:.1f} % of the "
        f"untraced plan-finding floor; chase.saturate is "
        f"{summary['saturate_share_of_untraced_find'] * 100:.1f} % of it"
    )
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{workload.name}.json"
    path.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": workload.seed,
                "smoke": workload.smoke,
                "metrics": document["metrics"],
                "sources": sources,
                "summary": summary,
                "setup_spans": setup_tracer.to_json(),
                "spans": tracer.to_json(),
            }
        )
    )
    print(f"  trace written to {path.relative_to(HERE.parents[1])}")
    return document
