"""Unit tests of the benchmark's statistics, tracer, judge and metric tables."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[3]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.layered import harness  # noqa: E402
from benchmarks.layered.cli import WORKLOAD_NAMES  # noqa: E402
from benchmarks.layered.layers import END_TO_END, LAYERS  # noqa: E402
from benchmarks.layered.stats import floor, nearest_rank, span_self_times  # noqa: E402
from benchmarks.layered.tracer import Tracer  # noqa: E402
from benchmarks.layered.workloads import WORKLOADS  # noqa: E402
from benchmarks.layered.workloads.base import OpSample, Workload  # noqa: E402


class TestFloor:
    def test_minimum_after_warmup(self):
        assert floor([1.0, 0.5, 3.0, 2.0, 4.0]) == 2.0

    def test_custom_warmup(self):
        assert floor([1.0, 0.5, 3.0], warmup=0) == 0.5

    def test_needs_a_sample_beyond_warmup(self):
        with pytest.raises(ValueError):
            floor([1.0, 2.0])


class TestNearestRank:
    def test_is_a_member_never_interpolated(self):
        values = [15, 20, 35, 40, 50]
        assert nearest_rank(values, 30) == 20
        assert nearest_rank(values, 40) == 20
        assert nearest_rank(values, 50) == 35
        assert nearest_rank(values, 100) == 50

    def test_order_does_not_matter(self):
        assert nearest_rank([50, 15, 40, 20, 35], 90) == 50

    def test_small_percentile_is_the_minimum(self):
        assert nearest_rank([3.0, 1.0, 2.0], 1) == 1.0

    @pytest.mark.parametrize("bad", [0, -5, 101])
    def test_rejects_percentiles_outside_0_100(self, bad):
        with pytest.raises(ValueError):
            nearest_rank([1.0], bad)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            nearest_rank([], 50)


class TestSpanSelfTimes:
    def test_children_are_subtracted_and_tree_sums_to_root(self):
        spans = [(-1, 0.0, 10.0), (0, 1.0, 4.0), (0, 5.0, 9.0), (2, 6.0, 7.0)]
        selfs = span_self_times(spans)
        assert selfs == [3.0, 3.0, 3.0, 1.0]
        assert sum(selfs) == 10.0

    def test_overlapping_children_count_once_and_are_clipped(self):
        spans = [(-1, 0.0, 10.0), (0, 2.0, 6.0), (0, 4.0, 12.0)]
        assert span_self_times(spans)[0] == 2.0

    def test_bad_parent_is_rejected(self):
        with pytest.raises(ValueError):
            span_self_times([(3, 0.0, 1.0)])


class TestTracer:
    def test_parents_and_floors(self):
        tracer = Tracer()
        for pass_index in range(3):
            tracer.pass_index = pass_index
            with tracer.span("outer", "op1"):
                with tracer.span("inner", "op1"):
                    pass
        outer, inner = tracer.spans[0], tracer.spans[1]
        assert outer.parent == -1 and inner.parent == outer.index
        assert tracer.stack == []
        floors = tracer.floors(warmup=1)
        kept = [s.seconds for s in tracer.spans if s.name == "outer" and s.pass_index >= 1]
        assert floors["outer"]["op1"] == min(kept)
        self_floors = tracer.floors(warmup=1, self_time=True)
        assert self_floors["outer"]["op1"] <= floors["outer"]["op1"]
        assert {s["name"] for s in tracer.to_json()} == {"outer", "inner"}


class _Fake(Workload):
    name = "fake"
    cold = True


def _judge(samples_by_pass, golden=None):
    measured = harness.Measured()
    for index, samples in enumerate(samples_by_pass):
        measured.passes.append(samples)
        harness._judge(_Fake(0, False), measured, samples, index, golden)
    return measured


class TestJudge:
    def test_clean_passes_have_no_failures(self):
        sample = OpSample(0.1, plan="p", cache_hit=False, counters={"chase.rounds": 4.0})
        measured = _judge([{"a": sample}, {"a": sample}], golden={"a": "p"})
        assert (measured.attempted, measured.failed, measured.failures) == (2, 0, [])

    def test_plan_differing_from_golden_fails(self):
        measured = _judge([{"a": OpSample(0.1, plan="q", cache_hit=False)}], golden={"a": "p"})
        assert measured.failed == 1 and "differs from golden" in measured.failures[0]

    def test_missing_golden_entry_fails(self):
        measured = _judge([{"a": OpSample(0.1, plan="q", cache_hit=False)}], golden={})
        assert measured.failed == 1 and "no golden plan" in measured.failures[0]

    def test_cache_hit_in_a_cold_workload_fails(self):
        measured = _judge([{"a": OpSample(0.1, plan="p", cache_hit=True)}])
        assert measured.failed == 1 and "cold" in measured.failures[0]

    def test_count_differing_between_passes_fails_and_names_the_op(self):
        first = OpSample(0.1, plan="p", cache_hit=False, counters={"chase.rounds": 4.0})
        second = OpSample(0.1, plan="p", cache_hit=False, counters={"chase.rounds": 5.0})
        measured = _judge([{"a": first}, {"a": second}])
        assert measured.failed == 1 and measured.failures[0].startswith("a: pass 1 differs")

    def test_wrong_value_fails(self):
        measured = _judge([{"a": OpSample(0.1, failure="value differs")}])
        assert measured.failed == 1


class TestContractFile:
    """BENCHMARK.json repeats the tables in layers.py and the workload registry."""

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_keys_and_paths(self):
        assert set(self.contract) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
        }
        assert self.contract["paths"] == ["benchmarks/layered"]
        assert self.contract["command"] == ["python3", "benchmarks/layered/run.py"]

    def test_workloads_match_the_registry(self):
        names = [workload["name"] for workload in self.contract["workloads"]]
        assert names == list(WORKLOAD_NAMES) == list(WORKLOADS)
        for workload in self.contract["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]

    def test_end_to_end_matches_layers_py(self):
        assert self.contract["end_to_end"] == [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ]
        bounds = {m.name: m.bound for m in END_TO_END}
        assert bounds["setup_s"] == max(bounds.values()) <= 0.25

    def test_per_layer_matches_layers_py(self):
        assert self.contract["per_layer"] == [
            {"name": layer.name, "unit": layer.unit, "better": layer.better} for layer in LAYERS
        ]
        names = [layer.name for layer in LAYERS] + [m.name for m in END_TO_END]
        assert len(names) == len(set(names)) and len(LAYERS) <= 128
