"""End-to-end smoke runs of the benchmark through its runner (``--smoke``:
three passes at reduced sizes), so the harness cannot rot unnoticed."""

import functools
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[3]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.layered import cli  # noqa: E402
from benchmarks.layered.layers import END_TO_END, LAYERS  # noqa: E402


@functools.lru_cache(maxsize=None)
def _smoke(workload, seed, trace):
    code, document, report = cli.run_child(workload, seed, 0.0, trace, smoke=True)
    assert code == 0, report
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["correct"] is True and document["failed"] == 0 and document["attempted"] >= 1
    assert json.loads(report.strip().splitlines()[-1]) == document
    return document, report


def _signature(report):
    return re.search(r"signature ([0-9a-f]{16})", report).group(1)


@pytest.mark.parametrize("workload", cli.WORKLOAD_NAMES)
def test_smoke_reports_every_end_to_end_metric(workload):
    document, report = _smoke(workload, 1, 0)
    assert list(document["metrics"]) == [metric.name for metric in END_TO_END]
    for metric in END_TO_END:
        reading = document["metrics"][metric.name]
        assert reading["unit"] == metric.unit and reading["value"] > 0
    assert "ops attempted" in report and "raw (not gated)" in report


@pytest.mark.parametrize("workload", ["plan_cold", "serve_churn"])
def test_counts_and_hit_miss_vector_repeat_across_processes_and_seeds(workload):
    """Plans, chase counters, changed-plan flags and the per-op hit/miss
    vector are the same in a second process under another seed (another op
    order): the seed moves the order of the work, never the work."""
    _, first = _smoke(workload, 1, 0)
    _, second = _smoke(workload, 2, 0)
    assert _signature(first) == _signature(second)


def test_traced_smoke_reports_every_layer_and_writes_the_trace():
    # plan_cold's traced run probes the other three workloads for the layers
    # it never enters, so this one run drives every workload's traced pass.
    document, report = _smoke("plan_cold", 1, 1)
    assert list(document["metrics"]) == [layer.name for layer in LAYERS]
    sources = dict(re.findall(r"^\s+(\S+)\s+\S+\s+\S+\s+\[(\S+)\]$", report, re.MULTILINE))
    assert sources["chase.saturate_ms"] == "ops"
    assert sources["server.plan_warm_ms"] == "probe:serve_churn"
    assert sources["hybrid.rewrite_ms"] == "probe:hybrid"
    trace = json.loads((ROOT / "benchmarks/layered/out/trace_plan_cold.json").read_text())
    assert trace["workload"] == "plan_cold" and trace["spans"]
    stages = {span["name"] for span in trace["spans"] if span["parent"] >= 0}
    assert stages == {"vrem.encode", "chase.saturate", "cost.annotate", "core.extract", "core.postopt"}
    assert all(span["self_ms"] >= 0 for span in trace["spans"])
