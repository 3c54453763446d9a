"""The workload registry: name -> class, in reporting order."""

from benchmarks.layered.workloads.hybrid import Hybrid
from benchmarks.layered.workloads.pipelines import ExecPayoff, PlanCold
from benchmarks.layered.workloads.serve_churn import ServeChurn

WORKLOADS = {cls.name: cls for cls in (PlanCold, ExecPayoff, Hybrid, ServeChurn)}

__all__ = ["WORKLOADS"]
