"""Benchmark kit: the paper's workloads, views, datasets and harness.

* :mod:`repro.benchkit.datasets` — the benchmark catalog (Tables 4/5/6,
  scaled for laptop execution);
* :mod:`repro.benchkit.pipelines` — the 57 LA pipelines of Tables 2 and 3,
  with the matrix role bindings of Table 6 and the P¬Opt / P_Views / P_Opt
  partition of §9.1;
* :mod:`repro.benchkit.views_vexp` — the view set V_exp of Table 14;
* :mod:`repro.benchkit.expected` — the expected rewrites of Tables 12/13/15;
* :mod:`repro.benchkit.harness` — timing of original vs rewritten pipelines
  (Q_exec, RW_find, RW_exec) on a chosen backend, and view materialisation;
* :mod:`repro.benchkit.hybrid_queries` — the micro-hybrid benchmark queries
  Q1–Q10 of Table 7 / Appendix G over the synthetic Twitter / MIMIC data.
"""

from repro.benchkit.datasets import benchmark_catalog, ROLE_BINDINGS_DENSE, ROLE_BINDINGS_SPARSE
from repro.benchkit.pipelines import (
    PIPELINES,
    P_NO_OPT,
    P_VIEWS,
    P_OPT,
    build_pipeline,
    pipeline_names,
)
from repro.benchkit.views_vexp import VEXP_VIEWS, build_vexp_views
from repro.benchkit.expected import EXPECTED_REWRITES, build_expected_rewrite
from repro.benchkit.harness import (
    PipelineRun,
    materialize_views,
    run_pipeline,
)

__all__ = [
    "benchmark_catalog",
    "ROLE_BINDINGS_DENSE",
    "ROLE_BINDINGS_SPARSE",
    "PIPELINES",
    "P_NO_OPT",
    "P_VIEWS",
    "P_OPT",
    "build_pipeline",
    "pipeline_names",
    "VEXP_VIEWS",
    "build_vexp_views",
    "EXPECTED_REWRITES",
    "build_expected_rewrite",
    "PipelineRun",
    "run_pipeline",
    "materialize_views",
]
