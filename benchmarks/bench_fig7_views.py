"""Figure 7: P2.14, P2.21, P2.25, P2.27 — view-based rewriting with V_exp (naive cost model)."""

import pytest

from repro.benchkit.harness import materialize_views, run_pipeline
from repro.benchkit.pipelines import build_pipeline
from repro.benchkit.views_vexp import VIEWS_USED_BY_PIPELINE, build_vexp_views
from repro.planner import PlanSession
from repro.cost import NaiveMetadataEstimator

FIG7_PIPELINES = ["P2.14", "P2.21", "P2.25", "P2.27"]


@pytest.fixture(scope="module")
def views_env(catalog, roles):
    views = build_vexp_views(roles)
    materialize_views(views, catalog)
    optimizer = PlanSession(catalog, views=views, estimator=NaiveMetadataEstimator())
    return views, optimizer


@pytest.mark.parametrize("name", FIG7_PIPELINES)
def test_original_execution(benchmark, name, roles, numpy_backend):
    benchmark(numpy_backend.evaluate, build_pipeline(name, roles))


@pytest.mark.parametrize("name", FIG7_PIPELINES)
def test_rewritten_with_views_execution(benchmark, name, roles, numpy_backend, views_env):
    _, optimizer = views_env
    result = optimizer.rewrite(build_pipeline(name, roles))
    benchmark(numpy_backend.evaluate, result.best)


def test_fig7_report(roles, numpy_backend, views_env):
    _, optimizer = views_env
    print("\npipeline  Qexec(ms)  RWexec(ms)  speedup  views used  rewrite")
    for name in FIG7_PIPELINES:
        run = run_pipeline(name, build_pipeline(name, roles), optimizer, numpy_backend)
        print(
            f"{run.name:8s} {run.q_exec * 1e3:9.2f} {run.rw_exec * 1e3:10.2f} "
            f"{run.speedup:7.2f}x  {','.join(run.used_views) or '-':10s} {run.rewrite}"
        )
        assert run.equivalent is not False
        assert run.best_cost <= run.original_cost + 1e-9
