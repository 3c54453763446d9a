"""Integration tests: benchmark kit (pipelines, views, harness) and hybrid queries."""

import numpy as np
import pytest

from repro.backends.base import values_allclose
from repro.backends.numpy_backend import NumpyBackend
from repro.benchkit.datasets import ROLE_BINDINGS_DENSE, benchmark_catalog
from repro.benchkit.expected import EXPECTED_REWRITES, build_expected_rewrite
from repro.benchkit.harness import materialize_views, print_report, run_pipeline
from repro.benchkit.hybrid_queries import hybrid_queries, hybrid_views
from repro.benchkit.pipelines import (
    PIPELINES, P_NO_OPT, P_OPT, P_VIEWS, build_pipeline, default_roles, pipeline_names,
)
from repro.benchkit.views_vexp import VIEWS_USED_BY_PIPELINE, build_vexp_views
from repro.core import PlanSession
from repro.cost import MNCEstimator, NaiveMetadataEstimator
from repro.cost.model import expression_cost
from repro.data.datasets import twitter_dataset
from repro.hybrid import HybridExecutor, HybridOptimizer
from repro.lang.shapes import check_expr


@pytest.fixture(scope="module")
def bench_catalog():
    return benchmark_catalog(scale=0.004)


@pytest.fixture(scope="module")
def paper_catalog():
    """The scale the paper-table checks were set at (costs, not values)."""
    return benchmark_catalog(scale=0.01)


@pytest.fixture(scope="module")
def bench_roles():
    return default_roles(ROLE_BINDINGS_DENSE)


class TestPipelineDefinitions:
    def test_all_57_pipelines_defined(self):
        assert len(PIPELINES) == 57
        assert len([n for n in pipeline_names() if n.startswith("P1.")]) == 30
        assert len([n for n in pipeline_names() if n.startswith("P2.")]) == 27

    def test_partitions_are_consistent(self):
        assert set(P_NO_OPT) <= set(PIPELINES)
        assert set(P_VIEWS) <= set(PIPELINES)
        assert set(P_OPT) | set(P_NO_OPT) == set(PIPELINES)

    def test_every_pipeline_is_shape_correct(self, bench_catalog, bench_roles):
        for name in pipeline_names():
            expr = build_pipeline(name, bench_roles)
            check_expr(expr, bench_catalog)

    def test_every_pipeline_is_costable(self, bench_catalog, bench_roles):
        estimator = NaiveMetadataEstimator()
        for name in pipeline_names():
            expr = build_pipeline(name, bench_roles)
            assert expression_cost(expr, bench_catalog, estimator) >= 0.0

    def test_expected_rewrites_are_equivalent_and_cheaper(self, bench_catalog, bench_roles):
        """The paper's Tables 12/13 rewrites are value-equal and not costlier."""
        backend = NumpyBackend(bench_catalog)
        estimator = NaiveMetadataEstimator()
        for name in sorted(EXPECTED_REWRITES):
            original = build_pipeline(name, bench_roles)
            expected = build_expected_rewrite(name, bench_roles)
            check_expr(expected, bench_catalog)
            assert values_allclose(
                backend.evaluate(original), backend.evaluate(expected), rtol=1e-4, atol=1e-5
            ), f"paper rewrite of {name} is not equivalent"
            assert (
                expression_cost(expected, bench_catalog, estimator)
                <= expression_cost(original, bench_catalog, estimator) + 1e-6
            ), f"paper rewrite of {name} is costlier than the original"

    @pytest.mark.parametrize("name", sorted(EXPECTED_REWRITES))
    def test_found_plan_is_no_costlier_than_the_paper_rewrite(
        self, paper_catalog, bench_roles, name
    ):
        """Tables 2/3 vs 12/13: on every P¬Opt pipeline the naive-cost plan
        is within 5 % of the cost of the rewrite the paper reports."""
        estimator = NaiveMetadataEstimator()
        result = PlanSession(paper_catalog, estimator=estimator).rewrite(
            build_pipeline(name, bench_roles)
        )
        paper = expression_cost(build_expected_rewrite(name, bench_roles), paper_catalog, estimator)
        assert result.best_cost <= paper * 1.05 + 1e-6, (result.best.to_string(), paper)

    def test_mnc_plans_keep_their_value_and_rewrite_most_of_pnoopt(
        self, paper_catalog, bench_roles
    ):
        """Figs 5, 6 and 8 under the MNC estimator: every P¬Opt plan has the
        value of the pipeline as stated, the sum-of-product pipelines change
        (they avoid the product intermediate) and at least 70 % of P¬Opt is
        rewritten."""
        session = PlanSession(paper_catalog, estimator=MNCEstimator())
        backend = NumpyBackend(paper_catalog)
        with np.errstate(over="ignore"):  # det of the 100 x 100 C, D overflows
            runs = [
                run_pipeline(name, build_pipeline(name, bench_roles), session, backend)
                for name in P_NO_OPT
            ]
        assert [run.name for run in runs if not run.equivalent] == []
        changed = {run.name for run in runs if run.changed}
        assert {"P1.13", "P1.14", "P2.12"} <= changed
        assert len(changed) >= int(0.7 * len(P_NO_OPT)), sorted(set(P_NO_OPT) - changed)

    def test_vexp_views_cover_table_14(self, bench_catalog, bench_roles):
        views = build_vexp_views(bench_roles)
        assert len(views) == 12
        for view in views:
            check_expr(view.definition, bench_catalog)
        assert set(VIEWS_USED_BY_PIPELINE) == set(P_VIEWS)


class TestHarness:
    def test_run_pipeline_records_speedup(self, bench_catalog, bench_roles):
        optimizer = PlanSession(bench_catalog)
        backend = NumpyBackend(bench_catalog)
        expr = build_pipeline("P1.15", bench_roles)
        run = run_pipeline("P1.15", expr, optimizer, backend)
        assert run.changed and run.equivalent
        assert run.rw_find > 0.0
        assert "P1.15" in run.as_row()

    def test_materialize_views_registers_values(self, bench_catalog, bench_roles):
        views = build_vexp_views(bench_roles, subset=["V6"])
        materialize_views(views, bench_catalog)
        assert bench_catalog.has_matrix_values("V6")

    def test_print_report_formats(self, bench_catalog, bench_roles):
        optimizer = PlanSession(bench_catalog)
        backend = NumpyBackend(bench_catalog)
        runs = [
            run_pipeline(name, build_pipeline(name, bench_roles), optimizer, backend)
            for name in ("P1.5", "P1.7")
        ]
        report = print_report("smoke", runs)
        assert "P1.5" in report and "median speedup" in report

    def test_optimizer_improves_most_pnoopt_costs(self, bench_catalog, bench_roles):
        """On the P¬Opt subset the optimizer should lower the estimated cost
        for the large majority of pipelines (the paper's Figure 8 story)."""
        optimizer = PlanSession(bench_catalog)
        sample = ["P1.1", "P1.3", "P1.4", "P1.5", "P1.13", "P1.15", "P2.10", "P2.11", "P2.13", "P2.25"]
        improved = 0
        for name in sample:
            result = optimizer.rewrite(build_pipeline(name, bench_roles))
            if result.best_cost < result.original_cost - 1e-9:
                improved += 1
        assert improved >= 7


class TestHybrid:
    @pytest.fixture(scope="class")
    def twitter(self):
        catalog, spec = twitter_dataset(n_tweets=300, n_hashtags=40, density=0.01)
        return catalog, spec

    def test_hybrid_queries_built(self, twitter):
        catalog, spec = twitter
        queries = hybrid_queries(catalog, spec, dataset="twitter")
        assert [q.name for q in queries] == [f"Q{i}" for i in range(1, 11)]

    def test_executor_runs_q1(self, twitter):
        catalog, spec = twitter
        queries = hybrid_queries(catalog, spec, dataset="twitter")
        executor = HybridExecutor(catalog)
        result = executor.execute(queries[0])
        assert result.total_seconds >= 0.0
        assert catalog.has_matrix_values("Mfeat") and catalog.has_matrix_values("Nsparse")

    def test_hybrid_optimizer_rewrites_and_preserves_value(self, twitter):
        catalog, spec = twitter
        queries = hybrid_queries(catalog, spec, dataset="twitter")
        executor = HybridExecutor(catalog)
        for query in queries[:3]:
            executor.execute(query)  # materialize M and N
            optimizer = HybridOptimizer(catalog)
            rewritten = optimizer.rewrite(query)
            original = executor.execute(query, skip_builders=True)
            optimized = executor.execute(
                query, analysis_override=rewritten.optimized_analysis, skip_builders=True
            )
            assert values_allclose(original.value, optimized.value, rtol=1e-4, atol=1e-5)

    def test_hybrid_views_enable_factorized_rewrites(self, twitter):
        catalog, spec = twitter
        queries = hybrid_queries(catalog, spec, dataset="twitter")
        executor = HybridExecutor(catalog)
        executor.execute(queries[0])
        optimizer = HybridOptimizer(catalog)
        optimizer.ensure_factor_matrices(queries[0])
        views = hybrid_views(catalog)
        materialize_views(views, catalog)
        with_views = HybridOptimizer(catalog, la_views=views)
        result = with_views.rewrite(queries[0])
        assert result.la_result.best_cost <= result.la_result.original_cost + 1e-9

    def test_relational_view_substitution(self, twitter):
        catalog, spec = twitter
        queries = hybrid_queries(catalog, spec, dataset="twitter")
        optimizer = HybridOptimizer(
            catalog, relational_view_tables={"Mfeat": "User"}
        )
        result = optimizer.rewrite(queries[0])
        assert result.ra_view_substitutions == {"Mfeat": "User"}

    def test_mimic_queries_build_and_run(self):
        from repro.data.datasets import mimic_dataset

        catalog, spec = mimic_dataset(n_patients=150, n_services=60, density=0.01)
        queries = hybrid_queries(catalog, spec, dataset="mimic")
        executor = HybridExecutor(catalog)
        result = executor.execute(queries[4])
        assert result.total_seconds >= 0.0
