"""The cost analysis a plan shares: one per instance state, one memo per plan.

* shape inference inside ``annotate_expression`` is linear in the node count;
* ``expression_cost(annotations=)`` annotates missing nodes into the given
  memo, whatever it already holds;
* the analysis the tighten bound stores is never read stale: on every cold
  plan of the 57 pipelines (with and without the V_exp views), under the
  default options and under the three configurations where no tighten sees
  the final instance, the plan equals one costed from scratch;
* each distinct instance state of a plan is analysed once, with one walk of
  its atoms and one DP, and Extract analyses nothing.
"""

from __future__ import annotations

import pytest

import repro.core.extraction as extraction
import repro.lang.shapes as shapes
import repro.planner.stages as stages
from repro.benchkit.datasets import ROLE_BINDINGS_DENSE, benchmark_catalog
from repro.benchkit.harness import materialize_views
from repro.benchkit.pipelines import build_pipeline, default_roles, pipeline_names
from repro.benchkit.views_vexp import build_vexp_views
from repro.config import PlannerConfig
from repro.core.extraction import analyse, enumerate_equivalent_expressions, extract_best_expression
from repro.core.matchain import optimize_matmul_chains
from repro.cost import model
from repro.cost.model import annotate_expression, expression_cost
from repro.cost.naive_estimator import NaiveMetadataEstimator
from repro.exceptions import RewriteError
from repro.lang import matrix, transpose
from repro.planner import PlanSession
from repro.planner.stages import ALTERNATIVES_LIMIT, PlanContext

ROLES = default_roles(ROLE_BINDINGS_DENSE)
OPS = [(name, variant) for variant in ("nv", "vexp") for name in pipeline_names()]


def _chain(depth: int):
    """((C D)ᵀ D)ᵀ … : ``depth`` products, each under a transpose."""
    expr = matrix("C")
    for _ in range(depth):
        expr = transpose(expr @ matrix("D"))
    return expr


def _count_shape_calls(monkeypatch):
    calls = {"shape_of": 0, "_shape_of": 0}
    for name in calls:
        real = getattr(shapes, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(shapes, name, counted)
        if name == "shape_of":
            monkeypatch.setattr(model, "shape_of", counted)
    return calls


class TestShapeInference:
    def test_linear_in_the_node_count(self, small_catalog, monkeypatch):
        estimator = NaiveMetadataEstimator()
        expr = _chain(30)
        # The reference: every node annotated on its own, its shape inferred
        # from scratch.
        expected = {}

        def reference(node):
            if node not in expected:
                if node.children:
                    infos = [reference(child) for child in node.children]
                    shape = shapes.shape_of(node, small_catalog)
                    expected[node] = estimator.propagate(node.op, shape, infos)
                else:
                    expected[node] = estimator.leaf_info(small_catalog.meta(node.name))
            return expected[node]

        reference(expr)
        calls = _count_shape_calls(monkeypatch)
        annotations = annotate_expression(expr, small_catalog, estimator)
        nodes = len(annotations)
        assert nodes == 62  # 30 products, 30 transposes, C and D
        # One inference per node; one call per node plus one per edge.
        assert calls["_shape_of"] <= nodes
        assert calls["shape_of"] <= 3 * nodes
        assert annotations.keys() == expected.keys()
        for node, info in annotations.items():
            assert (info.shape, info.nnz) == (expected[node].shape, expected[node].nnz)


class TestExpressionCostMemo:
    EXPR = transpose(matrix("M") @ matrix("N")) @ matrix("M")
    OTHER = matrix("N") @ (matrix("M") @ matrix("N"))

    def test_empty_memo_is_filled(self, small_catalog):
        estimator = NaiveMetadataEstimator()
        memo = {}
        cost = expression_cost(self.EXPR, small_catalog, estimator, memo)
        assert cost == expression_cost(self.EXPR, small_catalog, estimator)
        assert memo == annotate_expression(self.EXPR, small_catalog, estimator)

    def test_memo_of_another_expression(self, small_catalog):
        estimator = NaiveMetadataEstimator()
        memo = annotate_expression(self.OTHER, small_catalog, estimator)
        before = dict(memo)
        cost = expression_cost(self.EXPR, small_catalog, estimator, memo)
        assert cost == expression_cost(self.EXPR, small_catalog, estimator)
        assert all(memo[node] is info for node, info in before.items())
        assert self.EXPR in memo and matrix("M") @ matrix("N") in memo

    def test_partial_memo(self, small_catalog):
        estimator = NaiveMetadataEstimator()
        inner = transpose(matrix("M") @ matrix("N"))
        # The inner node without its children: they are annotated on demand.
        memo = {inner: annotate_expression(inner, small_catalog, estimator)[inner]}
        cost = expression_cost(self.EXPR, small_catalog, estimator, memo)
        assert cost == expression_cost(self.EXPR, small_catalog, estimator)
        assert matrix("M") @ matrix("N") in memo


@pytest.fixture(scope="module")
def plan_cold_sessions():
    """Build the plan_cold sessions (scale 0.01, no views / V_exp) per config."""
    catalog = benchmark_catalog(scale=0.01)
    views = build_vexp_views(ROLES)
    materialize_views(views, catalog)
    built = {}

    def sessions(config: PlannerConfig):
        if config not in built:
            built[config] = {
                "nv": PlanSession(catalog=catalog, config=config),
                "vexp": PlanSession(catalog=catalog, views=views, config=config),
            }
        return built[config]

    return sessions


def _run_stages(session, expr) -> PlanContext:
    ctx = PlanContext(session=session, expr=expr)
    for stage in session.stages:
        stage.run(ctx)
    return ctx


def _from_scratch(ctx: PlanContext):
    """Best plan, its cost and the alternatives, from a fresh analysis of
    the final instance and fresh cost memos (the stages' rules, restated)."""
    session, expr = ctx.session, ctx.expr
    catalog, estimator = session.catalog, session.estimator
    fresh = analyse(ctx.instance, catalog, estimator)
    assert (fresh.costs, fresh.choices) == (ctx.analysis.costs, ctx.analysis.choices)
    try:
        best, _ = extract_best_expression(ctx.instance, ctx.root, fresh.infos)
    except RewriteError:
        best = expr
    alternatives = [
        (alt, expression_cost(alt, catalog, estimator))
        for alt, _ in enumerate_equivalent_expressions(
            ctx.instance, ctx.root, fresh.infos, ALTERNATIVES_LIMIT
        )
    ]
    best = optimize_matmul_chains(best, catalog)
    best_cost = expression_cost(best, catalog, estimator)
    original_cost = expression_cost(expr, catalog, estimator)
    if best_cost > original_cost:
        best, best_cost = expr, original_cost
    return best, best_cost, sorted(alternatives, key=lambda pair: pair[1])


CONFIGS = {
    "default": PlannerConfig(),
    "no-prune": PlannerConfig(prune=False),
    "no-tighten": PlannerConfig(tighten_thresholds=False),
    "budget-stopped": PlannerConfig(max_rounds=1),
}


class TestSharedAnalysis:
    @pytest.mark.parametrize("config", list(CONFIGS.values()), ids=list(CONFIGS))
    def test_never_stale(self, plan_cold_sessions, config):
        sessions = plan_cold_sessions(config)
        for name, variant in OPS:
            ctx = _run_stages(sessions[variant], build_pipeline(name, ROLES))
            best, best_cost, alternatives = _from_scratch(ctx)
            assert ctx.best_expr == best, (name, variant)
            assert ctx.best_cost == best_cost, (name, variant)
            assert ctx.alternatives == alternatives, (name, variant)

    def test_one_analysis_per_instance_state(self, plan_cold_sessions, monkeypatch):
        """One analysis (one atom walk, one DP) per distinct instance state;
        none in Extract or PostOpt; none in Annotate when the last tighten
        saw the final instance; no expression rebuilt by tighten."""
        sessions = plan_cold_sessions(PlannerConfig())
        stage_now = [""]
        analysed, tally = [], {"walks": 0, "dps": 0, "tighten_rebuilds": 0}

        def counted(real, key=None):
            def call(*args):
                if key == "analyses":
                    instance = args[0]
                    analysed.append((stage_now[0], instance.version, instance.shape_version))
                elif key == "tighten_rebuilds":
                    tally[key] += stage_now[0] == "saturate"
                else:
                    tally[key] += 1
                return real(*args)

            return call

        monkeypatch.setattr(stages, "analyse", counted(stages.analyse, "analyses"))
        monkeypatch.setattr(
            extraction, "instance_producers", counted(extraction.instance_producers, "walks")
        )
        monkeypatch.setattr(extraction, "_compute_costs", counted(extraction._compute_costs, "dps"))
        monkeypatch.setattr(
            extraction, "_reconstruct", counted(extraction._reconstruct, "tighten_rebuilds")
        )
        total, reused = 0, 0
        for name, variant in OPS:
            session = sessions[variant]
            ctx = PlanContext(session=session, expr=build_pipeline(name, ROLES))
            analysed.clear()
            for stage in session.stages:
                stage_now[0] = stage.name
                stage.run(ctx)
            states = [tuple(state) for _, *state in analysed]
            assert len(states) == len(set(states)), (name, variant)
            by_stage = [stage for stage, *_ in analysed]
            assert set(by_stage) <= {"saturate", "annotate"}, (name, variant)
            tightened = [state for stage, *state in analysed if stage == "saturate"]
            final = (ctx.instance.version, ctx.instance.shape_version)
            saw_final = bool(tightened) and tuple(tightened[-1]) == final
            assert by_stage.count("annotate") == (not saw_final), (name, variant)
            total += len(analysed)
            reused += saw_final
        assert tally["walks"] == tally["dps"] == total
        assert tally["tighten_rebuilds"] == 0
        # The usual case: the final round finds nothing new.
        assert reused > len(OPS) // 2
