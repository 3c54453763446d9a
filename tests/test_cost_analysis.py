"""The cost analysis a plan shares: one per instance state, one memo per plan.

* shape inference inside ``annotate_expression`` is linear in the node count;
* ``expression_cost(annotations=)`` annotates missing nodes into the given
  memo, whatever it already holds;
* the analysis the tighten bound stores is never read stale: on every cold
  plan of the 57 pipelines (with and without the V_exp views), under the
  default options and under the three configurations where no tighten sees
  the final instance, the plan equals one costed from scratch;
* each distinct instance state of a plan is analysed once, with one walk of
  its atoms and one DP, and Extract analyses nothing;
* the analysis equals an independent reference — a fresh walk of the atoms
  (``relation_spec`` and ``find`` per argument) and plain full passes for
  the size annotation and the DP, no semi-naive schedule — on every state
  the stages analyse: the cold plans under naive and under MNC, the 20
  hybrid queries at smoke sizes, a ``repro.fuzz`` slice under MNC; and on
  long chains in either order and on self-loops.
"""

from __future__ import annotations

import numpy as np
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
from repro.cost.mnc_estimator import MNCEstimator
from repro.cost.naive_estimator import NaiveMetadataEstimator
from repro.data import matrix as matrix_data
from repro.exceptions import RewriteError
from repro.fuzz.generator import CatalogSpec, ExpressionGenerator, generate_catalog, spawn_rng
from repro.fuzz.runner import FuzzConfig
from repro.lang import matrix, transpose
from repro.planner import PlanSession
from repro.planner.stages import ALTERNATIVES_LIMIT, PlanContext
from repro.vrem.atoms import Const
from repro.vrem.instance import VremInstance
from repro.vrem.schema import relation_spec

from conftest import hybrid_smoke_planners

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


# ---------------------------------------------------------------------------
# The analysis against an independent reference: a fresh walk, full passes
# ---------------------------------------------------------------------------


def _reference_walk(instance):
    """The operation atoms in atom order, walked afresh: every relation
    through ``relation_spec``, every class argument through ``find``.
    ``(atom, inputs (None for a constant), [(output index, class, shape)])``."""
    producers = []
    for atom in instance.atoms():
        spec = relation_spec(atom.relation)
        if not spec.output_positions:
            continue
        args = atom.args
        inputs = [instance.find(args[pos]) if isinstance(args[pos], int) else None
                  for pos in spec.input_positions]
        outputs = [(index, instance.find(args[pos]), instance.shape(args[pos]))
                   for index, pos in enumerate(spec.output_positions)
                   if isinstance(args[pos], int)]
        producers.append((atom, inputs, outputs))
    return producers


def _full_pass_annotate(instance, producers, catalog, estimator, max_passes=12):
    """The size annotation as plain full passes: every producer re-run every pass."""
    infos = {}
    for atom in instance.atoms("name"):
        cid = instance.find(atom.args[0])
        name = atom.args[1].value
        if catalog is not None and catalog.has_matrix(name):
            data = catalog.matrix(name) if catalog.has_matrix_values(name) else None
            candidate = estimator.leaf_info(catalog.meta(name), data)
        else:
            shape = instance.shape(cid)
            nnz = float(shape[0] * shape[1]) if shape else 1.0
            candidate = model.NnzInfo(shape=shape, nnz=nnz)
        existing = infos.get(cid)
        if existing is None or candidate.nnz < existing.nnz:
            infos[cid] = candidate
    for relation in ("scalar_const", "scalar_name"):
        for atom in instance.atoms(relation):
            infos.setdefault(instance.find(atom.args[0]), model.NnzInfo(shape=(1, 1), nnz=1.0))
    for atom in instance.atoms("identity"):
        cid = instance.find(atom.args[0])
        shape = instance.shape(cid)
        infos.setdefault(cid, model.NnzInfo(shape=shape, nnz=float(shape[0]) if shape else 1.0))
    for atom in instance.atoms("zero"):
        cid = instance.find(atom.args[0])
        infos.setdefault(cid, model.NnzInfo(shape=instance.shape(cid), nnz=0.0))
    for _ in range(max_passes):
        changed = False
        for atom, inputs, outputs in producers:
            input_infos = []
            for input_cid in inputs:
                if input_cid is None:
                    info = model.NnzInfo(shape=(1, 1), nnz=1.0)
                else:
                    info = infos.get(input_cid)
                if info is None:
                    break
                input_infos.append(info)
            else:
                for _, cid, shape in outputs:
                    candidate = estimator.propagate(atom.relation, shape, input_infos)
                    existing = infos.get(cid)
                    if existing is None or candidate.nnz < existing.nnz - 1e-9:
                        infos[cid] = candidate
                        changed = True
        if not changed:
            break
    for cid in {instance.find(cid) for cid in instance._parent}:
        if cid not in infos:
            shape = instance.shape(cid)
            nnz = float(shape[0] * shape[1]) if shape else 1.0
            infos[cid] = model.NnzInfo(shape=shape, nnz=nnz)
    return infos


def _full_pass_costs(instance, producers, infos, max_passes=25):
    """The class-cost DP as plain full passes over derivations built from
    ``producers``: every class rescanned every pass."""
    derivations = {}
    for relation in extraction._LEAF_RELATIONS:
        for atom in instance.atoms(relation):
            derivations.setdefault(instance.find(atom.args[0]), []).append(
                extraction._Derivation(atom, True)
            )
    for atom, inputs, outputs in producers:
        classes = tuple(cid for cid in inputs if cid is not None)
        for out_index, cid, _ in outputs:
            derivations.setdefault(cid, []).append(
                extraction._Derivation(atom, False, out_index, classes)
            )
    costs, choices = {}, {}
    for cid, cands in derivations.items():
        for derivation in cands:
            if derivation.is_leaf:
                costs[cid], choices[cid] = 0.0, derivation
                break
    op_costs = {cid: extraction._class_size(cid, infos) + extraction._OPERATOR_EPSILON
                for cid in derivations}
    for _ in range(max_passes):
        changed = False
        for cid, cands in derivations.items():
            best_cost, best_choice = costs.get(cid, float("inf")), choices.get(cid)
            for derivation in cands:
                if derivation.is_leaf:
                    candidate = 0.0
                else:
                    candidate = op_costs[cid]
                    for input_cid in derivation.input_classes:
                        input_cost = costs.get(input_cid)
                        if input_cost is None:
                            candidate = float("inf")
                            break
                        candidate += input_cost
                if candidate < best_cost - 1e-12:
                    best_cost, best_choice = candidate, derivation
            if best_choice is not None and (cid not in costs or best_cost < costs[cid] - 1e-12):
                costs[cid], choices[cid] = best_cost, best_choice
                changed = True
        if not changed:
            break
    return derivations, costs, choices


def _assert_same_infos(got, expected):
    assert got.keys() == expected.keys()
    for cid, info in expected.items():
        assert (got[cid].shape, got[cid].nnz) == (info.shape, info.nnz), cid
        for histogram in ("row_counts", "col_counts"):
            a, b = getattr(got[cid], histogram), getattr(info, histogram)
            assert (a is None) == (b is None), cid
            assert a is None or np.array_equal(a, b), cid


def _assert_full_passes_agree(analysis, instance, catalog, estimator):
    """The analysis equals the reference: the same ``infos`` (MNC histograms
    included), ``derivations``, ``costs`` and ``choices``.  Equal floats,
    not close ones: both make the same updates in the same order."""
    producers = _reference_walk(instance)
    infos = _full_pass_annotate(instance, producers, catalog, estimator)
    _assert_same_infos(analysis.infos, infos)
    derivations, costs, choices = _full_pass_costs(instance, producers, infos)
    assert analysis.derivations == derivations
    assert (analysis.costs, analysis.choices) == (costs, choices)


def _checking_analyse(monkeypatch, checked):
    """Patch the stages' ``analyse`` — every tighten bound and Annotate — to
    check each analysis against the reference."""
    real = stages.analyse

    def analyse_and_check(instance, catalog, estimator):
        analysis = real(instance, catalog, estimator)
        _assert_full_passes_agree(analysis, instance, catalog, estimator)
        checked.append(instance.version)
        return analysis

    monkeypatch.setattr(stages, "analyse", analyse_and_check)


class TestAgainstTheReference:
    """The analysis of every state the stages analyse — each tighten bound
    and Annotate — equals the reference's: on the cold plans under naive
    and under MNC, on the hybrid queries (Morpheus rules, factors and
    views), and on a ``repro.fuzz`` slice under MNC."""

    @pytest.mark.parametrize("estimator", ["naive", "mnc"])
    def test_every_plan_cold_state(self, plan_cold_sessions, monkeypatch, estimator):
        checked = []
        _checking_analyse(monkeypatch, checked)
        sessions = plan_cold_sessions(PlannerConfig(estimator=estimator))
        for name, variant in OPS:
            _run_stages(sessions[variant], build_pipeline(name, ROLES))
        assert len(checked) > len(OPS)

    def test_every_hybrid_state(self, monkeypatch):
        checked, queries = [], 0
        _checking_analyse(monkeypatch, checked)
        for _, optimizer, hybrid in hybrid_smoke_planners():
            for query in hybrid:
                optimizer.rewrite(query, materialize_factors=False)
                queries += 1
        assert queries == 20 and len(checked) > queries

    def test_a_fuzz_slice_under_mnc(self, monkeypatch):
        checked = []
        _checking_analyse(monkeypatch, checked)
        config = FuzzConfig()
        for batch in range(2):
            catalog, inventory = generate_catalog(
                CatalogSpec(seed=config.seed + batch, dims=(2, 4, 6), sparse_density=0.3)
            )
            views = ExpressionGenerator(
                inventory, spawn_rng(config.seed, batch, 1), max_depth=3
            ).generate_views(config.n_views)
            materialize_views(views, catalog)
            session = PlanSession(catalog, views=views, config=PlannerConfig(estimator="mnc"))
            for index in range(config.expressions_per_catalog):
                expr = ExpressionGenerator(
                    inventory, spawn_rng(config.seed, batch, 2, index), max_depth=config.max_depth
                ).generate()
                session.plan(expr)
        assert len(checked) >= 2 * config.expressions_per_catalog


class TestSemiNaiveFixpoints:
    """Semi-naive passes make the very updates of full passes, where the
    schedule matters most: long chains in either order, self-loops."""

    @staticmethod
    def _chain(length):
        """tr(tr(… Z …)) over a 3x4 zero matrix: nnz 0 all the way up."""
        instance = VremInstance()
        link = instance.new_class()
        instance.set_shape(link, (3, 4))
        instance.add_atom("zero", (link,))
        chain = [link]
        for _ in range(length):
            (link,) = instance.add_op("tr", (link,))
            chain.append(link)
        return instance, chain

    @pytest.mark.parametrize("order", [1, -1], ids=["topological", "reversed"])
    def test_long_chain_binds_both_caps_alike(self, order):
        """In order, one pass annotates and costs a 30-link chain.  Reversed,
        each pass reaches one more link: the annotate cap (12) leaves the top
        dense and the DP cap (25) leaves it uncosted, on both sides."""
        instance, chain = self._chain(30)
        producers = model.instance_producers(instance)[::order]
        reference = _reference_walk(instance)[::order]
        estimator = NaiveMetadataEstimator()
        infos = model.annotate_producers(instance, producers, None, estimator)
        _assert_same_infos(infos, _full_pass_annotate(instance, reference, None, estimator))
        reached = 31 if order == 1 else 13
        assert [infos[cid].nnz for cid in chain] == [0.0] * reached + [12.0] * (31 - reached)
        analysis = extraction._analysis(instance, producers, infos)
        _, costs, choices = _full_pass_costs(instance, reference, infos)
        assert (analysis.costs, analysis.choices) == (costs, choices)
        assert sorted(analysis.costs) == chain[: 31 if order == 1 else 26]

    def test_self_loop_derivations(self):
        """multi_e(M, Z) = M re-annotates its own input; tr(Q) = Q re-costs
        its own class.  Both settle as under full passes."""
        instance = VremInstance()
        m, z = instance.new_class(), instance.new_class()
        for cid in (m, z):
            instance.set_shape(cid, (3, 3))
        instance.add_atom("name", (m, Const("M")))
        instance.add_atom("zero", (z,))
        (loop,) = instance.add_op("multi_e", (m, z))
        instance.union(loop, m)
        (q,) = instance.add_op("add_m", (m, z))
        (flipped,) = instance.add_op("tr", (q,))
        instance.union(flipped, q)
        instance.rebuild()
        estimator = NaiveMetadataEstimator()
        analysis = analyse(instance, None, estimator)
        _assert_full_passes_agree(analysis, instance, None, estimator)
        assert analysis.infos[m].nnz == 0.0
        assert any(
            not d.is_leaf and d.input_classes == (q,) for d in analysis.derivations[q]
        )
        assert analysis.choices[q].atom.relation == "add_m"

    def test_a_converged_run_confirms_without_propagating(self):
        """A chain in topological order converges in one pass: full passes
        propagate every producer twice, the semi-naive ones once."""
        instance, chain = self._chain(6)

        class Counting(NaiveMetadataEstimator):
            calls = 0

            def propagate(self, *args):
                Counting.calls += 1
                return super().propagate(*args)

        producers = model.instance_producers(instance)
        _full_pass_annotate(instance, _reference_walk(instance), None, Counting())
        assert Counting.calls == 2 * len(producers)
        Counting.calls = 0
        model.annotate_producers(instance, producers, None, Counting())
        assert Counting.calls == len(producers) == 6


# ---------------------------------------------------------------------------
# MNC leaf sketches: one count per matrix value
# ---------------------------------------------------------------------------


class TestMNCLeafSketches:
    """MNC reads each catalog value's row / column non-zero counts from
    :meth:`MatrixData.nnz_counts`, which counts once per value object."""

    @staticmethod
    def _mnc_sweep(monkeypatch, memo: bool):
        """The 114 plan_cold ops planned cold under MNC on a fresh catalog:
        each op's (plan, best cost, original cost) as text, and the values
        whose non-zeros were counted, in call order."""
        counted = []
        count = matrix_data.nonzero_counts

        def counting(values):
            counted.append(values)
            return count(values)

        monkeypatch.setattr(matrix_data, "nonzero_counts", counting)
        if not memo:
            monkeypatch.setattr(
                matrix_data.MatrixData, "nnz_counts", lambda self: counting(self.values)
            )
        catalog = benchmark_catalog(scale=0.01)
        views = build_vexp_views(ROLES)
        materialize_views(views, catalog)
        config = PlannerConfig(estimator="mnc")
        sessions = {
            "nv": PlanSession(catalog=catalog, config=config),
            "vexp": PlanSession(catalog=catalog, views=views, config=config),
        }
        plans = []
        for name, variant in OPS:
            result = sessions[variant].plan(build_pipeline(name, ROLES))
            plans.append(
                (result.best.to_string(), repr(result.best_cost), repr(result.original_cost))
            )
        monkeypatch.undo()
        return plans, counted

    def test_each_value_is_counted_once_and_plans_do_not_move(self, monkeypatch):
        plans, counted = self._mnc_sweep(monkeypatch, memo=True)
        distinct = []
        for values in counted:
            assert not any(values is seen for seen in distinct), "a value was counted twice"
            distinct.append(values)
        # The 24 stored values the 114 plans read; counted 669 times without
        # the memo (once per ``name`` atom per analysis).
        assert len(counted) == 24
        unmemoised, recounted = self._mnc_sweep(monkeypatch, memo=False)
        assert len(recounted) > 10 * len(counted)
        assert plans == unmemoised

    def test_a_new_value_gets_new_counts(self, small_catalog):
        data = small_catalog.matrix("Sp")
        rows, cols = data.nnz_counts()
        assert data.nnz_counts()[0] is rows and not rows.flags.writeable
        assert rows.sum() == cols.sum() == data.nnz()
        small_catalog.register_dense("Sp", np.eye(40, 30), overwrite=True)
        replaced = small_catalog.matrix("Sp")
        assert replaced.nnz_counts()[0].tolist() == [1.0] * 30 + [0.0] * 10
        data.values = np.zeros((40, 30))
        assert data.nnz_counts()[0].sum() == 0.0
        estimator = MNCEstimator()
        assert estimator.leaf_info(replaced.meta, replaced).nnz == 30.0
