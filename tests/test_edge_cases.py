"""Edge cases, failure injection and guarantee-oriented tests.

These complement the per-module tests with the awkward paths: empty or
inconsistent inputs, budget exhaustion, constraint violations, optimizers
without metadata, neutral-element rewrites, and the formal-guarantee
preconditions of §8 (cost monotonicity, chase termination) exercised on
small adversarial inputs.
"""

import numpy as np
import pytest

from repro import exceptions as exc
from repro.backends.base import values_allclose
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.systemml_like import SystemMLLikeBackend
from repro.chase.pacb import cq
from repro.chase.saturation import CostThresholdPruner, SaturationEngine
from repro.constraints import default_constraints
from repro.constraints.core import egd, tgd
from repro.core import LAView, PlanSession
from repro.core.extraction import extract_best_expression
from repro.core.matchain import optimal_chain_order, optimize_matmul_chains
from repro.core.result import RewriteResult
from repro.cost import MNCEstimator, NaiveMetadataEstimator
from repro.cost.model import NnzInfo, annotate_instance_classes, expression_cost
from repro.data.catalog import Catalog
from repro.data.matrix import MatrixMeta
from repro.lang import matrix, sum_all, transpose, inv, mat_exp, zeros, identity, det
from repro.lang import matrix_expr as mx
from repro.vrem.atoms import Const
from repro.vrem.encoder import encode_expression
from repro.vrem.instance import VremInstance


class TestExceptionHierarchy:
    def test_all_exceptions_derive_from_repro_error(self):
        for name in dir(exc):
            obj = getattr(exc, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not exc.ReproError:
                if obj.__module__ == "repro.exceptions":
                    assert issubclass(obj, exc.ReproError), name

    def test_budget_is_a_chase_error(self):
        assert issubclass(exc.ChaseBudgetExceeded, exc.ChaseError)


class TestNeutralElements:
    def test_add_zero_collapses(self, small_catalog):
        optimizer = PlanSession(small_catalog)
        rows, cols = small_catalog.shape("A")
        result = optimizer.rewrite(matrix("A") + zeros(rows, cols))
        assert result.best == matrix("A")

    def test_identity_multiplication_collapses(self, small_catalog):
        optimizer = PlanSession(small_catalog)
        n = small_catalog.shape("C")[0]
        result = optimizer.rewrite(identity(n) @ matrix("C"))
        assert result.best == matrix("C")

    def test_exp_of_zero_matrix_is_identity_class(self, small_catalog):
        instance, root = encode_expression(mat_exp(zeros(4, 4)), catalog=small_catalog)
        SaturationEngine(default_constraints()).saturate(instance)
        identity_classes = {instance.find(a.args[0]) for a in instance.atoms("identity")}
        assert instance.find(root) in identity_classes

    def test_scalar_one_multiplication_collapses(self, small_catalog):
        optimizer = PlanSession(small_catalog)
        result = optimizer.rewrite(mx.ScalarMul(mx.ScalarConst(1.0), matrix("A")))
        assert result.best == matrix("A")


class TestSaturationEdgeCases:
    def test_raise_on_budget(self, small_catalog):
        instance, _ = encode_expression(
            (matrix("C") @ matrix("D")) @ matrix("C"), catalog=small_catalog
        )
        engine = SaturationEngine(
            default_constraints(include_decompositions=True),
            max_rounds=10,
            max_atoms=60,
            max_classes=40,
            raise_on_budget=True,
        )
        with pytest.raises(exc.ChaseBudgetExceeded):
            engine.saturate(instance)

    def test_egd_conflicting_constants_raise(self):
        instance = VremInstance()
        a = instance.new_class()
        instance.add_atom("scalar_const", (a, Const(1.0)))
        instance.add_atom("scalar_const", (a, Const(2.0)))
        bad = egd("bad", "scalar_const(S, x) & scalar_const(S, y) -> x = y")
        with pytest.raises(exc.ChaseError):
            SaturationEngine([bad]).saturate(instance)

    def test_empty_constraint_set_is_a_fixpoint(self, small_catalog):
        instance, _ = encode_expression(matrix("M") @ matrix("N"), catalog=small_catalog)
        stats = SaturationEngine([]).saturate(instance)
        assert stats.reached_fixpoint and stats.tgd_applications == 0

    def test_pruner_tighten_only_lowers(self):
        pruner = CostThresholdPruner(100.0)
        pruner.tighten(500.0)
        assert pruner.threshold == 100.0
        pruner.tighten(10.0)
        assert pruner.threshold == 10.0
        assert pruner.allows((2, 4)) and not pruner.allows((100, 100))
        assert pruner.allows(None)

    def test_unknown_relation_in_constraint_rejected_early(self):
        with pytest.raises(exc.ChaseError):
            tgd("broken", "nosuch(M, R) -> tr(M, R)")


class TestProductRulesNeedSquareFactors:
    """``inv`` / ``det`` / ``adj`` distribute over a product of *square*
    factors only: a Gram product is square, its tall factor is not."""

    def test_ols_normal_equations_plan(self, rng):
        # The paper's running example; used to raise ChaseError (inv-product-fwd
        # merged a 200x1 class with a 10x1 one).
        catalog = Catalog()
        catalog.register_dense("X", rng.random((200, 10)))
        catalog.register_dense("y", rng.random((200, 1)))
        X, y = matrix("X"), matrix("y")
        expr = inv(transpose(X) @ X) @ (transpose(X) @ y)
        result = PlanSession(catalog).rewrite(expr)
        assert result.best == expr
        assert "inv-product-fwd" not in result.saturation.applications_by_constraint

    def test_determinant_of_a_gram_product_plans(self, rng):
        # Used to raise ShapeError: det-product concluded det(X) for a 20x5 X.
        catalog = Catalog()
        catalog.register_dense("X", rng.random((20, 5)))
        expr = det(transpose(matrix("X")) @ matrix("X"))
        result = PlanSession(catalog).rewrite(expr)
        assert result.best == expr
        assert "det-product" not in result.saturation.applications_by_constraint

    def test_square_factors_still_split(self, small_catalog):
        C, D = matrix("C"), matrix("D")
        for expr, rule in ((inv(C @ D), "inv-product-fwd"), (det(C @ D), "det-product")):
            stats = PlanSession(small_catalog).rewrite(expr).saturation
            assert stats.applications_by_constraint.get(rule, 0) > 0, rule


class TestExtractionEdgeCases:
    def test_unreachable_root_raises(self):
        instance = VremInstance()
        orphan = instance.new_class()
        with pytest.raises(exc.RewriteError):
            extract_best_expression(instance, orphan, {})

    def test_extraction_prefers_leaf_over_cycle(self, small_catalog):
        expr = transpose(transpose(matrix("A")))
        instance, root = encode_expression(expr, catalog=small_catalog)
        SaturationEngine(default_constraints()).saturate(instance)
        infos = annotate_instance_classes(instance, small_catalog, NaiveMetadataEstimator())
        best, cost = extract_best_expression(instance, root, infos)
        assert best == matrix("A") and cost == 0.0


class TestOptimizerWithoutMetadata:
    def test_rewrite_without_catalog_returns_equivalent(self):
        optimizer = PlanSession(catalog=None, prune=False)
        expr = transpose(transpose(matrix("A")))
        result = optimizer.rewrite(expr)
        # With no metadata every cost is infinite, so the optimizer must not
        # pretend to have improved anything — but it must not crash either.
        assert result.best in (expr, matrix("A"))

    def test_unknown_leaf_cost_is_infinite(self):
        catalog = Catalog()
        with pytest.raises(exc.UnknownMatrixError):
            expression_cost(matrix("Missing"), catalog, NaiveMetadataEstimator())

    def test_metadata_only_catalog_is_enough_to_optimize(self):
        catalog = Catalog()
        catalog.register_metadata(MatrixMeta("Mm", 500, 10, 5000))
        catalog.register_metadata(MatrixMeta("Nm", 10, 500, 5000))
        optimizer = PlanSession(catalog)
        result = optimizer.rewrite((matrix("Mm") @ matrix("Nm")) @ matrix("Mm"))
        assert result.best == matrix("Mm") @ (matrix("Nm") @ matrix("Mm"))


class TestCostModelEdgeCases:
    def test_nnz_info_properties(self):
        info = NnzInfo(shape=(10, 10), nnz=25.0)
        assert info.cells == 100.0 and info.sparsity == 0.25 and info.size == 25.0
        unknown = NnzInfo(shape=None, nnz=7.0)
        assert unknown.cells == 7.0

    def test_zero_matrix_costs_nothing(self, small_catalog):
        estimator = NaiveMetadataEstimator()
        cost = expression_cost(transpose(zeros(50, 50)) + zeros(50, 50), small_catalog, estimator)
        assert cost == 0.0

    def test_mnc_histogram_compression(self):
        estimator = MNCEstimator()
        estimator.max_histogram_length = 16
        meta = MatrixMeta("big", 1000, 3, nnz=300)
        info = estimator.leaf_info(meta)
        assert info.row_counts.shape[0] <= 16
        assert info.nnz == pytest.approx(300.0)

    def test_estimators_handle_unknown_output_shape(self):
        estimator = NaiveMetadataEstimator()
        result = estimator.propagate("multi_m", None, [NnzInfo((2, 3), 6.0), NnzInfo((3, 4), 12.0)])
        assert result.shape is None and result.nnz >= 6.0


class TestMatChainEdgeCases:
    def test_single_factor_chain(self):
        cost, split = optimal_chain_order([(4, 5)])
        assert cost == 0.0 and split == 0

    def test_empty_chain_rejected(self):
        with pytest.raises(exc.ShapeError):
            optimal_chain_order([])

    def test_chains_with_unknown_leaves_left_alone(self):
        catalog = Catalog()
        expr = (matrix("P") @ matrix("Q")) @ matrix("R")
        assert optimize_matmul_chains(expr, catalog) == expr

    def test_none_catalog_returns_expression(self):
        expr = (matrix("P") @ matrix("Q")) @ matrix("R")
        assert optimize_matmul_chains(expr, None) is expr


class TestRewriteResultAndHarness:
    def test_estimated_speedup_handles_zero_cost(self, small_catalog):
        result = RewriteResult(
            original=matrix("M"), best=matrix("M"), original_cost=10.0, best_cost=0.0,
            changed=False, rewrite_seconds=0.01,
        )
        assert result.estimated_speedup == float("inf")
        flat = RewriteResult(
            original=matrix("M"), best=matrix("M"), original_cost=0.0, best_cost=0.0,
            changed=False, rewrite_seconds=0.01,
        )
        assert flat.estimated_speedup == 1.0

    def test_run_pipeline_without_execution(self, small_catalog):
        from repro.benchkit.harness import run_pipeline

        optimizer = PlanSession(small_catalog)
        backend = NumpyBackend(small_catalog)
        run = run_pipeline("p", transpose(matrix("M") @ matrix("N")), optimizer, backend, execute=False)
        assert run.q_exec == 0.0 and run.rw_exec == 0.0 and run.equivalent is None


class TestViewEdgeCases:
    def test_view_shadowed_by_existing_catalog_entry(self, small_catalog, rng):
        small_catalog.register_dense("Vshadow", rng.random((7, 7)))
        optimizer = PlanSession(small_catalog, views=[LAView("Vshadow", inv(matrix("C")))])
        assert small_catalog.shape("Vshadow") == (7, 7)

    def test_view_on_unknown_matrices_is_skipped_for_metadata(self, small_catalog):
        optimizer = PlanSession(small_catalog, views=[LAView("Vmissing", inv(matrix("NotThere")))])
        assert not small_catalog.has_matrix("Vmissing")

    def test_view_based_and_property_rewrites_agree_numerically(self, small_catalog):
        from repro.benchkit.harness import materialize_views

        backend = NumpyBackend(small_catalog)
        view = LAView("Vdc", matrix("D") @ matrix("C"))
        materialize_views([view], small_catalog)
        with_views = PlanSession(small_catalog, views=[view])
        without_views = PlanSession(small_catalog)
        expr = transpose(matrix("D") @ matrix("C"))
        a = with_views.rewrite(expr).best
        b = without_views.rewrite(expr).best
        assert values_allclose(backend.evaluate(a), backend.evaluate(b))


class TestPACBEdgeCases:
    def test_cq_parse_error(self):
        with pytest.raises(exc.RewriteError):
            cq("Q", ["x"], "not an atom at all")

    def test_rename_apart_keeps_structure(self):
        query = cq("Q", ["x", "y"], "R(x, z) & S(z, y)")
        renamed = query.rename_apart("_1")
        assert len(renamed.body) == 2
        assert {v.name for v in renamed.variables()} == {"x_1", "y_1", "z_1"}


class TestSystemMLLikeFlags:
    def test_rules_can_be_disabled(self, small_catalog):
        backend = SystemMLLikeBackend(small_catalog, apply_static_rules=False, reorder_chains=False)
        expr = sum_all(transpose(matrix("M")))
        assert backend.optimize_locally(expr) == expr
        reference = NumpyBackend(small_catalog)
        assert values_allclose(backend.evaluate(expr), reference.evaluate(expr))
