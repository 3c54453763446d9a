"""End-to-end tests of the HADAD optimizer: LA-property and view-based rewriting.

Every rewriting is checked two ways: the estimated cost must not increase,
and (where the expression is executable on the small catalog) the rewritten
expression must evaluate to the same value as the original on the NumPy
backend — a practical check of the §8 soundness theorem.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends.base import values_allclose
from repro.backends.numpy_backend import NumpyBackend
from repro.constraints.views import LAView
from repro.core import PlanSession, optimize_matmul_chains
from repro.core.extraction import enumerate_equivalent_expressions
from repro.core.matchain import optimal_chain_order
from repro.cost import MNCEstimator, NaiveMetadataEstimator
from repro.benchkit.harness import materialize_views
from repro.lang import (
    colsums, det, inv, matrix, rowsums, scalar, scalar_mul, sub, sum_all, trace, transpose,
)
from repro.lang import matrix_expr as mx
from repro.planner.stages import ALTERNATIVES_LIMIT


@pytest.fixture()
def optimizer(small_catalog):
    return PlanSession(small_catalog)


@pytest.fixture()
def backend(small_catalog):
    return NumpyBackend(small_catalog)


def assert_sound(result, backend):
    """The chosen rewriting must be value-equal to the original."""
    original = backend.evaluate(result.original)
    rewritten = backend.evaluate(result.best)
    assert values_allclose(original, rewritten, rtol=1e-5, atol=1e-6), (
        f"rewriting {result.best.to_string()} is not equivalent to "
        f"{result.original.to_string()}"
    )
    assert result.best_cost <= result.original_cost + 1e-9


class TestPropertyRewrites:
    def test_transpose_of_product(self, optimizer, backend):
        result = optimizer.rewrite(transpose(matrix("M") @ matrix("N")))
        assert result.changed
        assert isinstance(result.best, mx.MatMul)
        assert_sound(result, backend)

    def test_double_inverse_collapses(self, optimizer, backend):
        result = optimizer.rewrite(inv(inv(matrix("C"))))
        assert result.best == matrix("C")
        assert_sound(result, backend)

    def test_double_transpose_collapses(self, optimizer, backend):
        result = optimizer.rewrite(transpose(transpose(matrix("A"))))
        assert result.best == matrix("A")
        assert_sound(result, backend)

    def test_matrix_chain_reassociation(self, optimizer, backend):
        result = optimizer.rewrite((matrix("M") @ matrix("N")) @ matrix("M"))
        # M (N M) only needs a feature-sized intermediate.
        assert result.best == matrix("M") @ (matrix("N") @ matrix("M"))
        assert_sound(result, backend)

    def test_distribute_multiplication_over_addition(self, optimizer, backend):
        result = optimizer.rewrite((matrix("A") + matrix("B")) @ matrix("vA"))
        assert result.changed
        assert isinstance(result.best, mx.Add)
        assert_sound(result, backend)

    def test_sum_of_product_avoids_materialisation(self, optimizer, backend):
        result = optimizer.rewrite(sum_all(matrix("M") @ matrix("N")))
        assert result.changed
        assert_sound(result, backend)

    def test_colsums_pushdown(self, optimizer, backend):
        result = optimizer.rewrite(colsums(matrix("M") @ matrix("N")))
        assert result.best == colsums(matrix("M")) @ matrix("N")
        assert_sound(result, backend)

    def test_rowsums_pushdown(self, optimizer, backend):
        result = optimizer.rewrite(rowsums(matrix("M") @ matrix("N")))
        assert result.best == matrix("M") @ rowsums(matrix("N"))
        assert_sound(result, backend)

    def test_trace_of_sum_splits(self, optimizer, backend):
        result = optimizer.rewrite(trace(matrix("C") + matrix("D")))
        assert result.changed
        assert_sound(result, backend)

    def test_inverse_product_cancellation(self, optimizer, backend):
        result = optimizer.rewrite((matrix("D") @ inv(matrix("D"))) @ matrix("C"))
        assert result.best == matrix("C")
        assert_sound(result, backend)

    def test_det_of_transpose(self, optimizer, backend):
        result = optimizer.rewrite(det(transpose(matrix("D"))))
        assert result.best == det(matrix("D"))
        assert_sound(result, backend)

    def test_sum_of_transpose(self, optimizer, backend):
        result = optimizer.rewrite(sum_all(transpose(matrix("A"))))
        assert result.best == sum_all(matrix("A"))
        assert_sound(result, backend)

    def test_example_6_3_composition(self, optimizer, backend):
        """sum(colSums(N^T M^T)) needs (MN)^T = N^T M^T composed with the
        SystemML aggregate rules — the composition SystemML itself misses."""
        expr = sum_all(colsums(transpose(matrix("N")) @ transpose(matrix("M"))))
        result = optimizer.rewrite(expr)
        assert result.changed
        assert result.best_cost < result.original_cost
        assert_sound(result, backend)

    def test_als_building_block_distribution(self, optimizer, backend):
        expr = sub(matrix("u1") @ transpose(matrix("v2")), matrix("X")) @ matrix("v2")
        result = optimizer.rewrite(expr)
        assert result.changed
        assert_sound(result, backend)

    def test_scalar_factoring(self, optimizer, backend):
        expr = scalar_mul(scalar("s1"), matrix("A")) + scalar_mul(scalar("s1"), matrix("B"))
        result = optimizer.rewrite(expr)
        assert_sound(result, backend)

    def test_unoptimizable_expression_unchanged(self, optimizer):
        result = optimizer.rewrite(matrix("M"))
        assert not result.changed and result.best == matrix("M")
        assert result.original_cost == 0.0

    def test_estimated_speedup_reported(self, optimizer):
        result = optimizer.rewrite(transpose(matrix("M") @ matrix("N")))
        assert result.estimated_speedup >= 1.0
        assert "cost" in result.summary()


class TestViewRewrites:
    def test_direct_view_match(self, small_catalog, backend):
        view = LAView("V7", inv(matrix("C")))
        optimizer = PlanSession(small_catalog, views=[view])
        materialize_views([view], small_catalog)
        result = optimizer.rewrite(trace(inv(matrix("C"))))
        assert result.used_views == ["V7"]
        assert_sound(result, backend)

    def test_view_found_through_properties(self, small_catalog, backend):
        """Figure 3 / §6.3: V = N^T + (M^T)^{-1} answers (M^{-1} + N)^T."""
        view = LAView("V0", transpose(matrix("D")) + inv(transpose(matrix("C"))))
        optimizer = PlanSession(small_catalog, views=[view])
        materialize_views([view], small_catalog)
        result = optimizer.rewrite(transpose(inv(matrix("C")) + matrix("D")))
        assert result.best == matrix("V0")
        assert_sound(result, backend)

    def test_ols_with_inverse_view(self, small_catalog, backend):
        view = LAView("V1", inv(matrix("D")))
        optimizer = PlanSession(small_catalog, views=[view])
        materialize_views([view], small_catalog)
        expr = inv(transpose(matrix("D")) @ matrix("D")) @ (transpose(matrix("D")) @ matrix("v1"))
        result = optimizer.rewrite(expr)
        assert result.changed and result.best_cost < result.original_cost
        assert_sound(result, backend)

    def test_view_for_subexpression(self, small_catalog, backend):
        view = LAView("V5", matrix("D") @ matrix("C"))
        optimizer = PlanSession(small_catalog, views=[view])
        materialize_views([view], small_catalog)
        result = optimizer.rewrite(((matrix("D") @ matrix("C")) @ matrix("C")) @ matrix("C"))
        assert "V5" in result.used_views
        assert_sound(result, backend)

    def test_commutativity_enables_view(self, small_catalog, backend):
        view = LAView("V9", inv(matrix("D") + matrix("C")))
        optimizer = PlanSession(small_catalog, views=[view])
        materialize_views([view], small_catalog)
        result = optimizer.rewrite(trace(inv(matrix("C") + matrix("D"))))
        assert "V9" in result.used_views
        assert_sound(result, backend)

    def test_view_metadata_registered_automatically(self, small_catalog):
        PlanSession(small_catalog, views=[LAView("Vmeta", matrix("M") @ matrix("N"))])
        assert small_catalog.has_matrix("Vmeta")
        assert small_catalog.shape("Vmeta") == (40, 40)

    def test_unused_view_leaves_result_alone(self, small_catalog, backend):
        view = LAView("Vx", matrix("A") + matrix("B"))
        optimizer = PlanSession(small_catalog, views=[view])
        result = optimizer.rewrite(transpose(matrix("M") @ matrix("N")))
        assert "Vx" not in result.used_views


class TestAlternativesAndChains:
    def test_alternatives_enumeration(self, small_catalog):
        optimizer = PlanSession(small_catalog)
        result = optimizer.rewrite(transpose(inv(matrix("C")) + matrix("D")))
        assert 2 <= len(result.alternatives) <= ALTERNATIVES_LIMIT
        costs = [cost for _, cost in result.alternatives]
        assert costs == sorted(costs)

    def test_optimal_chain_order_dp(self):
        shapes = [(50, 3), (3, 50), (50, 3)]
        cost, split = optimal_chain_order(shapes)
        assert split == (0, (1, 2))  # M (N M)
        assert cost == pytest.approx(9.0)

    def test_optimize_matmul_chains_on_expression(self, small_catalog):
        expr = ((matrix("M") @ matrix("N")) @ matrix("M")) @ matrix("N")
        optimized = optimize_matmul_chains(expr, small_catalog)
        backend = NumpyBackend(small_catalog)
        assert values_allclose(backend.evaluate(expr), backend.evaluate(optimized))

    def test_chain_order_rejects_nonconformable(self):
        with pytest.raises(Exception):
            optimal_chain_order([(2, 3), (4, 5)])

    def test_enumerate_equivalents_from_instance(self, small_catalog):
        from repro.chase.saturation import SaturationEngine
        from repro.constraints import default_constraints
        from repro.cost.model import annotate_instance_classes
        from repro.vrem.encoder import encode_expression

        expr = transpose(matrix("M") @ matrix("N"))
        instance, root = encode_expression(expr, catalog=small_catalog)
        SaturationEngine(default_constraints()).saturate(instance)
        infos = annotate_instance_classes(instance, small_catalog, NaiveMetadataEstimator())
        options = enumerate_equivalent_expressions(instance, root, infos, limit=4)
        assert len(options) >= 2


class TestEstimatorsInOptimizer:
    def test_mnc_estimator_usable(self, small_catalog, backend):
        optimizer = PlanSession(small_catalog, estimator=MNCEstimator())
        result = optimizer.rewrite((matrix("A") + matrix("B")) @ matrix("vA"))
        assert_sound(result, backend)

    def test_with_views_copy(self, small_catalog):
        optimizer = PlanSession(small_catalog)
        derived = optimizer.with_views([LAView("Vd", inv(matrix("C")))])
        assert derived is not optimizer and len(derived.views) == 1


def _random_expression(seed: int):
    """A random small expression over the A / B matrices (for property tests)."""
    rng = np.random.default_rng(seed)
    base = "A" if rng.integers(0, 2) == 0 else "B"
    expr = matrix(base)
    for _ in range(int(rng.integers(1, 4))):
        choice = int(rng.integers(0, 5))
        if choice == 0:
            expr = transpose(expr)
        elif choice == 1 and expr.op == "name":
            expr = expr + matrix("A" if base == "B" else "B")
        elif choice == 2:
            expr = rowsums(expr)
        elif choice == 3:
            expr = colsums(expr)
        else:
            expr = sum_all(expr)
    return expr


class TestRandomizedSoundness:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_rewrites_preserve_value(self, seed, small_catalog):
        expr = _random_expression(seed)
        optimizer = PlanSession(small_catalog, max_rounds=3)
        backend = NumpyBackend(small_catalog)
        result = optimizer.rewrite(expr)
        assert values_allclose(
            backend.evaluate(expr), backend.evaluate(result.best), rtol=1e-5, atol=1e-6
        )
