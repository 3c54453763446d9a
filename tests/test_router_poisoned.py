"""ExecutionRouter behaviour on poisoned backend results (satellite of the
fuzzing PR): a backend that *returns* garbage — NaN/inf cells or a value
whose shape contradicts the plan — must be treated exactly like a backend
that *raised*: recorded in the failure chain and fallen back from, never
served as a silent wrong answer.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.api import Engine
from repro.backends import NumpyBackend
from repro.backends.base import EvaluationResult
from repro.data.catalog import Catalog
from repro.exceptions import ExecutionError
from repro.fuzz import CatalogSpec, generate_catalog
from repro.lang import matrix_expr as mx
from repro.service import ExecutionRouter


class _FixedValueBackend:
    """A backend stub returning a canned value for every plan."""

    name = "stub"

    def __init__(self, value):
        self.value = value
        self.calls = 0

    def execute_plan(self, result, use_rewritten=True):
        self.calls += 1
        return EvaluationResult(value=self.value, seconds=0.001)


@pytest.fixture(scope="module")
def planned():
    catalog, _ = generate_catalog(CatalogSpec(seed=3, dims=(2, 3, 5)))
    engine = Engine(catalog)
    expr = mx.Add(mx.MatrixRef("D3x3"), mx.MatrixRef("P3x3"))
    return catalog, engine.rewrite(expr)


def _route(catalog, result, backends):
    """Execute ``result`` with the first of ``backends`` named to run first."""
    return ExecutionRouter(catalog, backends).execute(result, backend=next(iter(backends)))


class TestPoisonedResults:
    def test_nan_result_falls_back(self, planned):
        catalog, result = planned
        poisoned = _FixedValueBackend(np.full((3, 3), np.nan))
        routed = _route(
            catalog, result, {"poisoned": poisoned, "numpy": NumpyBackend(catalog)}
        )
        assert routed.backend == "numpy"
        assert poisoned.calls == 1
        [(failed_name, reason)] = routed.failures
        assert failed_name == "poisoned"
        assert "non-finite" in reason

    def test_shape_mismatch_falls_back(self, planned):
        catalog, result = planned
        wrong_shape = _FixedValueBackend(np.ones((2, 2)))
        routed = _route(
            catalog, result, {"wrong": wrong_shape, "numpy": NumpyBackend(catalog)}
        )
        assert routed.backend == "numpy"
        [(failed_name, reason)] = routed.failures
        assert failed_name == "wrong"
        assert "(2, 2)" in reason and "(3, 3)" in reason

    def test_sparse_nan_result_falls_back(self, planned):
        catalog, result = planned
        bad = sparse.csr_matrix(np.array([[np.nan, 0.0, 0.0]] * 3))
        routed = _route(
            catalog,
            result,
            {"sparse-bad": _FixedValueBackend(bad), "numpy": NumpyBackend(catalog)},
        )
        assert routed.backend == "numpy"
        assert "non-finite" in routed.failures[0][1]

    def test_all_poisoned_raises_with_clear_chain(self, planned):
        catalog, result = planned
        backends = {
            "nan": _FixedValueBackend(np.full((3, 3), np.inf)),
            "wrong": _FixedValueBackend(np.ones((5, 5))),
        }
        with pytest.raises(ExecutionError) as excinfo:
            _route(catalog, result, backends)
        message = str(excinfo.value)
        assert "no backend could execute the plan" in message
        assert "non-finite" in message
        assert "poisoned" in message

    def test_scalar_results_pass_validation(self):
        catalog, _ = generate_catalog(CatalogSpec(seed=3, dims=(2, 3, 5)))
        engine = Engine(catalog)
        result = engine.rewrite(mx.SumAll(mx.MatrixRef("D3x3")))
        router = ExecutionRouter(catalog)
        routed = router.execute(result)
        value = np.asarray(routed.evaluation.value)
        assert value.size == 1 and np.isfinite(value).all()

    def test_clean_backend_has_no_failures(self, planned):
        catalog, result = planned
        routed = _route(catalog, result, {"numpy": NumpyBackend(catalog)})
        assert routed.failures == []

    def test_a_kernel_error_fails_its_request_and_spares_the_batch(self):
        # np.linalg.inv raises LinAlgError (a ValueError) on a singular
        # matrix; execute_plan turns it into an ExecutionError, so the
        # router records it and the rest of the batch is still answered.
        catalog = Catalog()
        catalog.register_dense("Z", np.zeros((3, 3)))
        catalog.register_dense("A", np.arange(6.0).reshape(2, 3))
        singular, fine = Engine(catalog).submit_many(
            [mx.Inverse(mx.MatrixRef("Z")), mx.Transpose(mx.MatrixRef("A"))]
        )
        assert not singular.ok and singular.value is None
        assert "Singular matrix" in str(singular.failures)
        assert fine.ok and np.array_equal(fine.value, np.arange(6.0).reshape(2, 3).T)
