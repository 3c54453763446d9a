"""Examples 7.1 / 7.2: the cost model and Prune_prov cost-threshold pruning.

The chain (M N) M vs M (N M) is the paper's running example: the cost model
must rank M (N M) first, and the pruner must cut the chase applications that
would materialise the (M N)-sized intermediate when the threshold is the
original cost.
"""

import pytest

from repro.chase.saturation import CostThresholdPruner, SaturationEngine
from repro.constraints import default_constraints
from repro.cost import NaiveMetadataEstimator
from repro.cost.model import expression_cost
from repro.lang import matrix
from repro.vrem.encoder import encode_expression


def test_example_7_1_cost_ranking(catalog, roles):
    estimator = NaiveMetadataEstimator()
    left_deep = (roles["M"] @ roles["N"]) @ roles["M"]
    right_deep = roles["M"] @ (roles["N"] @ roles["M"])
    assert expression_cost(right_deep, catalog, estimator) < expression_cost(
        left_deep, catalog, estimator
    )


def test_example_7_2_pruning_benchmark(benchmark, catalog, roles):
    """Chase of M (N M) with and without pruning: pruning must cut applications."""
    expr = roles["M"] @ (roles["N"] @ roles["M"])

    def saturate_with_pruning():
        instance, _ = encode_expression(expr, catalog=catalog)
        pruner = CostThresholdPruner(
            expression_cost(expr, catalog, NaiveMetadataEstimator()) * 1.5 + 1.0
        )
        SaturationEngine(default_constraints(), max_rounds=4).saturate(instance, pruner)
        return pruner, instance

    pruner, instance = benchmark.pedantic(saturate_with_pruning, rounds=3, iterations=1)
    assert pruner.pruned_applications > 0

    unpruned_instance, _ = encode_expression(expr, catalog=catalog)
    SaturationEngine(default_constraints(), max_rounds=4).saturate(unpruned_instance)
    assert instance.num_atoms() <= unpruned_instance.num_atoms()


def test_rewrite_time_benchmark(benchmark, catalog, roles, optimizer_naive):
    expr = (roles["M"] @ roles["N"]) @ roles["M"]
    result = benchmark(optimizer_naive.rewrite, expr)
    assert result.best == roles["M"] @ (roles["N"] @ roles["M"])
