"""Shared fixtures and the pinned Hypothesis profile for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from scipy import sparse

from repro.data.catalog import Catalog
from repro.data.matrix import MatrixData, MatrixType
from repro.data.table import Table

try:  # hypothesis is a test-only dependency; fixtures must import without it
    from hypothesis import settings as _hypothesis_settings
except ImportError:  # pragma: no cover - exercised only without the test extra
    _hypothesis_settings = None

if _hypothesis_settings is not None:
    # One pinned profile for every property test (test_saturation_fast.py,
    # test_fuzz.py): no deadline (saturation timing varies across machines,
    # a deadline would flake) and print_blob so a failing example prints its
    # reproduction recipe.  CI additionally derandomizes: the same examples
    # on every run, so a red CI is always reproducible locally with
    # HYPOTHESIS_PROFILE=ci (see docs/testing.md).
    _hypothesis_settings.register_profile("repro", deadline=None, print_blob=True)
    _hypothesis_settings.register_profile(
        "ci", parent=_hypothesis_settings.get_profile("repro"), derandomize=True
    )
    _hypothesis_settings.load_profile(
        os.environ.get("HYPOTHESIS_PROFILE", "ci" if os.environ.get("CI") else "repro")
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


@pytest.fixture()
def find_matches():
    """``(pattern atoms, instance) -> [binding dict, ...]``, asked of both the
    generic reference matcher and the compiled kernel the production chase
    runs on: they must agree on what a match is."""
    from repro.chase.homomorphism import find_instance_matches
    from repro.chase.kernel import ConstraintKernel
    from repro.constraints.core import TGD

    def find(pattern, instance):
        kernel = ConstraintKernel(TGD("pattern", tuple(pattern)))
        compiled = [
            dict(zip(kernel.premise_vars, match)) for match in kernel.full_matches(instance)
        ]
        reference = list(find_instance_matches(pattern, instance))
        assert sorted(map(repr, compiled)) == sorted(map(repr, reference))
        return compiled

    return find


@pytest.fixture()
def small_catalog(rng) -> Catalog:
    """A tiny, fully materialized catalog with the Table 6 role names.

    Shapes are chosen to be small but *asymmetric* (tall M, wide N) so that
    cost-based decisions are observable, and C / D are well-conditioned
    square matrices so inverse/determinant pipelines are numerically stable.
    """
    catalog = Catalog()
    n_tall, n_feat = 40, 6
    catalog.register_dense("M", rng.random((n_tall, n_feat)))
    catalog.register_dense("N", rng.random((n_feat, n_tall)))
    catalog.register_dense("A", rng.random((30, 8)))
    catalog.register_dense("B", rng.random((30, 8)))
    square = rng.random((7, 7)) + 7 * np.eye(7)
    square2 = rng.random((7, 7)) + 9 * np.eye(7)
    catalog.register_dense("C", square)
    catalog.register_dense("D", square2)
    catalog.register_dense("R", rng.random((n_feat, n_feat)))
    catalog.register_dense("v1", rng.random((7, 1)))
    catalog.register_dense("v2", rng.random((12, 1)))
    catalog.register_dense("u1", rng.random((25, 1)))
    catalog.register_dense("X", rng.random((25, 12)))
    catalog.register_dense("vA", rng.random((8, 1)))
    catalog.register_sparse("Sp", sparse.random(40, 30, density=0.05, random_state=np.random.default_rng(1)))
    spd = rng.random((6, 6))
    catalog.register_dense("SPD", spd @ spd.T + 6 * np.eye(6), matrix_type=MatrixType.SYMMETRIC_PD)
    catalog.register_scalar("s1", 2.5)
    catalog.register_scalar("s2", 4.0)
    return catalog


@pytest.fixture()
def small_tables() -> Catalog:
    """A catalog with two joinable tables and a fact table."""
    catalog = Catalog()
    ids = np.arange(10, dtype=np.float64)
    catalog.register_table(
        Table("Left", {"id": ids, "l1": ids * 2.0, "l2": ids + 1.0})
    )
    catalog.register_table(
        Table("Right", {"id": ids, "r1": ids * 3.0, "r2": np.ones(10)})
    )
    catalog.register_table(
        Table(
            "Facts",
            {
                "id": np.asarray([0, 1, 2, 2, 5, 7, 9], dtype=np.float64),
                "item": np.asarray([0, 1, 2, 3, 1, 0, 4], dtype=np.float64),
                "level": np.asarray([1, 5, 2, 3, 4, 2, 6], dtype=np.float64),
                "text": ["covid a", "other", "covid b", "covid c", "x", "covid d", "covid e"],
            },
        )
    )
    return catalog


#: The hybrid benchmark's datasets at its smoke sizes.
HYBRID_SMOKE_DATASETS = {
    "twitter": dict(n_tweets=2_000, n_hashtags=100, density=0.004),
    "mimic": dict(n_patients=500, n_services=200, density=0.004),
}


def hybrid_smoke_planners():
    """Per dataset at smoke size: ``(kind, optimizer, queries)`` — Q1-Q10 and
    a cold :class:`~repro.hybrid.HybridOptimizer` planning them as the
    hybrid benchmark does (builders run, Morpheus factors materialised, the
    hybrid views on).  A plain function, so child processes can import it."""
    from repro.benchkit.harness import materialize_views
    from repro.benchkit.hybrid_queries import hybrid_queries, hybrid_views
    from repro.data.datasets import mimic_dataset, twitter_dataset
    from repro.hybrid import HybridExecutor, HybridOptimizer

    generators = {"twitter": twitter_dataset, "mimic": mimic_dataset}
    for kind, sizes in HYBRID_SMOKE_DATASETS.items():
        catalog, spec = generators[kind](**sizes)
        queries = hybrid_queries(catalog, spec, dataset=kind)
        executor = HybridExecutor(catalog)
        for builder in queries[0].builders:
            executor.build_matrix(builder)
        factors = HybridOptimizer(catalog).ensure_factor_matrices(queries[0])
        views = hybrid_views(catalog)
        materialize_views(views, catalog)
        yield kind, HybridOptimizer(catalog, la_views=views, factor_names=factors), queries
