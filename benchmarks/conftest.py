"""Shared fixtures for the benchmark suite (one bench module per paper table/figure)."""

from __future__ import annotations

import pytest

from repro.backends.numpy_backend import NumpyBackend
from repro.backends.systemml_like import SystemMLLikeBackend
from repro.benchkit.datasets import ROLE_BINDINGS_DENSE, benchmark_catalog
from repro.benchkit.pipelines import default_roles
from repro.planner import PlanSession
from repro.cost import MNCEstimator, NaiveMetadataEstimator

#: Scale factor applied to the paper's matrix dimensions (Tables 4/5).  The
#: shapes keep their aspect ratios, so who-wins / crossover behaviour is
#: preserved while a full benchmark run stays laptop-sized.
BENCH_SCALE = 0.01


@pytest.fixture(scope="session")
def catalog():
    return benchmark_catalog(scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def roles():
    return default_roles(ROLE_BINDINGS_DENSE)


@pytest.fixture(scope="session")
def numpy_backend(catalog):
    return NumpyBackend(catalog)


@pytest.fixture(scope="session")
def systemml_backend(catalog):
    return SystemMLLikeBackend(catalog)


@pytest.fixture(scope="session")
def optimizer_naive(catalog):
    return PlanSession(catalog, estimator=NaiveMetadataEstimator())


@pytest.fixture(scope="session")
def optimizer_mnc(catalog):
    return PlanSession(catalog, estimator=MNCEstimator())
