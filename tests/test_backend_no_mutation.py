"""No LA backend writes into a value it does not own.

``NumpyBackend`` (and so ``systemml_like`` and ``morpheus``) accumulates the
nonzeros of a same-shaped sparse operand into a dense *fresh temporary* in
place.  Here every hybrid query (as stated and as planned) and every one of
the 57 pipelines (as stated and as planned against the V_exp views, at
scale 0.01) runs on each backend, and the bytes of every catalog value, every
view value and every Morpheus factor must be the same afterwards.  Q3
(``(N + C) v`` as stated) adds a sparse matrix to a catalog leaf, so a
freshness rule that accepted leaves would fail here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from scipy import sparse

from repro.backends.base import values_allclose
from repro.backends.morpheus import MorpheusBackend
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.systemml_like import SystemMLLikeBackend
from repro.benchkit.datasets import ROLE_BINDINGS_DENSE, benchmark_catalog
from repro.benchkit.harness import materialize_views
from repro.benchkit.hybrid_queries import hybrid_queries, hybrid_views
from repro.benchkit.pipelines import build_pipeline, default_roles, pipeline_names
from repro.benchkit.views_vexp import build_vexp_views
from repro.data.datasets import mimic_dataset, twitter_dataset
from repro.hybrid import HybridExecutor, HybridOptimizer
from repro.planner.session import PlanSession

BACKENDS = {
    "numpy": NumpyBackend,
    "systemml_like": SystemMLLikeBackend,
    "morpheus": MorpheusBackend,
}

#: The hybrid workload's reduced ("smoke") dataset sizes.
HYBRID_DATASETS = {
    "twitter": (twitter_dataset, dict(n_tweets=2_000, n_hashtags=100, density=0.004)),
    "mimic": (mimic_dataset, dict(n_patients=500, n_services=200, density=0.004)),
}


def _digest(values) -> str:
    digest = hashlib.sha1()
    if sparse.issparse(values):
        csr = sparse.csr_matrix(values)
        parts = (csr.data, csr.indices, csr.indptr)
    else:
        parts = (np.asarray(values),)
    for part in parts:
        digest.update(repr((part.shape, part.dtype.str)).encode())
        digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def _checksums(catalog, backend) -> dict:
    """A digest of every stored matrix value and, on Morpheus, of the three
    factors of every normalized matrix the backend has bound."""
    sums = {}
    for name in catalog.matrix_names():
        if catalog.has_matrix_values(name):
            sums[name] = _digest(catalog.matrix(name).values)
        normalized = backend.normalized(name) if isinstance(backend, MorpheusBackend) else None
        if normalized is not None:
            for part in ("entity_part", "indicator", "attribute_part"):
                sums[f"{name}.{part}"] = _digest(getattr(normalized, part))
    return sums


def _run_unchanged(catalog, backend, results) -> None:
    """Execute every plan both ways; no stored byte may change."""
    for result in results:  # bind Morpheus factors before the first checksum
        if isinstance(backend, MorpheusBackend):
            backend.register_catalog_factors(result.original)
    before = _checksums(catalog, backend)
    for result in results:
        stated = backend.execute_plan(result, use_rewritten=False).value
        chosen = backend.execute_plan(result).value
        after = _checksums(catalog, backend)
        assert set(after) == set(before)
        changed = sorted(name for name in before if after[name] != before[name])
        assert not changed, f"{backend.name} overwrote {changed} running {result.original}"
        assert values_allclose(stated, chosen, rtol=1e-4, atol=1e-5), result.original


@pytest.fixture(scope="module")
def hybrid_plans():
    """Per dataset: the catalog (M and N built by the RA engine, factors and
    views materialised) and the ten queries' plans."""
    planned = {}
    for kind, (generator, sizes) in HYBRID_DATASETS.items():
        catalog, spec = generator(**sizes)
        queries = hybrid_queries(catalog, spec, dataset=kind)
        executor = HybridExecutor(catalog)
        for builder in queries[0].builders:
            executor.build_matrix(builder)
        factors = HybridOptimizer(catalog).ensure_factor_matrices(queries[0])
        views = hybrid_views(catalog)
        materialize_views(views, catalog)
        optimizer = HybridOptimizer(catalog, la_views=views, factor_names=factors)
        results = [
            optimizer.rewrite(query, materialize_factors=False).la_result for query in queries
        ]
        planned[kind] = (catalog, results)
    return planned


@pytest.fixture(scope="module")
def pipeline_plans():
    """The 57 pipelines at scale 0.01, planned with the V_exp views."""
    catalog = benchmark_catalog(scale=0.01)
    roles = default_roles(ROLE_BINDINGS_DENSE)
    views = build_vexp_views(roles)
    materialize_views(views, catalog)
    session = PlanSession(catalog=catalog, views=views)
    results = [session.rewrite(build_pipeline(name, roles)) for name in pipeline_names()]
    return catalog, results


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("kind", sorted(HYBRID_DATASETS))
def test_hybrid_queries_leave_catalog_and_factors_unchanged(hybrid_plans, kind, backend):
    catalog, results = hybrid_plans[kind]
    assert any(sparse.issparse(catalog.matrix(name).values) for name in catalog.matrix_names()
               if catalog.has_matrix_values(name))
    _run_unchanged(catalog, BACKENDS[backend](catalog), results)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_pipelines_leave_catalog_and_views_unchanged(pipeline_plans, backend):
    catalog, results = pipeline_plans
    assert len(results) == 57 and any(result.used_views for result in results)
    _run_unchanged(catalog, BACKENDS[backend](catalog), results)
