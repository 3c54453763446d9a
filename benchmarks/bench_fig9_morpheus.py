"""Figure 9: Morpheus with vs without HADAD rewrites (P1.12, P2.10, P2.11, P2.15).

A PK-FK join of tables R (entity) and S (attributes) is kept as a normalized
matrix; the tuple ratio (n_S / n_R) and feature ratio (d_R / d_S) are varied
as in the paper (scaled down).  For each pipeline, the Morpheus backend
executes the original expression (its own local pushdowns only) and the
HADAD rewriting; the speed-up of the latter reproduces the figure's shape.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.backends.base import values_allclose
from repro.backends.morpheus import MorpheusBackend, NormalizedMatrix
from repro.planner import PlanSession
from repro.data.catalog import Catalog
from repro.lang import colsums, matrix, rowsums, sum_all

FIG9_PIPELINES = {
    "P1.12": lambda M, N: colsums(M @ N),
    "P2.10": lambda M, N: rowsums(N @ M),
    "P2.11": lambda M, N: sum_all(N + M),
    "P2.15": lambda M, N: sum_all(rowsums(M)),
}

BASE_ENTITY_ROWS = 20_000
BASE_DS = 4


def _build_environment(tuple_ratio: int, feature_ratio: int, seed: int = 0):
    """A catalog + Morpheus backend for one (tuple ratio, feature ratio) point."""
    rng = np.random.default_rng(seed)
    n_r = max(BASE_ENTITY_ROWS // tuple_ratio, 100)
    n_s = n_r * tuple_ratio
    d_s = BASE_DS
    d_r = BASE_DS * feature_ratio
    entity = rng.random((n_s, d_s))
    attribute = rng.random((n_r, d_r))
    fk = rng.integers(0, n_r, size=n_s)
    indicator = sparse.csr_matrix((np.ones(n_s), (np.arange(n_s), fk)), shape=(n_s, n_r))
    catalog = Catalog()
    catalog.register_dense("Mjoin", np.hstack([entity, indicator @ attribute]))
    catalog.register_dense("Nright", rng.random((d_s + d_r, 40)))
    catalog.register_dense("Nleft", rng.random((40, n_s)))
    catalog.register_dense("Nadd", rng.random((n_s, d_s + d_r)))
    backend = MorpheusBackend(catalog)
    backend.register(NormalizedMatrix("Mjoin", entity, indicator, attribute))
    return catalog, backend


def _operands(name: str):
    if name == "P1.12":
        return matrix("Mjoin"), matrix("Nright")
    if name == "P2.10":
        return matrix("Mjoin"), matrix("Nleft")
    return matrix("Mjoin"), matrix("Nadd")


@pytest.mark.parametrize("name", sorted(FIG9_PIPELINES))
def test_morpheus_without_hadad(benchmark, name):
    catalog, backend = _build_environment(tuple_ratio=10, feature_ratio=2)
    expr = FIG9_PIPELINES[name](*_operands(name))
    benchmark(backend.evaluate, expr)


@pytest.mark.parametrize("name", sorted(FIG9_PIPELINES))
def test_morpheus_with_hadad(benchmark, name):
    catalog, backend = _build_environment(tuple_ratio=10, feature_ratio=2)
    expr = FIG9_PIPELINES[name](*_operands(name))
    optimizer = PlanSession(catalog)
    result = optimizer.rewrite(expr)
    benchmark(backend.evaluate, result.best)


def test_fig9_grid_report():
    print("\npipeline  tuple_ratio  feature_ratio  speedup(Morpheus+HADAD vs Morpheus)")
    for name in sorted(FIG9_PIPELINES):
        for tuple_ratio in (5, 10, 20):
            for feature_ratio in (1, 2, 4):
                catalog, backend = _build_environment(tuple_ratio, feature_ratio)
                expr = FIG9_PIPELINES[name](*_operands(name))
                optimizer = PlanSession(catalog)
                rewritten = optimizer.rewrite(expr).best
                base = backend.timed(expr)
                improved = backend.timed(rewritten)
                assert values_allclose(base.value, improved.value, rtol=1e-4, atol=1e-5)
                speedup = base.seconds / improved.seconds if improved.seconds > 0 else float("inf")
                print(f"{name:8s} {tuple_ratio:11d} {feature_ratio:14d} {speedup:10.2f}x")
