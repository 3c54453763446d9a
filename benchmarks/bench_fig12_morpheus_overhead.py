"""Figure 12: HADAD's RW_find overhead as a fraction of total time on Morpheus.

The aggregate-only pipelines P1.10, P1.16 and P1.18 execute extremely fast on
Morpheus (pushdown to the base tables), so the relative rewriting overhead is
at its worst there; the paper reports single-digit percentages that shrink as
the data grows.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.backends.morpheus import MorpheusBackend, NormalizedMatrix
from repro.planner import PlanSession
from repro.data.catalog import Catalog
from repro.lang import colsums, matrix, rowsums, sum_all, transpose

FIG12_PIPELINES = {
    "P1.10": lambda M: rowsums(transpose(M)),
    "P1.16": lambda M: sum_all(transpose(M)),
    "P1.18": lambda M: sum_all(colsums(M)),
}


def _environment(n_entities: int, seed: int = 3):
    rng = np.random.default_rng(seed)
    n_r, d_s, d_r = max(n_entities // 10, 50), 4, 8
    entity = rng.random((n_entities, d_s))
    attribute = rng.random((n_r, d_r))
    fk = rng.integers(0, n_r, size=n_entities)
    indicator = sparse.csr_matrix(
        (np.ones(n_entities), (np.arange(n_entities), fk)), shape=(n_entities, n_r)
    )
    catalog = Catalog()
    catalog.register_dense("Mjoin", np.hstack([entity, indicator @ attribute]))
    backend = MorpheusBackend(catalog)
    backend.register(NormalizedMatrix("Mjoin", entity, indicator, attribute))
    return catalog, backend


@pytest.mark.parametrize("name", sorted(FIG12_PIPELINES))
def test_rwfind_on_morpheus_pipelines(benchmark, name):
    catalog, _ = _environment(20_000)
    optimizer = PlanSession(catalog)
    benchmark(optimizer.rewrite, FIG12_PIPELINES[name](matrix("Mjoin")))


def test_fig12_overhead_report():
    print("\npipeline  n_entities  RWfind(ms)  Qexec(ms)  overhead(%)")
    for name, build in sorted(FIG12_PIPELINES.items()):
        for n_entities in (5_000, 20_000, 80_000):
            catalog, backend = _environment(n_entities)
            optimizer = PlanSession(catalog)
            expr = build(matrix("Mjoin"))
            result = optimizer.rewrite(expr)
            execution = backend.timed(result.best)
            total = result.rewrite_seconds + execution.seconds
            overhead = result.rewrite_seconds / total if total else 0.0
            print(
                f"{name:8s} {n_entities:10d} {result.rewrite_seconds * 1e3:10.2f} "
                f"{execution.seconds * 1e3:9.2f} {overhead * 100:11.2f}"
            )
            assert result.rewrite_seconds < 2.0
