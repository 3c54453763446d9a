"""The hybrid optimizer: LA rewriting of hybrid queries.

The RA preprocessing part (the matrix builders) runs as stated.  The LA
analysis part is rewritten by a long-lived
:class:`~repro.planner.PlanSession` (one per distinct factor set, reused
across rewrites so repeated queries hit the session's plan store), extended
with

* the Morpheus factorization rules (a PK-FK :class:`JoinFeatureMatrix`
  builder is declared as a *normalized matrix* over its base-table factors,
  so that aggregates over it can be pushed down and matched against hybrid
  views) — the bridge between the two sides;
* the hybrid materialized views supplied by the caller (LA views whose
  definitions reference the base-table matrices).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.backends.morpheus import factor_names
from repro.config import PlannerConfig
from repro.constraints.views import LAView
from repro.core.result import RewriteResult
from repro.data.catalog import Catalog
from repro.data.matrix import MatrixMeta
from repro.hybrid.query import HybridQuery, JoinFeatureMatrix, PivotSparseMatrix
from repro.planner.session import PlanSession


@dataclass
class HybridRewriteResult:
    """Outcome of optimizing one hybrid query."""

    query: HybridQuery
    la_result: RewriteResult
    rewrite_seconds: float = 0.0

    @property
    def optimized_analysis(self):
        return self.la_result.best


def _pk_fk_indicator(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> Optional[sparse.csr_matrix]:
    """The Morpheus indicator K of joining ``left_keys`` to ``right_keys``.

    ``K[i, j] = 1`` iff left row i joins right row j.  Returns ``None``
    unless every left key matches exactly one right row: only then does the
    join emit one row per left row, so that ``M = [S, K R]``.
    """
    order = np.argsort(right_keys, kind="stable")
    sorted_keys = right_keys[order]
    first = np.searchsorted(sorted_keys, left_keys, side="left")
    end = np.searchsorted(sorted_keys, left_keys, side="right")
    if not np.all(end - first == 1):
        return None
    return sparse.csr_matrix(
        (np.ones(len(left_keys)), (np.arange(len(left_keys)), order[first])),
        shape=(len(left_keys), len(right_keys)),
    )


class HybridOptimizer:
    """Optimizes the LA part of hybrid queries; the builders run as stated.

    The only hybrid planner: :meth:`repro.api.Engine.submit_hybrid` drives
    this class (and the executor) per workspace; construct it directly to
    plan hybrid queries without executing them.
    """

    def __init__(
        self,
        catalog: Catalog,
        la_views: Sequence[LAView] = (),
        factor_names: Optional[Dict[str, Tuple[str, str, str]]] = None,
        config: PlannerConfig = PlannerConfig(),
        estimator=None,
    ):
        """
        Parameters
        ----------
        la_views:
            Hybrid / LA materialized views available to the LA rewriting.
        factor_names:
            Mapping ``matrix name -> (S, K, R)`` matrix names declaring a
            builder's output as a Morpheus normalized matrix; defaults are
            derived automatically for PK-FK :class:`JoinFeatureMatrix`
            builders.
        config:
            The planner options every LA session is derived from; each
            factor set adds its Morpheus rules and normalized matrices.
        estimator:
            An explicit estimator object, passed to every session as to
            :class:`~repro.planner.PlanSession`; by default each session
            resolves ``config.estimator`` by name.
        """
        self.catalog = catalog
        self.la_views = list(la_views)
        self.factor_names = dict(factor_names or {})
        self.config = config
        self.estimator = estimator
        #: One plan session per distinct factor set; reusing sessions keeps
        #: the compiled constraint program and the plan store warm across
        #: repeated hybrid queries.
        self._sessions: Dict[Tuple, PlanSession] = {}
        #: Catalog version at which factor matrices were last materialized;
        #: any catalog change (e.g. a base table being replaced) forces a
        #: rebuild so the factors never go stale.
        self._factors_catalog_version: Optional[int] = None

    def _session_for(self, factors: Dict[str, Tuple[str, str, str]]) -> PlanSession:
        key = tuple(sorted(factors.items()))
        session = self._sessions.get(key)
        if session is None:
            session = PlanSession(
                catalog=self.catalog,
                views=self.la_views,
                estimator=self.estimator,
                config=self.config.with_options(
                    include_morpheus_rules=self.config.include_morpheus_rules or bool(factors),
                    normalized_matrices=factors,
                ),
            )
            self._sessions[key] = session
        return session

    # ------------------------------------------------------------------ factors
    def ensure_factor_matrices(
        self, query: HybridQuery, force: bool = False
    ) -> Dict[str, Tuple[str, str, str]]:
        """Materialize (S, K, R) factor matrices for the PK-FK join builders.

        For a :class:`JoinFeatureMatrix` named ``M`` over tables T and U, the
        factors are registered as ``M__S`` (T's feature columns), ``M__K``
        (the PK-FK indicator) and ``M__R`` (U's feature columns) unless the
        caller already supplied factor names.  A join in which some row of T
        does not match exactly one row of U is not a normalized matrix: it
        gets no factors (and loses stale ones) and is planned as stated.
        """
        factors = dict(self.factor_names)
        for builder in query.builders:
            if not isinstance(builder, JoinFeatureMatrix) or builder.name in factors:
                continue
            s_name, k_name, r_name = factor_names(builder.name)
            if not force and all(
                self.catalog.has_matrix_values(name) for name in (s_name, k_name, r_name)
            ):
                # Already materialized and the catalog is unchanged since;
                # re-registering would only bump the catalog version and
                # needlessly invalidate cached plans.
                factors[builder.name] = (s_name, k_name, r_name)
                continue
            left = self.catalog.table(builder.left_table)
            right = self.catalog.table(builder.right_table)
            indicator = _pk_fk_indicator(
                np.asarray(left.column(builder.key), dtype=np.int64),
                np.asarray(right.column(builder.key), dtype=np.int64),
            )
            if indicator is None:
                for name in (s_name, k_name, r_name):
                    self.catalog.drop_matrix(name)
                continue
            s_values = left.to_matrix(builder.left_columns)
            r_values = right.to_matrix(builder.right_columns)
            self.catalog.register_dense(s_name, s_values, overwrite=True)
            self.catalog.register_sparse(k_name, indicator, overwrite=True)
            self.catalog.register_dense(r_name, r_values, overwrite=True)
            factors[builder.name] = (s_name, k_name, r_name)
        return factors

    # ------------------------------------------------------------------ main entry
    def rewrite(self, query: HybridQuery, materialize_factors: bool = True) -> HybridRewriteResult:
        start = time.perf_counter()
        if materialize_factors:
            # Rebuild the factor matrices whenever the catalog changed since
            # they were last materialized (a replaced base table must never
            # leave the factorized plan computing on stale S/K/R values); an
            # unchanged catalog reuses them, keeping cached plans valid.
            stale = self.catalog.version != self._factors_catalog_version
            factors = self.ensure_factor_matrices(query, force=stale)
        else:
            factors = dict(self.factor_names)
        # Declare metadata for builder outputs that are not materialized yet,
        # so the LA cost model can reason about them.
        for builder in query.builders:
            if self.catalog.has_matrix(builder.name):
                continue
            if isinstance(builder, JoinFeatureMatrix):
                rows = self.catalog.table(builder.left_table).n_rows
                self.catalog.register_metadata(
                    MatrixMeta(builder.name, rows, builder.n_features, rows * builder.n_features)
                )
            elif isinstance(builder, PivotSparseMatrix):
                facts = self.catalog.table(builder.fact_table).n_rows
                self.catalog.register_metadata(
                    MatrixMeta(
                        builder.name,
                        builder.n_rows,
                        builder.n_cols,
                        min(facts, builder.n_rows * builder.n_cols),
                    )
                )

        la_session = self._session_for(factors)
        if materialize_factors:
            # Record the settled version only now: session creation may have
            # registered view metadata, bumping the catalog version, and
            # recording earlier would force a factor rebuild (and a cache
            # miss) on the very next rewrite.
            self._factors_catalog_version = self.catalog.version
        la_result = la_session.rewrite(query.analysis)
        return HybridRewriteResult(
            query=query,
            la_result=la_result,
            rewrite_seconds=time.perf_counter() - start,
        )
