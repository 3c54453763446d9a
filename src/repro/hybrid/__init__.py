"""Hybrid (RA + LA) queries and their optimization.

A hybrid query (§9.2.2) has a relational preprocessing part Q_RA — joins,
selections and projections building feature matrices — and an LA analysis
part Q_LA over those matrices.  The builders of Q_RA run as stated; HADAD
rewrites Q_LA against LA / hybrid views with the VREM saturation engine,
with the Morpheus factorization rules bridging the two sides (a matrix
produced by a PK-FK join is declared *normalized* so that operators over it
can be pushed to the base tables and matched against hybrid views).

Hybrid queries are served end-to-end by
:meth:`repro.service.AnalyticsService.submit_hybrid`, which pairs the
optimizer and executor and folds planning time into the reported latency.
"""

from repro.hybrid.query import HybridQuery, JoinFeatureMatrix, PivotSparseMatrix
from repro.hybrid.optimizer import HybridOptimizer, HybridRewriteResult
from repro.hybrid.executor import HybridExecutionResult, HybridExecutor

__all__ = [
    "HybridQuery",
    "JoinFeatureMatrix",
    "PivotSparseMatrix",
    "HybridOptimizer",
    "HybridRewriteResult",
    "HybridExecutionResult",
    "HybridExecutor",
]
