"""repro — a reproduction of HADAD (SIGMOD 2021).

HADAD is a lightweight, extensible approach for optimizing hybrid complex
analytics queries that mix relational algebra (RA) and linear algebra (LA).
Everything is reduced to a relational model with integrity constraints: LA
operations become virtual relations, LA properties / system rewrite rules /
materialized views become TGD and EGD constraints, and a provenance-aware
chase & backchase with cost-based pruning finds the minimum-cost equivalent
rewriting, which is decoded back to LA syntax and executed unchanged on the
underlying platform.

Rewriting runs as a staged planner pipeline (encode → saturate → annotate →
extract → post-optimize) driven by :class:`repro.planner.PlanSession`, which
owns the long-lived state: the constraint set compiled once into an indexed
program, the saturation engine, and a plan store of finished rewrites.

The public entry point is :class:`repro.api.Engine`: one typed,
multi-tenant object — named, versioned workspace bundles
(:class:`repro.api.WorkspaceRegistry`; ``engine.workspace(name)``) — over
the planner (``engine.rewrite``), the concurrent service layer
(``engine.submit_many``; :mod:`repro.service` plans on a
:class:`~repro.service.PlanSessionPool` and routes finished plans to the
execution backends through a capability-negotiated
:class:`~repro.service.ExecutionRouter`), the execution substrates
(``engine.execute``) and the asyncio serving gateway
(``await engine.serve()``).  Options travel as frozen, validated config
dataclasses (:class:`EngineConfig` and friends).  The engine builds the
service and the gateway itself; a bare :class:`PlanSession` is the
planning core underneath, frozen once built and safe to share.

Quick start::

    from repro import Engine, LAView
    from repro.lang import matrix, inv, transpose
    from repro.data.generators import standard_catalog

    catalog = standard_catalog(scale=0.01)
    X, y = matrix("Syn5"), matrix("Syn7")
    ols = inv(transpose(X) @ X) @ (transpose(X) @ y)

    engine = Engine(catalog, views=[LAView("V1", inv(X))])
    result = engine.rewrite(ols)
    print(result.summary())

See README.md for the architecture overview, ``docs/architecture.md`` for
the full layer diagram, ``docs/tutorial.md`` for an end-to-end walkthrough
and the ``benchmarks/`` directory for the reproduction of the paper's
evaluation.
"""

from repro.core import LAView, PlanSession, RewriteResult
from repro.data import Catalog, MatrixData, MatrixMeta, Table
from repro.cost import MNCEstimator, NaiveMetadataEstimator
from repro.service import (
    AnalyticsService,
    ExecutionRouter,
    PlanSessionPool,
    ServiceRequest,
    ServiceResult,
)
from repro.api import (
    BackendCapabilities,
    BackendRegistry,
    ConfigError,
    Engine,
    EngineConfig,
    GatewayConfig,
    PlannerConfig,
    ServiceConfig,
    UnknownWorkspaceError,
    Workspace,
    WorkspaceHandle,
    WorkspaceRegistry,
)

__version__ = "2.0.0"

__all__ = [
    "Engine",
    "Workspace",
    "WorkspaceHandle",
    "WorkspaceRegistry",
    "UnknownWorkspaceError",
    "EngineConfig",
    "PlannerConfig",
    "ServiceConfig",
    "GatewayConfig",
    "BackendRegistry",
    "BackendCapabilities",
    "ConfigError",
    "LAView",
    "PlanSession",
    "RewriteResult",
    "AnalyticsService",
    "ServiceRequest",
    "ServiceResult",
    "PlanSessionPool",
    "ExecutionRouter",
    "Catalog",
    "MatrixData",
    "MatrixMeta",
    "Table",
    "MNCEstimator",
    "NaiveMetadataEstimator",
    "__version__",
]
