"""``repro.api`` — the single typed entry point over the whole stack.

One :class:`Engine` is the only way in — it builds the service and the
gateway itself — and serves many named tenant **workspaces** side by side: a
:class:`WorkspaceRegistry` holds versioned (catalog, views,
``PlannerConfig``) bundles, ``engine.workspace(name)`` returns a typed
:class:`WorkspaceHandle` over the full rewrite/submit/execute ladder, and
the gateway routes per-request ``workspace`` fields with per-tenant quotas
and metrics labels.  Options travel as frozen, validated dataclasses
(:class:`~repro.config.PlannerConfig` / :class:`~repro.config.ServiceConfig`
/ :class:`~repro.config.GatewayConfig`, composed by
:class:`~repro.config.EngineConfig`); execution substrates are declared to
a capability-negotiating :class:`~repro.backends.registry.BackendRegistry`;
and the gateway wire format is generated from the typed
:class:`~repro.api.schema.PlanRequest` / :class:`~repro.api.schema.PlanResponse`
schema shared with :mod:`repro.server.protocol`.

Quick start::

    from repro.api import Engine, EngineConfig

    engine = Engine(catalog, config=EngineConfig(planner={"max_rounds": 4}))
    result = engine.rewrite(expr)             # plan (pooled, cached)
    routed = engine.execute(result)           # run it on a capable backend
    answers = engine.submit_many(batch)       # concurrent service path
    gateway = await engine.serve()            # asyncio HTTP front door

See ``docs/api.md`` for the full reference and the table of names removed
in 2.0.
"""

from repro.backends.registry import BackendCapabilities, BackendRegistry
from repro.config import (
    DEFAULT_BACKENDS,
    EngineConfig,
    GatewayConfig,
    PlannerConfig,
    ServiceConfig,
)
from repro.exceptions import ConfigError, UnknownWorkspaceError
from repro.api.engine import Engine, WorkspaceHandle
from repro.api.workspace import DEFAULT_WORKSPACE, Workspace, WorkspaceRegistry
from repro.api.schema import (
    PhaseTimings,
    PlanRequest,
    PlanResponse,
    ProtocolError,
    expr_from_json,
    expr_to_json,
)

__all__ = [
    "BackendCapabilities",
    "BackendRegistry",
    "ConfigError",
    "DEFAULT_BACKENDS",
    "DEFAULT_WORKSPACE",
    "Engine",
    "EngineConfig",
    "GatewayConfig",
    "PhaseTimings",
    "PlanRequest",
    "PlanResponse",
    "PlannerConfig",
    "ProtocolError",
    "ServiceConfig",
    "UnknownWorkspaceError",
    "Workspace",
    "WorkspaceHandle",
    "WorkspaceRegistry",
    "expr_from_json",
    "expr_to_json",
]
