"""Frozen, validated configuration for the whole stack.

Since the :mod:`repro.api` consolidation these four dataclasses are the
*only* way options flow through the layers:

* :class:`PlannerConfig` — every knob of a
  :class:`~repro.planner.session.PlanSession` (rule-set toggles, saturation
  budgets, pruning, plan-store capacity); the session's keyword arguments
  fold into exactly these fields, and the session keeps the result as
  ``session.config``.
* :class:`ServiceConfig` — the :class:`~repro.service.AnalyticsService`
  knobs: pool size, batch fan-out, routing preference.
* :class:`GatewayConfig` — the :class:`~repro.server.AnalyticsGateway`
  knobs: bind address, admission bounds, backlog, planner worker processes.
* :class:`EngineConfig` — the composition of the three, consumed by
  :class:`repro.api.Engine`.

Every config is **frozen** (mutation raises) and **validated at
construction**: a bad value raises :class:`~repro.exceptions.ConfigError`
naming the field, the value received and the acceptable range — the
misconfiguration surfaces where it was written, not two layers down.

Configs are threaded through the stack *unchanged*.  Cached plans are keyed
on the options that actually change a plan, which a session reads off its
config once, at construction (``PlanSession.options_key``).

This module is import-neutral (stdlib + :mod:`repro.exceptions` only); the
planner, service and server layers all import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping, Optional, Tuple

from repro.exceptions import ConfigError


def _require_bool(config: str, name: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(
            f"{config}.{name} must be a bool, got {value!r} "
            f"(type {type(value).__name__})"
        )
    return value


def _require_int(
    config: str, name: str, value: Any, minimum: int, maximum: Optional[int] = None
) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(
            f"{config}.{name} must be an int, got {value!r} "
            f"(type {type(value).__name__})"
        )
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ConfigError(f"{config}.{name} must be {bound}, got {value}")
    return value


def _require_float(config: str, name: str, value: Any, minimum: float) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(
            f"{config}.{name} must be a number, got {value!r} "
            f"(type {type(value).__name__})"
        )
    if value < minimum:
        raise ConfigError(f"{config}.{name} must be >= {minimum}, got {value}")
    return float(value)


def _require_str(config: str, name: str, value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(
            f"{config}.{name} must be a non-empty string, got {value!r}"
        )
    return value


def _normalized_matrix_items(
    config: str, value: Any
) -> Tuple[Tuple[str, Tuple[str, str, str]], ...]:
    """Coerce a ``{name: (S, K, R)}`` mapping (or item tuple) to sorted items."""
    if value is None:
        return ()
    items = value.items() if isinstance(value, Mapping) else value
    try:
        normalized = tuple(
            sorted((str(name), (str(s), str(k), str(r))) for name, (s, k, r) in items)
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"{config}.normalized_matrices must map matrix names to (S, K, R) "
            f"factor-name triples, got {value!r}"
        ) from exc
    return normalized


@dataclass(frozen=True)
class PlannerConfig:
    """Every plan-affecting knob of a :class:`~repro.planner.PlanSession`.

    ``PlannerConfig()`` plans byte-identically to a ``PlanSession`` built
    with no options.
    """

    include_decompositions: bool = False
    include_morpheus_rules: bool = False
    max_rounds: int = 4
    max_atoms: int = 2_500
    max_classes: int = 1_200
    prune: bool = True
    normalized_matrices: Tuple[Tuple[str, Tuple[str, str, str]], ...] = ()
    #: Capacity of the :class:`~repro.planner.PlanStore` of a bare session,
    #: and of the one a workspace's session pool shares.
    cache_size: int = 1024
    tighten_thresholds: bool = True
    #: Registered sparsity-estimator name (``"naive"`` | ``"mnc"`` | custom);
    #: resolved through :func:`repro.cost.resolve_estimator` when the session
    #: is built without an explicit estimator object.  Membership is checked
    #: at resolution (this module stays import-neutral), so a mistyped name
    #: still fails at session/engine construction with the valid choices.
    #: ``PlanSession.config`` holds the registered name of the estimator the
    #: session actually uses, even when one was passed as an object.
    estimator: str = "naive"

    def __post_init__(self) -> None:
        name = type(self).__name__
        for flag in (
            "include_decompositions",
            "include_morpheus_rules",
            "prune",
            "tighten_thresholds",
        ):
            _require_bool(name, flag, getattr(self, flag))
        _require_int(name, "max_rounds", self.max_rounds, 1)
        _require_int(name, "max_atoms", self.max_atoms, 1)
        _require_int(name, "max_classes", self.max_classes, 1)
        _require_int(name, "cache_size", self.cache_size, 1)
        _require_str(name, "estimator", self.estimator)
        object.__setattr__(
            self,
            "normalized_matrices",
            _normalized_matrix_items(name, self.normalized_matrices),
        )

    def with_options(self, **changes: Any) -> "PlannerConfig":
        """A validated copy with ``changes`` applied (configs are frozen)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the concurrent :class:`~repro.service.AnalyticsService`."""

    plan_workers: int = 8
    preferred_backend: str = "numpy"

    def __post_init__(self) -> None:
        name = type(self).__name__
        _require_int(name, "plan_workers", self.plan_workers, 1)
        _require_str(name, "preferred_backend", self.preferred_backend)

    def with_options(self, **changes: Any) -> "ServiceConfig":
        return replace(self, **changes)


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs of the asyncio :class:`~repro.server.AnalyticsGateway`."""

    host: str = "127.0.0.1"
    port: int = 0
    max_in_flight: int = 256
    #: Per-workspace admission bound (tenant quota): at most this many
    #: requests of one workspace may be in flight at once; the overflow is
    #: answered ``429`` even when the global bound still has room.  ``0``
    #: (the default) disables the per-tenant bound.
    workspace_max_in_flight: int = 0
    backlog: int = 2048
    #: Number of planner worker *processes* behind the gateway.  ``0`` (the
    #: default) keeps today's in-process path — planning on a thread pool
    #: inside the gateway process, byte-identical behaviour.  ``N > 0``
    #: shards workspaces across N spawned worker processes by consistent
    #: hashing (see :mod:`repro.server.workers`), each owning its own plan
    #: session pool and warm rewrite cache, supervised and respawned on
    #: crash.
    planner_workers: int = 0
    #: How many times a request lost to a worker crash is replayed against
    #: the respawned worker before it is failed back to the client (500).
    worker_retry_budget: int = 2
    #: Base of the supervisor's bounded exponential respawn backoff: the
    #: k-th consecutive crash of one worker slot waits
    #: ``worker_backoff_seconds * 2**(k-1)`` (capped internally) before
    #: respawning.
    worker_backoff_seconds: float = 0.05

    def __post_init__(self) -> None:
        name = type(self).__name__
        _require_str(name, "host", self.host)
        _require_int(name, "port", self.port, 0, 65_535)
        _require_int(name, "max_in_flight", self.max_in_flight, 1)
        _require_int(name, "workspace_max_in_flight", self.workspace_max_in_flight, 0)
        _require_int(name, "backlog", self.backlog, 1)
        _require_int(name, "planner_workers", self.planner_workers, 0)
        _require_int(name, "worker_retry_budget", self.worker_retry_budget, 0)
        object.__setattr__(
            self,
            "worker_backoff_seconds",
            _require_float(name, "worker_backoff_seconds", self.worker_backoff_seconds, 0.0),
        )

    def with_options(self, **changes: Any) -> "GatewayConfig":
        return replace(self, **changes)


def _coerce(config: str, name: str, value: Any, cls: type) -> Any:
    """Accept a sub-config instance or a plain mapping of its fields."""
    if isinstance(value, cls):
        return value
    if isinstance(value, Mapping):
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(value) - known)
        if unknown:
            raise ConfigError(
                f"{config}.{name} got unknown option(s) {unknown}; "
                f"valid {cls.__name__} fields are {sorted(known)}"
            )
        return cls(**value)
    raise ConfigError(
        f"{config}.{name} must be a {cls.__name__} (or a mapping of its "
        f"fields), got {value!r} (type {type(value).__name__})"
    )


@dataclass(frozen=True)
class EngineConfig:
    """The single configuration object a :class:`repro.api.Engine` consumes.

    Composes the per-layer configs.  Sub-configs may be given as plain
    mappings and are validated on coercion::

        EngineConfig(planner={"max_rounds": 6}, service={"plan_workers": 2})
    """

    planner: PlannerConfig = field(default_factory=PlannerConfig)
    service: ServiceConfig = field(default_factory=ServiceConfig)
    gateway: GatewayConfig = field(default_factory=GatewayConfig)

    def __post_init__(self) -> None:
        name = type(self).__name__
        object.__setattr__(self, "planner", _coerce(name, "planner", self.planner, PlannerConfig))
        object.__setattr__(self, "service", _coerce(name, "service", self.service, ServiceConfig))
        object.__setattr__(self, "gateway", _coerce(name, "gateway", self.gateway, GatewayConfig))

    def with_options(self, **changes: Any) -> "EngineConfig":
        return replace(self, **changes)


__all__ = [
    "EngineConfig",
    "GatewayConfig",
    "PlannerConfig",
    "ServiceConfig",
]
