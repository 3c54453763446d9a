"""Named tenant workspaces: versioned (catalog, views, config) bundles.

HADAD pitches *one* lightweight rewriting optimizer any LA/RA/hybrid
workload can sit on top of; serving many workloads side by side therefore
needs the per-workload state — the catalog, the materialized view set, the
planner configuration — bundled as first-class named modules (Ternovska's
lifted-algebra framing of heterogeneous "pieces of information").  That
bundle is a :class:`Workspace`; a :class:`WorkspaceRegistry` holds them by
name, versioned, for one multi-tenant :class:`repro.api.Engine` to serve
concurrently.

* A **Workspace** is an immutable snapshot: ``(name, catalog, views,
  PlannerConfig, estimator)`` plus the registry-assigned ``version``.
  Tenants never share planner state: the engine builds each workspace its
  own session pool and service, and every cache key carries the workspace
  identity (see :class:`repro.service.PlanSessionPool`).
* The **registry** is thread-safe.  :meth:`WorkspaceRegistry.update`
  replaces a bundle and bumps its version — the engine rebuilds that
  workspace's runtime on next access while every other tenant's pooled
  sessions and cached plans stay untouched.
* The single-catalog ``Engine(catalog, ...)`` constructor registers its
  arguments as one workspace named :data:`DEFAULT_WORKSPACE`.
"""

from __future__ import annotations

import re
import threading
from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple, Union, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.delta import CatalogDelta

from repro.config import PlannerConfig, _coerce
from repro.cost import estimator_name_for
from repro.constraints.views import LAView
from repro.data.catalog import Catalog
from repro.exceptions import ConfigError, UnknownWorkspaceError

#: Name of the workspace the single-catalog ``Engine(catalog, ...)``
#: constructor registers, and the route of requests naming no workspace.
DEFAULT_WORKSPACE = "default"

#: Workspace names are URL- and label-safe by construction: they appear in
#: gateway paths (``/v1/workspaces/<name>``) and Prometheus label values.
_WORKSPACE_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


@dataclass(frozen=True)
class Workspace:
    """One tenant's bundle: named catalog, view set and planner config.

    Frozen — reconfiguring a tenant goes through
    :meth:`WorkspaceRegistry.update`, which installs a *new* snapshot under
    a bumped version, so a handle resolved before the update keeps planning
    against a consistent bundle.

    Attributes
    ----------
    name:
        The tenant identity (URL- and metrics-label-safe: letters, digits,
        ``._-``, at most 64 characters).
    catalog:
        The workspace's :class:`~repro.data.Catalog` (optional for
        plan-only workspaces).
    views:
        Materialized LA views every session of this workspace plans with.
    config:
        The workspace's :class:`~repro.config.PlannerConfig` (coerced from
        a mapping if given as one); this — not the engine-wide planner
        config — is what the workspace's plan sessions are built from.
    estimator:
        Optional explicit estimator object; by default the session resolves
        ``config.estimator`` by name through :mod:`repro.cost`.
    version:
        Registry-assigned, starting at 1 and bumped by every update.
    """

    name: str
    catalog: Optional[Catalog] = None
    views: Tuple[LAView, ...] = ()
    config: Optional[Union[PlannerConfig, dict]] = None
    estimator: Optional[object] = None
    version: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not _WORKSPACE_NAME.match(self.name):
            raise ConfigError(
                f"workspace name must match {_WORKSPACE_NAME.pattern} "
                f"(URL- and label-safe), got {self.name!r}"
            )
        object.__setattr__(self, "views", tuple(self.views))
        config = self.config
        if config is None:
            config = PlannerConfig()
        else:
            config = _coerce("Workspace", "config", config, PlannerConfig)
        object.__setattr__(self, "config", config)
        if not isinstance(self.version, int) or self.version < 1:
            raise ConfigError(
                f"Workspace.version must be an int >= 1, got {self.version!r}"
            )

    @property
    def catalog_version(self) -> int:
        return self.catalog.version if self.catalog is not None else -1

    @property
    def runtime_key(self) -> str:
        """The pool/cache identity: ``name@v<version>``.

        Including the bundle version means a plan cached before an update
        can never be served after it, even while both runtimes are alive.
        """
        return f"{self.name}@v{self.version}"

    def describe(self) -> dict:
        """JSON-ready summary (what ``GET /v1/workspaces`` serves)."""
        return {
            "name": self.name,
            "version": self.version,
            "catalog_version": self.catalog_version,
            "views": [view.name for view in self.views],
            # One vocabulary for both construction paths: registered names
            # ("naive"/"mnc"/...) whenever the estimator is resolvable,
            # the class name only for unregistered custom objects.
            "estimator": (
                self.config.estimator
                if self.estimator is None
                else estimator_name_for(self.estimator)
                or type(self.estimator).__name__
            ),
        }


class WorkspaceRegistry:
    """Thread-safe, versioned registry of named workspaces.

    One registry backs one multi-tenant :class:`repro.api.Engine`.  The
    ``default_name`` (``"default"`` unless overridden) is where requests
    without an explicit workspace route — the single-catalog
    ``Engine(catalog, ...)`` constructor registers exactly that workspace.
    """

    def __init__(self, default_name: str = DEFAULT_WORKSPACE):
        if not isinstance(default_name, str) or not _WORKSPACE_NAME.match(default_name):
            raise ConfigError(
                f"default workspace name must be URL- and label-safe, "
                f"got {default_name!r}"
            )
        self.default_name = default_name
        self._lock = threading.Lock()
        self._workspaces: Dict[str, Workspace] = {}
        #: Highest version ever assigned per name — survives removal, so a
        #: re-registered name continues the sequence instead of restarting
        #: at 1 (runtime identities like ``name@v3`` never repeat).
        self._last_versions: Dict[str, int] = {}
        #: Recent ``(from_version, to_version, delta)`` transitions per
        #: name, bounded — enough for followers (planner workers) to catch
        #: up incrementally; a follower further behind than the journal
        #: falls back to a full runtime rebuild.
        self._delta_journal: Dict[str, Deque[Tuple[int, int, "CatalogDelta"]]] = {}

    #: Journal depth per workspace; deltas are small (metadata only), but a
    #: follower that lags this far behind should rebuild anyway.
    DELTA_JOURNAL_LIMIT = 32

    # ------------------------------------------------------------------ writes
    def register(
        self,
        name: str,
        catalog: Optional[Catalog] = None,
        views: Sequence[LAView] = (),
        config: Optional[Union[PlannerConfig, dict]] = None,
        estimator: Optional[object] = None,
        replace_existing: bool = False,
    ) -> Workspace:
        """Register a workspace bundle under ``name``.

        The assigned version continues the name's historical sequence
        (a name first seen gets version 1; one that was removed and
        re-registered does *not* restart — its old runtime identities are
        never reused).  Re-registering a taken name raises
        :class:`ConfigError` unless ``replace_existing=True``, in which
        case the bundle is replaced and the version bumped — exactly
        :meth:`update` semantics.
        """
        return self.add(
            Workspace(
                name=name,
                catalog=catalog,
                views=tuple(views),
                config=config,
                estimator=estimator,
            ),
            replace_existing=replace_existing,
        )

    def add(self, workspace: Workspace, replace_existing: bool = False) -> Workspace:
        """Add a pre-built :class:`Workspace` (its version is re-assigned)."""
        with self._lock:
            prior = self._workspaces.get(workspace.name)
            if prior is not None and not replace_existing:
                raise ConfigError(
                    f"workspace {workspace.name!r} is already registered; "
                    f"use update() or replace_existing=True"
                )
            version = self._last_versions.get(workspace.name, 0) + 1
            workspace = replace(workspace, version=version)
            self._workspaces[workspace.name] = workspace
            self._last_versions[workspace.name] = version
            # A wholesale (re)registration is not expressible as a delta;
            # drop the name's journal so followers rebuild instead of
            # replaying across the discontinuity.
            self._delta_journal.pop(workspace.name, None)
            return workspace

    def update(self, name: str, **changes) -> Workspace:
        """Replace fields of an existing bundle, bumping its version.

        ``changes`` may set ``catalog``, ``views``, ``config`` and
        ``estimator``.  The engine notices the version bump on next access
        and rebuilds that workspace's runtime (pool, sessions, cached
        plans); other workspaces are untouched.
        """
        allowed = {"catalog", "views", "config", "estimator"}
        unknown = sorted(set(changes) - allowed)
        if unknown:
            raise ConfigError(
                f"WorkspaceRegistry.update got unknown field(s) {unknown}; "
                f"updatable fields are {sorted(allowed)}"
            )
        with self._lock:
            prior = self._get_locked(name)
            version = self._last_versions.get(name, prior.version) + 1
            updated = replace(prior, version=version, **changes)
            self._workspaces[name] = updated
            self._last_versions[name] = version
            self._delta_journal.pop(name, None)
            return updated

    def apply_delta(self, name: str, delta: "CatalogDelta") -> Workspace:
        """Apply a :class:`~repro.catalog.delta.CatalogDelta` to a workspace.

        The delta mutates the bundle's catalog in place (relation ops) and
        derives the new view tuple (view ops); the bundle version is bumped
        and a new snapshot installed, exactly like :meth:`update` — but the
        transition is additionally journaled, so serving layers
        (:meth:`repro.api.Engine.apply_delta`, the worker supervisor) can
        revalidate warm plan caches selectively instead of rebuilding.

        Validation happens against the pre-state before any mutation; an
        invalid delta raises without changing the workspace.
        """
        if not len(delta.ops):
            raise ConfigError("apply_delta needs a delta with at least one op")
        with self._lock:
            prior = self._get_locked(name)
            if delta.needs_catalog and prior.catalog is None:
                raise ConfigError(
                    f"workspace {name!r} has no catalog; this delta contains "
                    f"relation ops"
                )
            views = delta.apply(prior.catalog, prior.views)
            version = self._last_versions.get(name, prior.version) + 1
            updated = replace(prior, version=version, views=views)
            self._workspaces[name] = updated
            self._last_versions[name] = version
            journal = self._delta_journal.setdefault(
                name, deque(maxlen=self.DELTA_JOURNAL_LIMIT)
            )
            journal.append((prior.version, version, delta))
            return updated

    def delta_chain(
        self, name: str, from_version: int, to_version: int
    ) -> Optional[List["CatalogDelta"]]:
        """The journaled deltas taking ``name`` from one version to another.

        Returns the contiguous list of deltas covering exactly
        ``from_version → to_version``, oldest first; ``None`` when the
        journal cannot bridge the gap (a non-delta update intervened, the
        follower is too far behind, or the versions are unknown) — the
        caller should fall back to a full rebuild.  An empty list when the
        versions are equal.
        """
        if from_version == to_version:
            return []
        if from_version > to_version:
            return None
        with self._lock:
            journal = self._delta_journal.get(name)
            if not journal:
                return None
            chain: List["CatalogDelta"] = []
            cursor = from_version
            for entry_from, entry_to, delta in journal:
                if entry_to <= cursor:
                    continue
                if entry_from != cursor:
                    return None
                chain.append(delta)
                cursor = entry_to
                if cursor == to_version:
                    return chain
        return None

    def remove(self, name: str) -> Workspace:
        """Drop a workspace (its engine runtime is reaped on next access)."""
        with self._lock:
            workspace = self._get_locked(name)
            del self._workspaces[name]
            self._delta_journal.pop(name, None)
            return workspace

    # ------------------------------------------------------------------ reads
    def _get_locked(self, name: str) -> Workspace:
        workspace = self._workspaces.get(name)
        if workspace is None:
            known = ", ".join(sorted(self._workspaces)) or "<none>"
            raise UnknownWorkspaceError(
                f"unknown workspace {name!r}; registered workspaces: {known}"
            )
        return workspace

    def get(self, name: str) -> Workspace:
        """The current bundle for ``name`` (:class:`UnknownWorkspaceError`
        — listing the registered names — when absent)."""
        with self._lock:
            return self._get_locked(name)

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._workspaces))

    def describe(self) -> List[dict]:
        """JSON-ready summaries of every workspace, sorted by name."""
        with self._lock:
            return [
                self._workspaces[name].describe()
                for name in sorted(self._workspaces)
            ]

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._workspaces

    def __len__(self) -> int:
        with self._lock:
            return len(self._workspaces)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())


__all__ = ["DEFAULT_WORKSPACE", "Workspace", "WorkspaceRegistry"]
