"""Capability-declaring registration of execution backends.

Which substrates exist and which of them may serve as automatic fallbacks
is data, declared in one place each:

* :class:`BackendCapabilities` — what a substrate can run: plain LA plans
  (``supports_la``) and factorized LA over normalized matrices
  (``supports_factorized``).  Every backend class *declares* its
  capabilities as a class attribute, so instances carry them wherever they
  go.
* :class:`BackendRegistry` — the named factories, in registration order.
  :class:`repro.api.Engine` instantiates its backends through it;
  registering a new substrate is one ``register`` call, with no router
  edits: :meth:`repro.service.router.ExecutionRouter.candidates` consults
  capabilities, never names.

The registry stores **factories** (``catalog -> backend``), not instances:
one registry can serve many engines over different catalogs, and a fresh
engine always gets fresh backend state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Tuple

from repro.exceptions import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.catalog import Catalog

BackendFactory = Callable[["Catalog"], object]


@dataclass(frozen=True)
class BackendCapabilities:
    """What one execution substrate can run.

    ``supports_la``
        Plain LA plans (the planner's default output).  Backends without it
        are never auto-selected as fallbacks for LA plans.
    ``supports_factorized``
        Factorized LA over normalized (PK-FK join) matrices; the router
        prefers such a backend when a plan touches a matrix whose factors
        are materialized.
    """

    supports_la: bool = True
    supports_factorized: bool = False


#: Capability set assumed for backends that declare nothing.
GENERIC_LA = BackendCapabilities()


def capabilities_of(backend: object) -> BackendCapabilities:
    """The capabilities an instance (or class) declares, else LA-only."""
    declared = getattr(backend, "capabilities", None)
    return declared if isinstance(declared, BackendCapabilities) else GENERIC_LA


class BackendRegistry:
    """Named backend factories, in registration order."""

    def __init__(self) -> None:
        self._factories: Dict[str, BackendFactory] = {}

    def register(self, name: str, factory: BackendFactory, replace: bool = False) -> None:
        """Register ``factory`` under ``name``.

        ``factory`` is any ``catalog -> backend`` callable — typically the
        backend class itself, whose ``capabilities`` class attribute
        declares what it can run.  Re-registering an existing name requires
        ``replace=True`` so typos do not silently shadow a substrate.
        """
        if not isinstance(name, str) or not name:
            raise ConfigError(f"backend name must be a non-empty string, got {name!r}")
        if not callable(factory):
            raise ConfigError(
                f"backend factory for {name!r} must be callable, got {factory!r}"
            )
        if name in self._factories and not replace:
            raise ConfigError(
                f"backend {name!r} is already registered; pass replace=True to override"
            )
        self._factories[name] = factory

    def names(self) -> Tuple[str, ...]:
        """Registered backend names, in registration order."""
        return tuple(self._factories)

    def capabilities(self, name: str) -> BackendCapabilities:
        """What the factory registered as ``name`` declares it can run."""
        if name not in self._factories:
            raise ConfigError(
                f"unknown backend {name!r}; registered: {sorted(self._factories)}"
            )
        return capabilities_of(self._factories[name])

    def create_all(self, catalog: "Catalog") -> Dict[str, object]:
        """One fresh instance of every registered backend, in order."""
        return {name: factory(catalog) for name, factory in self._factories.items()}

    @classmethod
    def with_defaults(cls) -> "BackendRegistry":
        """A registry of the four stock substrates.

        Imported lazily so this module stays import-neutral (usable from
        config/validation code without dragging in numpy-heavy backends).
        """
        from repro.backends.morpheus import MorpheusBackend
        from repro.backends.numpy_backend import NumpyBackend
        from repro.backends.relational import RelationalEngine
        from repro.backends.systemml_like import SystemMLLikeBackend

        registry = cls()
        registry.register("numpy", NumpyBackend)
        registry.register("systemml_like", SystemMLLikeBackend)
        registry.register("morpheus", MorpheusBackend)
        registry.register("relational", RelationalEngine)
        return registry


__all__ = [
    "BackendCapabilities",
    "BackendFactory",
    "BackendRegistry",
    "GENERIC_LA",
    "capabilities_of",
]
