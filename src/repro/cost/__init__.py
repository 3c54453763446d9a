"""Cost model and sparsity estimators (paper §7.1 / §7.2).

The cost γ(E) of an expression is the sum of the (estimated) sizes of its
intermediate results when it is evaluated "as stated", where the size of a
sparse intermediate counts only its non-zero cells.  Two estimators for the
number of non-zeros are provided, mirroring the paper:

* :class:`~repro.cost.naive_estimator.NaiveMetadataEstimator` — worst-case
  propagation from base-matrix metadata only (no runtime overhead);
* :class:`~repro.cost.mnc_estimator.MNCEstimator` — the MNC count-histogram
  estimator, which builds per-row / per-column non-zero-count histograms for
  the base matrices and derives histograms for intermediates during
  optimization (more accurate, slight overhead).

Estimators are selected **by name** through a small registry, so
configuration stays declarative: :attr:`repro.config.PlannerConfig.estimator`
carries a registered name (``"naive"`` — the default — or ``"mnc"``) and
:class:`~repro.planner.session.PlanSession` resolves it here instead of
callers importing estimator classes.  :func:`register_estimator` adds
custom estimators under new names; :func:`resolve_estimator` raises
:class:`~repro.exceptions.ConfigError` listing the valid choices when a
name is unknown.  An estimator provides ``leaf_info(meta, data)``, where
``data`` is the leaf's :class:`~repro.data.matrix.MatrixData` (``None`` when
only metadata is registered), and ``propagate(relation, shape, inputs)``.
"""

from typing import Callable, Dict, Optional, Tuple

from repro.exceptions import ConfigError

from repro.cost.model import (
    NnzInfo,
    expression_cost,
    annotate_expression,
    annotate_instance_classes,
)
from repro.cost.naive_estimator import NaiveMetadataEstimator
from repro.cost.mnc_estimator import MNCEstimator

#: The estimator registry: name -> zero-argument factory.  The stock names
#: mirror the paper's two estimators; ``register_estimator`` extends the
#: registry.
_ESTIMATORS: Dict[str, Callable[[], object]] = {
    "naive": NaiveMetadataEstimator,
    "mnc": MNCEstimator,
}


def estimator_names() -> Tuple[str, ...]:
    """The registered estimator names, sorted."""
    return tuple(sorted(_ESTIMATORS))


def register_estimator(
    name: str, factory: Callable[[], object], replace: bool = False
) -> None:
    """Register ``factory`` (a zero-argument callable) under ``name``.

    Registering an already-taken name raises :class:`ConfigError` unless
    ``replace=True`` — shadowing a stock estimator silently would change
    every config that names it.
    """
    if not isinstance(name, str) or not name:
        raise ConfigError(f"estimator name must be a non-empty string, got {name!r}")
    if not callable(factory):
        raise ConfigError(f"estimator factory for {name!r} must be callable, got {factory!r}")
    if name in _ESTIMATORS and not replace:
        raise ConfigError(
            f"estimator {name!r} is already registered; pass replace=True to override"
        )
    _ESTIMATORS[name] = factory


def resolve_estimator(name: str):
    """Build the estimator registered under ``name``.

    Unknown names raise :class:`ConfigError` listing the valid choices —
    the message a mistyped ``PlannerConfig.estimator`` surfaces with.
    """
    factory = _ESTIMATORS.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown estimator {name!r}; registered estimator names are "
            f"{list(estimator_names())} (register custom ones with "
            f"repro.cost.register_estimator)"
        )
    return factory()


def estimator_name_for(estimator: object) -> Optional[str]:
    """Reverse lookup: the registered name whose factory builds this type.

    Returns ``None`` for estimator objects that are not instances of any
    registered class-factory — config snapshots then keep their declared
    name rather than inventing one.
    """
    for name, factory in _ESTIMATORS.items():
        if isinstance(factory, type) and type(estimator) is factory:
            return name
    return None


__all__ = [
    "NnzInfo",
    "expression_cost",
    "annotate_expression",
    "annotate_instance_classes",
    "NaiveMetadataEstimator",
    "MNCEstimator",
    "estimator_name_for",
    "estimator_names",
    "register_estimator",
    "resolve_estimator",
]
