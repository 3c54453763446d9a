"""The dependency footprint of one finished plan.

A :class:`PlanFootprint` records what planning *actually consulted*: every
catalog name the saturated VREM instance mentions, the subset of those that
are materialized-view names, and the constraints the chase fired.  It is
captured by :meth:`repro.planner.session.PlanSession.plan` straight off
the instance's per-relation indexes — no extra bookkeeping during the chase
— and rides on the :class:`~repro.core.result.RewriteResult`, where the
footprint index of a :class:`~repro.planner.cache.PlanStore` uses it to
decide which cached plans a :class:`~repro.catalog.delta.CatalogDelta` can
possibly affect.

Why the ``name``/``scalar_name`` atoms are the complete dependency set:

* every leaf of the input expression is encoded as a ``name``/``scalar_name``
  atom (:class:`~repro.vrem.encoder.LAEncoder`);
* a view constraint can only *fire* by introducing (V_IO) or matching
  (V_OI) a ``name`` atom carrying the view's storage name, and its premise
  pins the view definition's base names as constants — so a view that
  never shows up in the instance's name atoms contributed nothing;
* cost annotation, extraction and post-optimization only read catalog
  metadata for classes reachable in the instance, i.e. for those names.

A catalog mutation touching none of the footprint's names therefore cannot
change the plan: the chase would fire the same constraints in the same
order under the same budgets, and every cost it reads is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chase.saturation import SaturationResult
    from repro.vrem.instance import VremInstance

#: The VREM relations whose constant arguments are catalog names — the
#: complete set of facts through which planning can observe the catalog.
NAME_RELATIONS = ("name", "scalar_name")


@dataclass(frozen=True)
class PlanFootprint:
    """Catalog names, views and constraints one plan depended on."""

    relations: FrozenSet[str] = field(default_factory=frozenset)
    views: FrozenSet[str] = field(default_factory=frozenset)
    constraints: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "relations", frozenset(self.relations))
        object.__setattr__(self, "views", frozenset(self.views))
        object.__setattr__(self, "constraints", frozenset(self.constraints))

    def intersects(self, touched: Iterable[str]) -> bool:
        """Whether a delta touching ``touched`` names can affect this plan."""
        relations = self.relations
        return any(name in relations for name in touched)

    @classmethod
    def from_instance(
        cls,
        instance: "VremInstance",
        saturation: Optional["SaturationResult"] = None,
        view_names: Iterable[str] = (),
    ) -> "PlanFootprint":
        """Read the footprint off a saturated instance's name atoms."""
        relations = set()
        for relation in NAME_RELATIONS:
            for atom in instance.atoms(relation):
                for arg in atom.args:
                    value = getattr(arg, "value", None)
                    if isinstance(value, str):
                        relations.add(value)
        fired = (
            frozenset(saturation.applications_by_constraint)
            if saturation is not None
            else frozenset()
        )
        views = frozenset(name for name in view_names if name in relations)
        return cls(
            relations=frozenset(relations), views=views, constraints=fired
        )

    def to_json(self) -> dict:
        return {
            "relations": sorted(self.relations),
            "views": sorted(self.views),
            "constraints": sorted(self.constraints),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "PlanFootprint":
        return cls(
            relations=frozenset(payload.get("relations", ())),
            views=frozenset(payload.get("views", ())),
            constraints=frozenset(payload.get("constraints", ())),
        )


__all__ = ["PlanFootprint", "NAME_RELATIONS"]
