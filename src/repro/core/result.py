"""Result object returned by the optimizer."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.chase.saturation import SaturationResult
from repro.lang import matrix_expr as mx

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.footprint import PlanFootprint


@dataclass
class RewriteResult:
    """Outcome of one rewrite (``Engine.rewrite`` / ``PlanSession.rewrite``).

    Attributes
    ----------
    original:
        The input expression.
    best:
        The minimum-cost equivalent expression found (the input itself when
        no cheaper alternative exists).
    original_cost / best_cost:
        γ estimates under the optimizer's cost model.
    changed:
        Whether ``best`` differs structurally from ``original``.
    rewrite_seconds:
        Wall-clock time spent by the optimizer (the paper's RW_find).
    alternatives:
        Further equivalent expressions with their costs, cheapest first
        (bounded; used by reports and tests, cf. Figure 4).
    saturation:
        Chase statistics.
    used_views:
        Names of materialized views referenced by ``best``.
    stage_timings:
        Wall-clock seconds per planner stage (encode / saturate / annotate /
        extract / postopt), filled by :class:`repro.planner.PlanSession`.
    cache_hit:
        True when this result was served from the session's rewrite cache
        (timings then refer to the original planning run).
    fingerprint:
        Structural fingerprint of ``original`` (the cache key component).
    footprint:
        The catalog names / views / constraints this plan actually
        consulted (:class:`repro.catalog.footprint.PlanFootprint`), used
        for selective revalidation under catalog deltas.  ``None`` for
        results predating footprint capture; such plans are always
        evicted on any delta.
    """

    original: mx.Expr
    best: mx.Expr
    original_cost: float
    best_cost: float
    changed: bool
    rewrite_seconds: float
    alternatives: List[Tuple[mx.Expr, float]] = field(default_factory=list)
    saturation: Optional[SaturationResult] = None
    used_views: List[str] = field(default_factory=list)
    stage_timings: Dict[str, float] = field(default_factory=dict)
    cache_hit: bool = False
    fingerprint: Optional[str] = None
    footprint: Optional["PlanFootprint"] = None

    @classmethod
    def as_stated(cls, expression: mx.Expr) -> "RewriteResult":
        """An identity plan: ``expression`` runs unchanged, with no costs."""
        return cls(
            original=expression,
            best=expression,
            original_cost=float("nan"),
            best_cost=float("nan"),
            changed=False,
            rewrite_seconds=0.0,
            fingerprint=expression.fingerprint(),
        )

    def copy(self, **overrides) -> "RewriteResult":
        """A copy whose mutable containers are private to the caller.

        Cached and shared results must stay pristine, so every result
        crossing a cache or pool boundary gets its own lists/dicts
        (including the saturation stats); expressions are immutable value
        objects and can be shared freely.  ``overrides`` replace fields on
        the copy (e.g. ``cache_hit=True`` when serving a memoized plan).
        """
        fields = {
            "alternatives": list(self.alternatives),
            "used_views": list(self.used_views),
            "stage_timings": dict(self.stage_timings),
        }
        saturation = self.saturation
        if saturation is not None:
            saturation = replace(
                saturation,
                applications_by_constraint=dict(saturation.applications_by_constraint),
            )
        fields["saturation"] = saturation
        fields.update(overrides)
        return replace(self, **fields)

    @property
    def estimated_speedup(self) -> float:
        """Ratio of estimated costs (>= 1 when the rewriting should help)."""
        if self.best_cost <= 0:
            return float("inf") if self.original_cost > 0 else 1.0
        return self.original_cost / self.best_cost

    def summary(self) -> str:
        """One-line human-readable description."""
        marker = "rewritten" if self.changed else "unchanged"
        return (
            f"[{marker}] cost {self.original_cost:.3g} -> {self.best_cost:.3g} "
            f"({self.estimated_speedup:.2f}x est.) in {self.rewrite_seconds * 1000:.1f} ms: "
            f"{self.best.to_string()}"
        )
