"""Plan sessions: long-lived, cached drivers of the staged planner pipeline.

A :class:`PlanSession` owns everything that survives between rewrites —
catalog and estimator references, the constraint set compiled once into a
:class:`~repro.chase.program.ConstraintProgram`, the
:class:`~repro.chase.saturation.SaturationEngine` built on top of it, and a
:class:`~repro.planner.cache.PlanStore` of finished plans — and runs the
per-rewrite stages of :mod:`repro.planner.stages` over it.

:class:`repro.api.Engine` shares one session per workspace view set;
the hybrid optimizer, the benchmark harness and tests drive a session
directly.

Thread safety
-------------
Any number of threads may call :meth:`PlanSession.plan` on one session at
once.  That rests on two things: the session is frozen once built (its
config, compiled :class:`ConstraintProgram` and :class:`SaturationEngine`
are only read), and everything a rewrite writes lives in that rewrite's
own :class:`~repro.planner.stages.PlanContext` and
:class:`~repro.vrem.instance.VremInstance`.  The memos filled on the way —
``Expr.fingerprint()``, ``ConstraintProgram.armed`` and ``kernel_for`` —
are idempotent: racing threads store equal values.  :meth:`rewrite` is
safe too, its :class:`PlanStore` being lock-guarded and single-flight, and
every result crossing a store boundary is a private copy
(:meth:`RewriteResult.copy`).  :class:`repro.service.PlanSessionPool`
shares one session per workspace view set and runs the uncached
:meth:`plan` on it, so that session holds no plans.

Options
-------
A session is built once from one frozen :class:`PlannerConfig`, kept as
``session.config``; nothing reconfigures it afterwards.  A session with
other views is a new session (:meth:`PlanSession.with_views`), and other
options mean a new session or engine built from ``config.with_options(...)``.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.catalog.footprint import PlanFootprint
from repro.chase.program import ConstraintProgram
from repro.chase.saturation import SaturationEngine
from repro.config import PlannerConfig
from repro.constraints import default_constraints
from repro.constraints.core import Constraint
from repro.constraints.views import LAView, constraints_for_views
from repro.core.result import RewriteResult
from repro.cost import estimator_name_for, resolve_estimator
from repro.data.catalog import Catalog
from repro.data.matrix import MatrixMeta
from repro.exceptions import ConfigError, ShapeError, UnknownMatrixError
from repro.lang import matrix_expr as mx
from repro.planner.cache import PlanKey, PlanStore
from repro.planner.stages import DEFAULT_STAGES, PlanContext


class PlanSession:
    """Reusable planning state plus the staged rewrite pipeline."""

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        views: Sequence[LAView] = (),
        estimator=None,
        constraints: Optional[Sequence[Constraint]] = None,
        *,
        config: Optional[PlannerConfig] = None,
        **planner_kwargs,
    ):
        # Options are either one PlannerConfig or its fields inline, never
        # both: a keyword beside ``config`` would otherwise be dropped.
        if config is None:
            config = PlannerConfig(**planner_kwargs)
        elif planner_kwargs:
            raise ConfigError(
                f"PlanSession got both config= and the planner keyword(s) "
                f"{sorted(planner_kwargs)}; pass config.with_options(...) instead"
            )
        # An explicit estimator object wins over the config name; otherwise
        # the name is resolved through the registry in :mod:`repro.cost`, so
        # an unknown name raises ConfigError listing the valid choices here.
        if estimator is None:
            estimator = resolve_estimator(config.estimator)
        #: The frozen options this session was built with, the only place
        #: they live; ``estimator`` names the estimator actually in use
        #: (objects of unregistered types keep the declared name).
        self.config = config = config.with_options(
            estimator=estimator_name_for(estimator) or config.estimator
        )
        self.catalog = catalog
        self.views: Tuple[LAView, ...] = tuple(views)
        self.estimator = estimator
        if constraints is None:
            constraints = default_constraints(
                include_decompositions=config.include_decompositions,
                include_morpheus=config.include_morpheus_rules
                or bool(config.normalized_matrices),
            )
        self.base_constraints = list(constraints)
        #: The storage-name metadata this session registered, by view name:
        #: the only entries :meth:`register_view_metadata` ever rewrites.  A
        #: pool hands it on to the session that replaces this one.
        self.view_metadata: Dict[str, MatrixMeta] = {}
        self.register_view_metadata()
        self.view_constraints = constraints_for_views(self.views, catalog)
        #: Compiled once; every rewrite reuses the indexed program.
        self.program = ConstraintProgram(
            self.base_constraints + self.view_constraints, validate=False
        )
        self.engine = SaturationEngine(
            self.program,
            max_rounds=config.max_rounds,
            max_atoms=config.max_atoms,
            max_classes=config.max_classes,
        )
        self.stages = DEFAULT_STAGES
        self.store = PlanStore(config.cache_size)
        #: The view-set and options components of every cache key, fixed
        #: here like everything they describe.  The options component holds
        #: exactly the fields that change a plan, plus the estimator's type.
        self.viewset_key: Tuple = (
            tuple(sorted((view.name, view.definition.fingerprint()) for view in self.views)),
            self.config.normalized_matrices,
        )
        self.options_key: Tuple = (
            config.include_decompositions,
            config.include_morpheus_rules,
            config.max_rounds,
            config.max_atoms,
            config.max_classes,
            config.prune,
            config.tighten_thresholds,
            type(estimator).__name__,
        )

    # ------------------------------------------------------------------ setup
    def register_view_metadata(self) -> FrozenSet[str]:
        """Make every view's stored result costable; returns the names written.

        A materialized view is a file on disk accompanied by metadata
        (dimensions, nnz); if the catalog does not already know the view's
        storage name, metadata derived from the view definition is registered
        so that rewritings referencing the view can be costed (and so that the
        harness can later materialise the values under the same name).  A
        name this session registered is re-derived, and rewritten (or
        dropped, once the definition no longer derives) only when it
        changed: :class:`repro.service.PlanSessionPool` runs this after the
        catalog moved, so the entry equals a fresh session's.
        """
        catalog = self.catalog
        if catalog is None:
            return frozenset()
        from repro.cost.model import annotate_expression

        written = []
        for view in self.views:
            present = catalog.has_matrix(view.name)
            # A caller's entry (registered, overwritten or backed with
            # values) is not the object this session registered.
            if present and self.view_metadata.get(view.name) is not catalog.meta(view.name):
                self.view_metadata.pop(view.name, None)
                continue
            try:
                info = annotate_expression(view.definition, catalog, self.estimator)[
                    view.definition
                ]
            except (ShapeError, UnknownMatrixError):
                # A definition over a missing name, or one a later delta made
                # non-conformable, derives nothing (AddView refuses a bad
                # shape it can see up front).
                info = None
            if info is None or info.shape is None:
                if present:  # a fresh session would register nothing here
                    catalog.drop_matrix(view.name)
                    del self.view_metadata[view.name]
                    written.append(view.name)
                continue
            meta = MatrixMeta(
                name=view.name, rows=info.shape[0], cols=info.shape[1], nnz=int(round(info.nnz))
            )
            if not present or meta != catalog.meta(view.name):
                self.view_metadata[view.name] = catalog.register_metadata(meta, overwrite=present)
                written.append(view.name)
        return frozenset(written)

    # ------------------------------------------------------------------ cache
    def cache_key(self, expr: mx.Expr, workspace: str = "") -> PlanKey:
        """The :class:`PlanKey` ``expr`` is stored under in ``workspace``.

        Only the fingerprint and the live catalog version are read per
        probe; the view-set and options components were fixed at
        construction.  A bare session's store uses the empty workspace; a
        pool passes its own.
        """
        return PlanKey(
            workspace,
            expr.fingerprint(),
            self.viewset_key,
            self.catalog.version if self.catalog is not None else -1,
            self.options_key,
        )

    def invalidate(self) -> None:
        """Drop every cached plan (catalog changes do this implicitly)."""
        self.store.clear()

    # ------------------------------------------------------------------ rewriting
    def rewrite(self, expr: mx.Expr) -> RewriteResult:
        """Find the minimum-cost equivalent of ``expr`` (cached in :attr:`store`)."""
        return self.store.get_or_plan(lambda: self.cache_key(expr), lambda: self.plan(expr))

    def rewrite_all(self, expressions: Iterable[mx.Expr]) -> List[RewriteResult]:
        """Rewrite a batch in input order; the store plans each key once, so
        structurally identical inputs after the first are cache hits."""
        return [self.rewrite(expr) for expr in expressions]

    def plan(self, expr: mx.Expr) -> RewriteResult:
        """Run the stage pipeline on ``expr``, bypassing the store."""
        start = time.perf_counter()
        ctx = PlanContext(session=self, expr=expr)
        for stage in self.stages:
            stage_start = time.perf_counter()
            stage.run(ctx)
            ctx.timings[stage.name] = time.perf_counter() - stage_start
        footprint = None
        if ctx.instance is not None:
            footprint = PlanFootprint.from_instance(
                ctx.instance,
                ctx.saturation,
                (view.name for view in self.views),
            )
        return RewriteResult(
            original=expr,
            best=ctx.best_expr,
            original_cost=ctx.original_cost,
            best_cost=ctx.best_cost,
            changed=ctx.best_expr != expr,
            rewrite_seconds=time.perf_counter() - start,
            alternatives=ctx.alternatives,
            saturation=ctx.saturation,
            used_views=ctx.used_views,
            stage_timings=dict(ctx.timings),
            cache_hit=False,
            fingerprint=expr.fingerprint(),
            footprint=footprint,
        )

    # ------------------------------------------------------------------ cloning
    def with_views(self, views: Sequence[LAView]) -> "PlanSession":
        """A copy of this session using a different view set.

        Every option is preserved (:attr:`config`, plus the estimator object
        and base constraints), so derived sessions cannot silently regress
        to defaults.
        """
        return PlanSession(
            catalog=self.catalog,
            views=views,
            estimator=self.estimator,
            constraints=self.base_constraints,
            config=self.config,
        )


__all__ = ["PlanSession"]
