"""Plan sessions: long-lived, cached drivers of the staged planner pipeline.

A :class:`PlanSession` owns everything that survives between rewrites —
catalog and estimator references, the constraint set compiled once into a
:class:`~repro.chase.program.ConstraintProgram`, the
:class:`~repro.chase.saturation.SaturationEngine` built on top of it, and a
:class:`~repro.planner.cache.PlanStore` of finished plans — and runs the
per-rewrite stages of :mod:`repro.planner.stages` over it.

:class:`repro.api.Engine` pools sessions per workspace; the hybrid
optimizer, the benchmark harness and tests drive a session directly.

Thread safety
-------------
A session is **not** thread-safe: a rewrite mutates the saturation engine's
working state, and the reconfiguration methods (``set_views`` /
``set_budgets`` / …) swap whole components.  One session must therefore be
driven by one thread at a time.  Concurrent callers should check sessions
out of a :class:`repro.service.PlanSessionPool`, which keeps each session
exclusive to its holder and caches plans in its own store: it runs the
uncached :meth:`PlanSession.plan` on the sessions it checks out, so pooled
sessions hold no plans.  The only state deliberately safe to share across
threads is the expression-side ``Expr.fingerprint()`` memo (idempotent
writes of an identical value) and finished :class:`RewriteResult` objects,
because every result crossing a store boundary is a private copy
(:meth:`RewriteResult.copy`).
"""

from __future__ import annotations

import time
from dataclasses import fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
from repro.exceptions import UnknownMatrixError
from repro.lang import matrix_expr as mx
from repro.planner.cache import PlanKey, PlanStore
from repro.planner.stages import DEFAULT_STAGES, PlanContext, Stage


#: Options a session holds as plain attributes named after their
#: :class:`PlannerConfig` field.  The other two fields live on owned objects:
#: ``estimator`` on the live estimator object (see ``estimator_name``) and
#: ``cache_size`` on ``store.capacity``.
_ATTRIBUTE_OPTIONS: Tuple[str, ...] = tuple(
    f.name for f in fields(PlannerConfig) if f.name not in ("estimator", "cache_size")
)


class PlanSession:
    """Reusable planning state plus the staged rewrite pipeline."""

    # Declared for type checkers; ``__init__`` assigns every
    # ``_ATTRIBUTE_OPTIONS`` name from the config.
    include_decompositions: bool
    include_systemml_rules: bool
    include_morpheus_rules: bool
    include_view_voi: bool
    max_rounds: int
    max_atoms: int
    max_classes: int
    prune: bool
    reorder_matmul_chains: bool
    alternatives_limit: int
    normalized_matrices: Dict[str, Tuple[str, str, str]]
    tighten_thresholds: bool
    #: Static-verification mode ("off" | "warn" | "strict"); consulted
    #: again whenever ``set_views`` recompiles the program.
    verify_constraints: str

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        views: Sequence[LAView] = (),
        estimator=None,
        constraints: Optional[Sequence[Constraint]] = None,
        *,
        stages: Optional[Sequence[Stage]] = None,
        config: Optional[PlannerConfig] = None,
        **planner_kwargs,
    ):
        # Options always travel as one validated, frozen PlannerConfig.
        # ``planner_kwargs`` are its fields given inline; they are folded
        # into one even when ``config`` is provided (and wins), so an
        # unknown name or an invalid value always fails here, naming the
        # field.
        keyword_config = PlannerConfig(**planner_kwargs)
        if config is None:
            config = keyword_config
        options = config.session_kwargs()
        for name in _ATTRIBUTE_OPTIONS:
            setattr(self, name, options[name])

        self.catalog = catalog
        self.views = list(views)
        #: The declared estimator name.  An explicit estimator *object*
        #: wins over the config name; otherwise
        #: the name is resolved through the registry in :mod:`repro.cost`
        #: — an unknown name raises ConfigError listing the valid choices,
        #: here at construction rather than on the first rewrite.
        self._declared_estimator_name = options["estimator"]
        if estimator is None:
            estimator = resolve_estimator(self._declared_estimator_name)
        self.estimator = estimator
        if constraints is None:
            constraints = default_constraints(
                include_decompositions=self.include_decompositions,
                include_systemml=self.include_systemml_rules,
                include_morpheus=self.include_morpheus_rules or bool(self.normalized_matrices),
            )
        self.base_constraints = list(constraints)
        self._register_view_metadata()
        self.view_constraints = constraints_for_views(
            self.views, catalog, include_voi=self.include_view_voi
        )
        #: Compiled once; every rewrite reuses the indexed program.
        self.program = ConstraintProgram(
            self.base_constraints + self.view_constraints, validate=False
        )
        self._verify_program()
        self.engine = self._build_engine()
        self.stages: Tuple[Stage, ...] = tuple(stages) if stages is not None else DEFAULT_STAGES
        self.store = PlanStore(options["cache_size"])
        #: The construction-time half of :meth:`options_key`, frozen here:
        #: these options are baked into the compiled constraint program and
        #: cannot take effect through attribute mutation, so the cache key
        #: deliberately uses the values the program was *built* with.
        self._constructed_options_key: Tuple = (
            self.include_decompositions,
            self.include_systemml_rules,
            self.include_morpheus_rules,
            self.include_view_voi,
        )

    # ------------------------------------------------------------------ setup
    def _verify_program(self) -> None:
        """Statically verify the compiled program per ``verify_constraints``.

        Only **error-severity** findings (unsafe EGDs, malformed atoms,
        broken trigger metadata, never-matching commutative premises) act
        here: ``"warn"`` surfaces them as a :class:`UserWarning`,
        ``"strict"`` raises
        :class:`~repro.exceptions.ConstraintVerificationError`.  The
        warning-tier findings the shipped theory triggers by design (weak
        acyclicity of the bidirectional LA rules) are an audit concern for
        the ``python -m repro.analysis`` CLI, not a construction gate —
        which is also what keeps plans byte-identical across all modes:
        verification reads the program, never rewrites it.
        """
        mode = self.verify_constraints
        if mode == "off":
            return
        from repro.analysis.findings import ERROR

        errors = [f for f in self.program.verify("session") if f.severity == ERROR]
        if not errors:
            return
        rendered = "; ".join(f.render() for f in errors)
        if mode == "strict":
            from repro.exceptions import ConstraintVerificationError

            raise ConstraintVerificationError(
                f"constraint program failed static verification: {rendered}"
            )
        import warnings

        warnings.warn(
            f"constraint program has static-verification errors: {rendered}",
            UserWarning,
            stacklevel=3,
        )

    def _build_engine(self) -> SaturationEngine:
        return SaturationEngine(
            self.program,
            max_rounds=self.max_rounds,
            max_atoms=self.max_atoms,
            max_classes=self.max_classes,
        )

    def _register_view_metadata(self) -> None:
        """Make every view's stored result costable.

        A materialized view is a file on disk accompanied by metadata
        (dimensions, nnz); if the catalog does not already know the view's
        storage name, metadata derived from the view definition is registered
        so that rewritings referencing the view can be costed (and so that the
        harness can later materialise the values under the same name).
        """
        if self.catalog is None:
            return
        from repro.cost.model import annotate_expression
        from repro.data.matrix import MatrixMeta

        for view in self.views:
            if self.catalog.has_matrix(view.name):
                continue
            try:
                info = annotate_expression(view.definition, self.catalog, self.estimator)[
                    view.definition
                ]
            except UnknownMatrixError:
                continue
            if info.shape is None:
                continue
            self.catalog.register_metadata(
                MatrixMeta(
                    name=view.name,
                    rows=info.shape[0],
                    cols=info.shape[1],
                    nnz=int(round(info.nnz)),
                )
            )

    def viewset_key(self) -> Tuple:
        # Recomputed on every cache probe (it is cheap: expression
        # fingerprints are cached on the nodes) so that in-place mutation of
        # ``views`` or ``normalized_matrices`` changes the key rather than
        # serving plans computed under the old declarations.
        views = tuple(
            sorted((view.name, view.definition.fingerprint()) for view in self.views)
        )
        normalized = tuple(sorted(self.normalized_matrices.items()))
        return (views, normalized)

    # ------------------------------------------------------------------ reconfiguration
    def set_views(self, views: Sequence[LAView]) -> None:
        """Swap the session's view set in place.

        Re-derives the view constraints, recompiles the constraint program,
        rebuilds the engine and drops every cached plan — the in-place
        equivalent of :meth:`with_views`.
        """
        self.views = list(views)
        self._register_view_metadata()
        self.view_constraints = constraints_for_views(
            self.views, self.catalog, include_voi=self.include_view_voi
        )
        self.program = ConstraintProgram(
            self.base_constraints + self.view_constraints, validate=False
        )
        self._verify_program()
        self.engine = self._build_engine()
        self.invalidate()

    def set_budgets(
        self,
        max_rounds: Optional[int] = None,
        max_atoms: Optional[int] = None,
        max_classes: Optional[int] = None,
    ) -> None:
        """Adjust the saturation budgets (cached plans are dropped)."""
        if max_rounds is not None:
            self.max_rounds = self.engine.max_rounds = max_rounds
        if max_atoms is not None:
            self.max_atoms = self.engine.max_atoms = max_atoms
        if max_classes is not None:
            self.max_classes = self.engine.max_classes = max_classes
        self.invalidate()

    # ------------------------------------------------------------------ configuration view
    @property
    def estimator_name(self) -> str:
        """The registered name of the live estimator.

        Reverse-resolved from the registry so that swapping the estimator
        object is reflected; estimator objects of
        unregistered types keep the declared config name.
        """
        return estimator_name_for(self.estimator) or self._declared_estimator_name

    def current_config(self) -> PlannerConfig:
        """The session's *live* options as a frozen :class:`PlannerConfig`.

        Recomputed from the current attribute values, so post-construction
        mutation (direct attribute writes) is reflected — and validated: an
        invalid mutated value surfaces as a
        :class:`~repro.exceptions.ConfigError` when the snapshot is taken
        (the ``config`` property, :meth:`with_views` clones).
        Note that the rule-set flags (``include_*``) are construction-time:
        the snapshot reports the attribute values, but changing the rule
        set requires a new session (the compiled constraint program is not
        re-derived by mutation).
        """
        live = {name: getattr(self, name) for name in _ATTRIBUTE_OPTIONS}
        return PlannerConfig(
            estimator=self.estimator_name, cache_size=self.store.capacity, **live
        )

    @property
    def config(self) -> PlannerConfig:
        return self.current_config()

    # ------------------------------------------------------------------ cache
    def options_key(self) -> Tuple:
        """The plan-affecting options component of every cache key.

        Two halves, matching how the options actually act:

        * the **constructed** half — the rule-set flags baked into the
          compiled constraint program at construction (mutating those
          attributes cannot take effect, so the key keeps the built-with
          values and neither mislabels plans nor re-keys spuriously);
        * the **tunable** half — the budgets, pruning, chain-reordering and
          alternatives options plus the estimator's type, all read live by
          every rewrite.  Mutating one of these (assigning the session
          attribute) both takes effect on the next rewrite *and* re-keys
          it, so plans computed under the old options can never be served
          for the new ones.

        Kept cheap deliberately (a plain attribute tuple, no validation):
        this runs on every cache probe of the serving hot path.
        """
        return self._constructed_options_key + (
            self.max_rounds,
            self.max_atoms,
            self.max_classes,
            self.prune,
            self.tighten_thresholds,
            self.reorder_matmul_chains,
            self.alternatives_limit,
            type(self.estimator).__name__,
        )

    def cache_key(self, expr: mx.Expr, workspace: str = "") -> PlanKey:
        """The :class:`PlanKey` ``expr`` is stored under in ``workspace``.

        The options component is recomputed from the live session state on
        every probe — see :meth:`options_key` for exactly which options
        re-key on mutation (views and normalized-matrix declarations are
        covered by the view-set key, the catalog by its version).  A bare
        session's store uses the empty workspace; a pool passes its own.
        """
        return PlanKey(
            workspace,
            expr.fingerprint(),
            self.viewset_key(),
            self.catalog.version if self.catalog is not None else -1,
            self.options_key(),
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
        # The saturation budgets live on both the session (the declared,
        # cache-keyed values) and the engine (what saturation actually
        # runs).  Sync them here so a budget mutated directly on the
        # session — bypassing set_budgets — is effective in the same
        # rewrite that re-keys the cache; key and behaviour never diverge.
        self.engine.max_rounds = self.max_rounds
        self.engine.max_atoms = self.max_atoms
        self.engine.max_classes = self.max_classes
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

        Every option is preserved (the live :meth:`current_config`, plus the
        live estimator object and base constraints), so derived sessions
        cannot silently regress to defaults.
        """
        return PlanSession(
            catalog=self.catalog,
            views=views,
            estimator=self.estimator,
            constraints=self.base_constraints,
            config=self.current_config(),
        )


__all__ = ["PlanSession"]
