"""The staged planner: HADAD's rewrite pipeline as a reusable subsystem.

The planner is

* a staged pipeline — :class:`~repro.planner.stages.EncodeStage` →
  :class:`~repro.planner.stages.SaturateStage` →
  :class:`~repro.planner.stages.AnnotateStage` →
  :class:`~repro.planner.stages.ExtractStage` →
  :class:`~repro.planner.stages.PostOptStage` — each timed per rewrite;
* a :class:`~repro.planner.session.PlanSession` owning the long-lived state:
  the constraint set compiled once into a
  :class:`~repro.chase.program.ConstraintProgram`, the indexed
  :class:`~repro.chase.saturation.SaturationEngine`, and a
  :class:`~repro.planner.cache.PlanStore` of finished plans;
* the :class:`~repro.planner.cache.PlanStore` itself: one lock-guarded,
  single-flight, footprint-indexed LRU, the only place a plan is cached —
  a bare session owns one, a workspace's session pool owns one.

The public entry point is :class:`repro.api.Engine`, which shares one
session per workspace view set; a bare :class:`PlanSession` is the core
the tests and benchmarks compare it against.  A session is frozen once
built and each rewrite keeps its state in its own ``PlanContext``, so one
session serves any number of planning threads.
"""

from repro.planner.cache import PlanStore
from repro.planner.session import PlanSession
from repro.planner.stages import (
    DEFAULT_STAGES,
    AnnotateStage,
    EncodeStage,
    ExtractStage,
    PlanContext,
    PostOptStage,
    SaturateStage,
    Stage,
)

__all__ = [
    "PlanSession",
    "PlanStore",
    "PlanContext",
    "Stage",
    "EncodeStage",
    "SaturateStage",
    "AnnotateStage",
    "ExtractStage",
    "PostOptStage",
    "DEFAULT_STAGES",
]
