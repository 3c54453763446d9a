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
  fingerprint-keyed :class:`~repro.planner.cache.RewriteCache`;
* batch planning (``rewrite_all``) that dedupes structurally identical
  expressions before doing any work.

The public entry point is :class:`repro.api.Engine`, which pools sessions
per workspace; a bare :class:`PlanSession` is the single-threaded core the
tests and benchmarks compare it against.
"""

from repro.planner.cache import RewriteCache
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
    "RewriteCache",
    "PlanContext",
    "Stage",
    "EncodeStage",
    "SaturateStage",
    "AnnotateStage",
    "ExtractStage",
    "PostOptStage",
    "DEFAULT_STAGES",
]
