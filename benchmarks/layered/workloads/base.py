"""What a workload is: a seeded op list replayed from an equivalent state."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from benchmarks.layered.stats import WARMUP_PASSES
from benchmarks.layered.tracer import Tracer


@dataclass
class OpSample:
    """One operation of one pass.

    ``seconds`` is the latency a caller of the op saw.  ``parts`` splits
    out what ``payoff_x`` needs: ``find`` (obtaining the plan), ``rw_exec``
    (running the chosen plan) and ``q_exec`` (running the pipeline as
    stated, timed beside the op).  ``plan``, ``cache_hit`` and ``counters``
    are exact and must repeat in every pass.
    """

    seconds: float
    parts: Dict[str, float] = field(default_factory=dict)
    plan: Optional[str] = None
    cache_hit: Optional[bool] = None
    counters: Dict[str, float] = field(default_factory=dict)
    failure: Optional[str] = None

    def signature(self) -> tuple:
        return (self.plan, self.cache_hit, tuple(sorted(self.counters.items())))


class Workload:
    """Base class; see ``README.md`` for the four concrete workloads.

    Life cycle, driven by :mod:`benchmarks.layered.harness`::

        setup()                      # timed as setup_s, several times
        run_pass(0, check=True)      # warm-up + correctness references
        run_pass(k, check=False)...  # until the time budget is spent
        run_traced_pass(tracer)...   # --trace 1 only
        teardown()

    Every pass replays the same ops from an equivalent state, so an op's
    samples across passes differ only by what the host added.
    """

    name = ""
    #: Closed-loop client connections driving the ops.
    clients = 1
    #: Every op must be planned from scratch (a cache hit is a failure).
    cold = False
    #: ``--smoke`` keeps this workload's plans, so the golden check applies.
    golden_in_smoke = False
    #: Parts of an untraced op that are one layer call: ``{part: span name}``.
    #: Their floors enter the traced run as that span, not timed twice.
    part_spans: Dict[str, str] = {}

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        #: Floors of the planner's own ``RewriteResult.stage_timings`` per
        #: ``(stage, op)``, kept beside the harness-side stage spans so the
        #: traced run can cross-check one against the other.
        self.reported_stage_seconds: Dict[tuple, float] = {}
        #: Exact counters of the traced in-process plans, per op, for the
        #: ops whose own samples cannot carry them (a served plan's chase
        #: counters do not cross the wire).
        self.traced_counters: Dict[str, Dict[str, float]] = {}

    def rotated(self, ops: Sequence) -> List:
        """The op order of this run, the same in every pass: the fixed op
        cycle, entered where the seed says.

        A rotation, not a shuffle, because an op's floor depends on its
        predecessor (what it left in the CPU caches, where the young
        collector's thresholds fall): under shuffles the 90th-percentile op
        of ``exec_payoff`` floored at 13.1 ms for one seed and 15.9 ms for
        another, each reproducibly.  Rotating keeps every op's predecessor
        but one, so the seed moves the order and not the cost.
        """
        start = self.seed % len(ops)
        return list(ops[start:]) + list(ops[:start])

    #: ``q_exec`` is timed beside the op in one pass out of this many where
    #: it is most of a pass (``exec_payoff``, ``hybrid``): only ``payoff_x``
    #: reads it, and the passes saved go into every other floor.
    BESIDE_EVERY = 3

    def beside(self, index: int) -> bool:
        """Whether pass ``index`` times the as-stated pipelines too: the
        check pass, the first timed pass, and every third after it."""
        return index == 0 or (index - WARMUP_PASSES) % self.BESIDE_EVERY == 0

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built (sockets, threads)."""

    def run_pass(self, index: int, check: bool) -> Dict[str, OpSample]:
        raise NotImplementedError

    def run_traced_pass(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def extra_counts(self) -> Dict[str, float]:
        """Exact per-layer counts that are not per-op counters."""
        return {}
