"""``plan_cold`` and ``exec_payoff``: the paper's 57 LA pipelines, planned cold.

Both replay ``(pipeline, view variant)`` ops against fresh engines; they
differ in what an op is.  ``plan_cold`` ops are the rewrite alone at scale
0.01 (chase-bound: the paper's RW_find, tables 2-3).  ``exec_payoff`` ops
are rewrite + execution of the chosen plan at scale 0.05 (backend- and
plan-quality-bound: figs 5-9).  The as-stated pipeline is timed beside
every op so both report ``payoff_x``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.api import Engine
from repro.backends.morpheus import MorpheusBackend
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.systemml_like import SystemMLLikeBackend
from repro.benchkit.datasets import ROLE_BINDINGS_DENSE, benchmark_catalog
from repro.benchkit.harness import materialize_views
from repro.benchkit.pipelines import (
    P_NO_OPT,
    P_VIEWS,
    build_pipeline,
    default_roles,
    pipeline_names,
)
from repro.benchkit.views_vexp import build_vexp_views
from repro.config import PlannerConfig
from repro.planner.session import PlanSession
from repro.service.service import ServiceRequest

from benchmarks.layered.tracer import Tracer
from benchmarks.layered.workloads.base import OpSample, Workload
from benchmarks.layered.workloads.la import (
    check_values,
    exec_beside,
    plan_counters,
    timed,
    trace_exec_op,
    trace_plan_op,
)

#: One cold plan of P2.17 is ~60 % of the whole 57-pipeline sweep.
HEAVIEST = "P2.17"

SMOKE_SCALE = 0.01

Op = Tuple[str, str]  # (pipeline, "nv" | "vexp")


class _PipelineWorkload(Workload):
    cold = True
    scale = 0.01
    #: Whether executing the chosen plan is part of the op's latency.
    execute_in_op = False
    part_spans = {"find": "api.rewrite", "pool_hit": "service.pool_plan_warm"}

    def pipeline_ops(self) -> List[Op]:
        raise NotImplementedError

    # ------------------------------------------------------------------ fixture
    def setup(self, tracer: Optional[Tracer] = None) -> None:
        tracer = tracer or Tracer()
        with tracer.span("data.catalog_build", "benchmark_catalog"):
            self.catalog = benchmark_catalog(scale=SMOKE_SCALE if self.smoke else self.scale)
        self.roles = default_roles(ROLE_BINDINGS_DENSE)
        self.views = build_vexp_views(self.roles)
        materialize_views(self.views, self.catalog)
        self.numpy = NumpyBackend(self.catalog)
        ops = self.pipeline_ops()
        if self.smoke:
            ops = [op for op in ops if op[0] != HEAVIEST][::4]
        self.order = self.rotated(ops)
        self._engines(tracer)

    def _engines(self, tracer: Optional[Tracer] = None) -> Dict[str, Engine]:
        tracer = tracer or Tracer()
        engines = {}
        for variant, views in (("nv", ()), ("vexp", self.views)):
            with tracer.span("api.engine_build", variant):
                engines[variant] = Engine(self.catalog, views=views)
        return engines

    def _sessions(self, tracer: Tracer) -> Dict[str, PlanSession]:
        sessions = {}
        for variant, views in (("nv", ()), ("vexp", self.views)):
            with tracer.span("constraints.program_build", variant):
                sessions[variant] = PlanSession(
                    catalog=self.catalog, views=views, config=PlannerConfig()
                )
        return sessions

    # ------------------------------------------------------------------ passes
    def run_pass(self, index: int, check: bool) -> Dict[str, OpSample]:
        engines = self._engines()
        samples: Dict[str, OpSample] = {}
        beside = []
        for name, variant in self.order:
            engine = engines[variant]
            expr = build_pipeline(name, self.roles)
            start = time.perf_counter()
            result = engine.rewrite(expr)
            find = time.perf_counter() - start
            sample = OpSample(
                seconds=find,
                parts={"find": find},
                plan=result.best.to_string(),
                cache_hit=result.cache_hit,
                counters=plan_counters(result),
            )
            samples[f"{name}/{variant}"] = sample
            if self.execute_in_op:
                sample.parts["rw_exec"], _ = timed(engine.execute, result)
                sample.seconds += sample.parts["rw_exec"]
                if self.beside(index):
                    sample.parts["q_exec"], _ = timed(self.numpy.evaluate, expr)
            else:
                beside.append((sample, expr, result.best))
            if check:
                sample.failure = check_values(name, expr, result.best, self.numpy, self.roles)
        for sample, expr, best in beside:
            exec_beside(sample, expr, best, self.numpy)
        for (name, variant), sample in zip(self.order, samples.values()):
            # The engines are warm now: the same request again is a pool hit.
            expr = build_pipeline(name, self.roles)
            sample.parts["pool_hit"], _ = timed(engines[variant].rewrite, expr)
        return samples

    def run_traced_pass(self, tracer: Tracer) -> None:
        decomposed, whole = self._sessions(tracer), self._sessions(tracer)
        engine = self._engines(tracer)["nv"]
        backends = {
            "numpy": self.numpy,
            "systemml_like": SystemMLLikeBackend(self.catalog),
            "morpheus": MorpheusBackend(self.catalog),
        }
        for name, variant in self.order:
            op = f"{name}/{variant}"
            result = trace_plan_op(
                self,
                tracer,
                op,
                lambda: build_pipeline(name, self.roles),
                decomposed[variant],
                whole[variant],
            )
            if self.execute_in_op:
                with tracer.span("service.execute", op):
                    engine.execute(result)
            trace_exec_op(tracer, op, result, backends)
        self.trace_extras(tracer)

    def trace_extras(self, tracer: Tracer) -> None:
        """Per-pass probes of this workload beyond its ops."""


class PlanCold(_PipelineWorkload):
    name = "plan_cold"
    golden_in_smoke = True

    def pipeline_ops(self) -> List[Op]:
        names = pipeline_names()
        return [(name, "nv") for name in names] + [(name, "vexp") for name in names]

    def trace_extras(self, tracer: Tracer) -> None:
        # The batch entry point over the same cold pipelines: what dedup and
        # thread fan-out cost on top of planning them one by one.
        engine = Engine(self.catalog)
        requests = [
            ServiceRequest(build_pipeline(name, self.roles), name=name, execute=False)
            for name, variant in self.order
            if variant == "nv"
        ]
        with tracer.span("service.submit_many", "nv-batch"):
            results = engine.submit_many(requests)
        if not all(result.ok for result in results):
            raise AssertionError("submit_many failed a request of the cold batch")


class ExecPayoff(_PipelineWorkload):
    name = "exec_payoff"
    scale = 0.04
    execute_in_op = True

    #: Left out: P2.17 has its own row in plan_cold, and here its ~0.3 s of
    #: chase would bury the execution times this workload exists to show;
    #: the determinants of the other four overflow float64 on the 400x400
    #: C/D of this scale, and the router refuses to serve a non-finite value.
    LEFT_OUT = frozenset({HEAVIEST, "P1.9", "P1.17", "P1.23", "P2.8"})

    def pipeline_ops(self) -> List[Op]:
        return [(name, "nv") for name in P_NO_OPT if name not in self.LEFT_OUT] + [
            (name, "vexp") for name in P_VIEWS if name not in self.LEFT_OUT
        ]
