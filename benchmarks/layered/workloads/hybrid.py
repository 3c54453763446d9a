"""``hybrid``: the micro-hybrid benchmark (paper figs 10-11) on two datasets.

Same planner and chase as the LA workloads, used differently: the Morpheus
factorisation constraints are on, the views (V3h-V5h) are defined over the
factor matrices, and the inputs come from relational joins and pivots.
Per dataset a pass rebuilds M and N through the RA engine (2 ops) and plans
Q1-Q10 cold then executes them (10 ops).
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro._compat import suppress_legacy_warnings
from repro.backends.base import values_allclose
from repro.backends.morpheus import MorpheusBackend
from repro.benchkit.harness import materialize_views
from repro.benchkit.hybrid_queries import hybrid_queries, hybrid_views
from repro.data.datasets import mimic_dataset, twitter_dataset
from repro.hybrid import HybridExecutor, HybridOptimizer
from repro.hybrid.query import HybridQuery
from repro.lang.builder import matrix
from repro.planner.session import PlanSession

from benchmarks.layered.tracer import Tracer
from benchmarks.layered.workloads.base import OpSample, Workload
from benchmarks.layered.workloads.la import (
    ATOL,
    RTOL,
    plan_counters,
    timed,
    trace_exec_op,
    trace_plan_op,
)

#: Dataset sizes: (full, smoke).  MIMIC is scaled below the generator's
#: default so its ten dense as-stated pipelines fit a ~0.5 s pass share.
DATASETS = {
    "twitter": (
        dict(n_tweets=20_000, n_hashtags=300, density=0.002),
        dict(n_tweets=2_000, n_hashtags=100, density=0.004),
    ),
    "mimic": (
        dict(n_patients=2_000, n_services=1_000, density=0.0016),
        dict(n_patients=500, n_services=200, density=0.004),
    ),
}
GENERATORS = {"twitter": twitter_dataset, "mimic": mimic_dataset}


class _Env:
    """One dataset's fixture: catalog, queries, executor, views, factors."""

    def __init__(self, kind: str, smoke: bool, tracer: Tracer):
        with tracer.span("data.catalog_build", kind):
            self.catalog, self.spec = GENERATORS[kind](**DATASETS[kind][smoke])
        self.kind = kind
        self.queries = self.fresh_queries()
        self.builders = self.queries[0].builders
        self.executor = HybridExecutor(self.catalog)
        for builder in self.builders:
            self.executor.build_matrix(builder)
        with tracer.span("hybrid.factor_materialize", kind):
            self.factors = self.optimizer().ensure_factor_matrices(self.queries[0])
        self.views = hybrid_views(self.catalog)
        materialize_views(self.views, self.catalog)

    def fresh_queries(self):
        """Q1-Q10 over newly built ASTs (no memoised fingerprints)."""
        return hybrid_queries(self.catalog, self.spec, dataset=self.kind)

    def optimizer(self, views=(), factors=None) -> HybridOptimizer:
        with suppress_legacy_warnings():
            return HybridOptimizer(self.catalog, la_views=views, factor_names=factors)

    def cold_optimizer(self) -> HybridOptimizer:
        """A fresh optimizer whose LA session is compiled but has planned
        nothing: the one-off constraint-program build stays outside the op
        timers, as the engine build does in the LA workloads."""
        optimizer = self.optimizer(self.views, self.factors)
        optimizer.rewrite(
            HybridQuery("prime", self.builders, matrix("AUX_un")), materialize_factors=False
        )
        return optimizer

    def session(self) -> PlanSession:
        """A plan session configured as ``HybridOptimizer`` configures its own."""
        return PlanSession(
            catalog=self.catalog,
            views=list(self.views),
            include_morpheus_rules=True,
            normalized_matrices=self.factors,
            max_rounds=4,
        )


class Hybrid(Workload):
    name = "hybrid"
    cold = True
    part_spans = {"find": "hybrid.rewrite"}

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        tracer = tracer or Tracer()
        self.envs = {kind: _Env(kind, self.smoke, tracer) for kind in DATASETS}
        #: (dataset, matrix builder | hybrid query); both carry a ``name``.
        self.order = self.rotated(
            [
                (kind, item)
                for kind, env in self.envs.items()
                for item in (*env.builders, *env.queries)
            ]
        )

    def run_pass(self, index: int, check: bool) -> Dict[str, OpSample]:
        optimizers = {kind: env.cold_optimizer() for kind, env in self.envs.items()}
        samples: Dict[str, OpSample] = {}
        for kind, item in self.order:
            env = self.envs[kind]
            if not isinstance(item, HybridQuery):
                seconds, data = timed(env.executor.build_matrix, item)
                samples[f"{kind}/{item.name}"] = OpSample(
                    seconds=seconds, counters={"ra.rows": float(data.meta.rows)}
                )
                continue
            start = time.perf_counter()
            rewrite = optimizers[kind].rewrite(item, materialize_factors=False)
            find = time.perf_counter() - start
            rw_exec, executed = timed(
                lambda: env.executor.execute(
                    item, analysis_override=rewrite.optimized_analysis, skip_builders=True
                )
            )
            result = rewrite.la_result
            sample = OpSample(
                seconds=find + rw_exec,
                parts={"find": find, "rw_exec": rw_exec},
                plan=result.best.to_string(),
                cache_hit=result.cache_hit,
                counters=plan_counters(result),
            )
            if self.beside(index):
                sample.parts["q_exec"], stated = timed(
                    env.executor.la_backend.evaluate, item.analysis
                )
                if check and not values_allclose(stated, executed.value, rtol=RTOL, atol=ATOL):
                    sample.failure = (
                        f"value of chosen plan {sample.plan} differs from the query as stated"
                    )
            samples[f"{kind}/{item.name}"] = sample
        return samples

    def run_traced_pass(self, tracer: Tracer) -> None:
        sessions, fresh, backends = {}, {}, {}
        for kind, env in self.envs.items():
            with tracer.span("constraints.program_build", kind):
                staged = env.session()
            sessions[kind] = (staged, env.session())
            # trace_plan_op builds each op's AST twice: two fresh sets.
            fresh[kind] = [{q.name: q.analysis for q in env.fresh_queries()} for _ in range(2)]
            backends[kind] = {
                "numpy": env.executor.la_backend,
                "morpheus": MorpheusBackend(env.catalog),
            }
        for kind, item in self.order:
            env = self.envs[kind]
            op = f"{kind}/{item.name}"
            if not isinstance(item, HybridQuery):
                with tracer.span("hybrid.ra_build", op):
                    env.executor.build_matrix(item)
                with tracer.span("backends.relational_build", op):
                    env.executor.relational.evaluate(item.relational_plan())
                continue
            asts = iter([analyses[item.name] for analyses in fresh[kind]])
            result = trace_plan_op(self, tracer, op, lambda: next(asts), *sessions[kind])
            trace_exec_op(tracer, op, result, backends[kind])
