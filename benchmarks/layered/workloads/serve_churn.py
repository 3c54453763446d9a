"""``serve_churn``: plan reads beside catalog-delta writes, over the gateway.

Two tenants, one keep-alive connection each, closed loop, against an
in-process gateway from ``Engine.serve()`` with the default config (no
planner worker processes, 5 ms batch window).  Each tenant's script sends
the 57 pipelines to ``/v1/plan`` with a single-relation ``ReStat`` posted
to ``/v1/workspaces/<t>/delta`` before every 4th request.  Every pass
starts with all plans warm and all statistics at their base values, so a
read is a miss exactly when an earlier delta of the same pass touched its
plan's footprint: warm hits cost the wire, the codec and the batcher, and
misses re-plan through the batcher.  The untimed epilogue of a pass times
the as-stated and the chosen pipelines for ``payoff_x``, undoes the
deltas and re-warms every plan.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, List, Optional, Tuple

from repro.api import Engine
from repro.api.workspace import WorkspaceRegistry
from repro.backends.numpy_backend import NumpyBackend
from repro.benchkit.datasets import ROLE_BINDINGS_DENSE, benchmark_catalog
from repro.benchkit.pipelines import build_pipeline, default_roles, pipeline_names
from repro.catalog.delta import CatalogDelta, ReStat
from repro.config import PlannerConfig
from repro.planner.session import PlanSession
from repro.server.client import GatewayClient, parse_prometheus
from repro.server.protocol import parse_plan_request, request_to_json, result_to_json
from repro.service.service import ServiceRequest, ServiceResult

from benchmarks.layered.tracer import Tracer
from benchmarks.layered.workloads.base import OpSample, Workload
from benchmarks.layered.workloads.la import check_values, exec_beside, trace_plan_op

TENANTS = ("tenant-a", "tenant-b")

#: Relations the deltas re-stat, in script order.  The square C/D matrices
#: are left alone so the ~0.3 s P2.17 is never evicted: one such re-plan
#: would be a third of the pass and hide every other op.
DELTA_RELATIONS = ("Syn7", "AL3", "Syn3", "Syn9", "AL1", "Syn8", "Syn10")

#: A delta is posted before every 4th plan request.
READS_PER_DELTA = 4

Step = Tuple[str, str, Optional[CatalogDelta]]  # (op id, pipeline | relation, delta)


class ServeChurn(Workload):
    name = "serve_churn"
    clients = len(TENANTS)
    part_spans = {"q_exec": "backends.numpy_q_exec", "rw_exec": "backends.numpy_rw_exec"}

    # ------------------------------------------------------------------ fixture
    def setup(self, tracer: Optional[Tracer] = None) -> None:
        tracer = tracer or Tracer()
        self.loop = asyncio.new_event_loop()
        registry = WorkspaceRegistry()
        self.catalogs = {}
        for tenant in TENANTS:
            with tracer.span("data.catalog_build", tenant):
                self.catalogs[tenant] = benchmark_catalog(scale=0.01)
            registry.register(tenant, catalog=self.catalogs[tenant])
        with tracer.span("api.engine_build", "registry"):
            self.engine = Engine(workspaces=registry)
        self.gateway = self.loop.run_until_complete(self.engine.serve())
        self.connections = {
            tenant: self.loop.run_until_complete(
                GatewayClient("127.0.0.1", self.gateway.port).connect()
            )
            for tenant in TENANTS
        }
        roles = default_roles(ROLE_BINDINGS_DENSE)
        names = pipeline_names()[:14] if self.smoke else pipeline_names()
        self.exprs = {name: build_pipeline(name, roles) for name in names}
        self.roles = roles
        self.numpy = {tenant: NumpyBackend(self.catalogs[tenant]) for tenant in TENANTS}
        self.base_nnz = {
            name: self.catalogs[TENANTS[0]].meta(name).nnz for name in DELTA_RELATIONS
        }
        self.scripts = {tenant: self._script(tenant, names) for tenant in TENANTS}
        #: Served plan string -> the plan's expression, learnt in the check
        #: pass from the in-process cache entry the gateway answered from.
        self.served_plans: Dict[Tuple[str, str], object] = {}
        self.scratch_catalog = None
        self._rewarm()

    def _script(self, tenant: str, names: List[str]) -> List[Step]:
        """One tenant's pass: the pipelines in table order, a delta before
        every 4th.  The seed does not reorder it: the order *is* the state
        (which reads miss, and which miss pays for the plan session a delta
        retired), so another order would be another workload."""
        steps: List[Step] = []
        for position, name in enumerate(names, start=1):
            if position % READS_PER_DELTA == 0:
                index = position // READS_PER_DELTA
                relation = DELTA_RELATIONS[(index - 1) % len(DELTA_RELATIONS)]
                base = self.base_nnz[relation]
                delta = CatalogDelta((ReStat(name=relation, nnz=base - base // (7 + index)),))
                steps.append((f"{tenant}/delta{index:02d}", relation, delta))
            steps.append((f"{tenant}/{name}", name, None))
        return steps

    def _rewarm(self, tracer: Optional[Tracer] = None) -> None:
        """Back to the state every pass starts from: base statistics, every
        plan in the tenant's shared cache."""
        tracer = tracer or Tracer()
        for tenant in TENANTS:
            catalog = self.catalogs[tenant]
            for relation, nnz in self.base_nnz.items():
                if catalog.meta(relation).nnz != nnz:
                    undo = CatalogDelta((ReStat(name=relation, nnz=nnz),))
                    with tracer.span("service.apply_delta", f"{tenant}/undo-{relation}"):
                        self.engine.apply_delta(tenant, undo)
            handle = self.engine.workspace(tenant)
            for expr in self.exprs.values():
                handle.rewrite(expr)

    def teardown(self) -> None:
        for connection in self.connections.values():
            self.loop.run_until_complete(connection.close())
        self.loop.run_until_complete(self.gateway.stop())
        self.loop.close()

    # ------------------------------------------------------------------ ops
    async def _delta(self, tenant: str, delta: CatalogDelta) -> OpSample:
        start = time.perf_counter()
        status, report = await self.connections[tenant].request(
            "POST", f"/v1/workspaces/{tenant}/delta", delta.to_json()
        )
        sample = OpSample(seconds=time.perf_counter() - start)
        if status != 200:
            sample.failure = f"delta answered {status}: {report}"
        else:
            sample.counters = {
                "service.plans_kept_warm": float(report["plans_kept_warm"]),
                "service.plans_revalidated": float(report["plans_revalidated"]),
            }
        return sample

    async def _read(self, tenant: str, name: str) -> OpSample:
        start = time.perf_counter()
        response = await self.connections[tenant].plan(
            self.exprs[name], name=name, workspace=tenant, raise_on_error=False
        )
        seconds = time.perf_counter() - start
        sample = OpSample(seconds=seconds, parts={"find": seconds})
        if response.get("status", 200) != 200 or response.get("failures"):
            sample.failure = f"plan request failed: {response}"
            return sample
        sample.plan = response["plan"]
        sample.cache_hit = response["cache_hit"]
        sample.counters = {
            "cost.original": float(response["original_cost"]),
            "cost.best": float(response["best_cost"]),
            "planner.changed_plans": float(response["changed"]),
        }
        return sample

    def _learn_plan(self, tenant: str, name: str, sample: OpSample) -> None:
        """Check pass: fetch the expression behind the served plan string
        from the in-process cache (a hit on the entry just served) and
        verify its value against the pipeline as stated."""
        cached = self.engine.workspace(tenant).rewrite(self.exprs[name])
        if not cached.cache_hit or cached.best.to_string() != sample.plan:
            sample.failure = (
                f"gateway served {sample.plan!r} but the tenant's cache holds "
                f"{cached.best.to_string()!r} (hit={cached.cache_hit})"
            )
            return
        self.served_plans[(tenant, sample.plan)] = cached.best
        sample.failure = check_values(
            name, self.exprs[name], cached.best, self.numpy[tenant], self.roles
        )

    async def _client(self, tenant: str, check: bool, samples: Dict[str, OpSample]) -> None:
        for op, target, delta in self.scripts[tenant]:
            if delta is not None:
                samples[op] = await self._delta(tenant, delta)
                continue
            samples[op] = sample = await self._read(tenant, target)
            if check and sample.failure is None:
                self._learn_plan(tenant, target, sample)

    # ------------------------------------------------------------------ passes
    def run_pass(self, index: int, check: bool) -> Dict[str, OpSample]:
        samples: Dict[str, OpSample] = {}

        async def all_clients() -> None:
            await asyncio.gather(*[self._client(tenant, check, samples) for tenant in TENANTS])

        self.loop.run_until_complete(all_clients())
        for tenant in TENANTS:
            for op, name, delta in self.scripts[tenant]:
                sample = samples[op]
                if delta is not None or sample.failure is not None:
                    continue
                best = self.served_plans.get((tenant, sample.plan))
                if best is None:
                    sample.failure = f"served plan {sample.plan!r} was never served in the check pass"
                else:
                    exec_beside(sample, self.exprs[name], best, self.numpy[tenant])
        self._rewarm()
        return samples

    def run_traced_pass(self, tracer: Tracer) -> None:
        # One tenant at a time: two interleaved coroutines would nest their
        # spans under each other.
        for tenant in TENANTS:
            self.loop.run_until_complete(self._traced_client(tenant, tracer))
        self._rewarm(tracer)

    async def _traced_client(self, tenant: str, tracer: Tracer) -> None:
        if self.scratch_catalog is None:
            self.scratch_catalog = benchmark_catalog(scale=0.01)
        connection = self.connections[tenant]
        handle = self.engine.workspace(tenant)
        with tracer.span("constraints.program_build", tenant):
            decomposed = PlanSession(catalog=self.catalogs[tenant], config=PlannerConfig())
        whole = PlanSession(catalog=self.catalogs[tenant], config=PlannerConfig())
        for op, target, delta in self.scripts[tenant]:
            if delta is not None:
                with tracer.span("server.delta_request", op):
                    await self._delta(tenant, delta)
                with tracer.span("catalog.delta_wire", op):
                    CatalogDelta.from_json(json.loads(json.dumps(delta.to_json())))
                with tracer.span("catalog.delta_apply", op):
                    self.scratch_catalog.apply_delta(delta)
                continue
            expr = self.exprs[target]
            with tracer.span("server.http_roundtrip", op):
                await connection.health()
            span = tracer.span("server.plan_warm", op)
            with span:
                sample = await self._read(tenant, target)
            if not sample.cache_hit:
                span.name = "server.plan_miss"
            with tracer.span("service.pool_plan_warm", op):
                cached = handle.rewrite(expr)
            with tracer.span("server.codec", op):
                request = ServiceRequest(expr, name=target, execute=False, workspace=tenant)
                wire = json.dumps(request_to_json(request)).encode("utf-8")
                parsed = parse_plan_request(json.loads(wire))
                json.dumps(result_to_json(ServiceResult(request=parsed, rewrite=cached)))
            if not sample.cache_hit:
                roles = self.roles
                trace_plan_op(
                    self, tracer, op, lambda: build_pipeline(target, roles), decomposed, whole
                )

    def extra_counts(self) -> Dict[str, float]:
        text = self.loop.run_until_complete(self.connections[TENANTS[0]].metrics_text())
        series = parse_prometheus(text)
        total = sum(v for k, v in series.items() if k.startswith("service_batch_size_sum"))
        batches = sum(v for k, v in series.items() if k.startswith("service_batch_size_count"))
        return {"server.batched_requests": total, "server.batches": batches}
