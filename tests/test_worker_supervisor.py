"""Tests of the multi-process planner tier: ring, supervisor, chaos.

Three tiers live in this file:

* **Tier-1** (always run): the :class:`HashRing` consistent-hashing
  contract — determinism across instances, bounded key movement when the
  pool grows or shrinks, every workspace owned by exactly one live member
  — plus configuration validation and spawn-safety (picklability) of the
  worker engine factory.  Nothing here forks a process.
* **Chaos** (``-m chaos``, run by the dedicated CI job): spawn a real
  worker pool, SIGKILL a worker that holds requests (frozen first, so they
  are in flight by construction), and assert the supervisor's promises — respawn with the restart counter incremented, in-flight
  requests replayed to the new generation with byte-identical answers (or
  failed *cleanly* once the retry budget is spent), graceful drain leaving
  no processes behind, and registry version bumps invalidating the owning
  worker's warm runtime.
* **Slow** (``-m slow``): a healthy pool of 0 and 2 workers under a skewed
  load, through the gateway's planner seam — plans byte-identical to
  in-process planning, ring attribution, warm-cache stickiness.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchkit.datasets import ROLE_BINDINGS_DENSE
from repro.benchkit.harness import TenantEngineFactory
from repro.benchkit.pipelines import build_pipeline, default_roles
from repro.benchkit.views_vexp import build_vexp_views
from repro.config import ConfigError, GatewayConfig
from repro.planner import PlanSession
from repro.server import HashRing, SupervisorClosed, WorkerSupervisor
from repro.server.protocol import request_to_json, result_to_json
from repro.server.workers import _Worker
from repro.service import ServiceRequest

# ---------------------------------------------------------------------------
# HashRing: the sharding contract
# ---------------------------------------------------------------------------

KEYS = [f"tenant-{index:04d}" for index in range(2000)]


class TestHashRing:
    def test_empty_ring_cannot_route(self):
        with pytest.raises(ValueError, match="empty ring"):
            HashRing().route("anything")

    def test_replicas_must_be_positive(self):
        with pytest.raises(ValueError, match="replicas"):
            HashRing(replicas=0)

    def test_routing_is_deterministic_across_instances(self):
        # blake2b, not the per-process-seeded builtin hash(): two rings
        # built in different orders agree on every key, which is what lets
        # a restarted gateway land tenants back on their warm workers.
        first = HashRing([0, 1, 2, 3])
        second = HashRing([3, 1, 0, 2])
        assert first.nodes() == second.nodes() == (0, 1, 2, 3)
        assert [first.route(key) for key in KEYS] == [
            second.route(key) for key in KEYS
        ]

    def test_every_key_maps_to_exactly_one_live_member(self):
        ring = HashRing([0, 1, 2])
        for key in KEYS:
            assert ring.route(key) in ring.nodes()

    def test_add_and_remove_are_idempotent(self):
        ring = HashRing([0, 1])
        before = [ring.route(key) for key in KEYS[:100]]
        ring.add(1)
        ring.remove(7)
        assert [ring.route(key) for key in KEYS[:100]] == before

    def test_growing_the_pool_moves_at_most_a_bounded_fraction(self):
        # Adding the 5th worker should move ≈ 1/5 of the keyspace — and
        # *only* keys that now belong to the new worker.  The fraction is
        # deterministic (blake2b), so the bound is tight, not flaky.
        ring = HashRing(range(4))
        before = {key: ring.route(key) for key in KEYS}
        ring.add(4)
        moved = 0
        for key in KEYS:
            after = ring.route(key)
            if after != before[key]:
                assert after == 4, "a key moved to a pre-existing worker"
                moved += 1
        assert 0 < moved / len(KEYS) <= 0.35

    def test_removing_a_worker_moves_only_its_keys(self):
        ring = HashRing(range(4))
        before = {key: ring.route(key) for key in KEYS}
        ring.remove(2)
        for key in KEYS:
            after = ring.route(key)
            if before[key] == 2:
                assert after != 2
            else:
                assert after == before[key], "an unrelated key was resharded"

    @given(
        members=st.sets(st.integers(min_value=0, max_value=15), min_size=1),
        newcomer=st.integers(min_value=0, max_value=15),
    )
    @settings(max_examples=25, deadline=None)
    def test_rebalance_property(self, members, newcomer):
        # During and after any add: every key maps to exactly one member
        # of the current node set, and an add only pulls keys toward the
        # newcomer.
        ring = HashRing(sorted(members))
        sample = KEYS[:256]
        before = {key: ring.route(key) for key in sample}
        assert all(owner in members for owner in before.values())
        ring.add(newcomer)
        for key in sample:
            after = ring.route(key)
            assert after in ring.nodes()
            if after != before[key]:
                assert newcomer not in members and after == newcomer


# ---------------------------------------------------------------------------
# Configuration and spawn-safety (no processes)
# ---------------------------------------------------------------------------


class TestWorkerConfig:
    def test_negative_pool_sizes_are_rejected(self):
        with pytest.raises(ConfigError, match="planner_workers"):
            GatewayConfig(planner_workers=-1)
        with pytest.raises(ConfigError, match="worker_retry_budget"):
            GatewayConfig(worker_retry_budget=-1)
        with pytest.raises(ConfigError, match="worker_backoff_seconds"):
            GatewayConfig(worker_backoff_seconds=-0.5)

    def test_in_process_default_needs_no_factory(self):
        assert GatewayConfig().planner_workers == 0

    def test_gateway_with_workers_requires_a_factory(self, small_catalog):
        from repro.api import Engine

        engine = Engine(small_catalog)
        with pytest.raises(ConfigError, match="worker_factory"):
            engine.build_gateway(planner_workers=2)

    def test_supervisor_requires_at_least_one_worker(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerSupervisor(lambda: None, workers=0)

    def test_factory_crosses_the_spawn_boundary(self):
        # spawn re-imports and unpickles; a closure would fail here.
        factory = TenantEngineFactory(tenants=("a", "b"), scale=0.01)
        clone = pickle.loads(pickle.dumps(factory))
        assert clone == factory

    def test_assignments_cover_every_workspace_exactly_once(self):
        class Registry:
            def workspace_names(self):
                return tuple(f"t-{index}" for index in range(12))

        supervisor = WorkerSupervisor(
            lambda: None, workers=4, workspaces=Registry()
        )
        assignments = supervisor.assignments()
        assert sorted(assignments) == sorted(Registry().workspace_names())
        assert set(assignments.values()) <= set(range(4))
        # Pure function of (name, pool size): resolving twice agrees.
        assert assignments == supervisor.assignments()


class TestWorkerBundle:
    @pytest.mark.xfail(
        strict=True,
        reason="invalidate drops the worker's runtime, which it then rebuilds "
        "from its own factory-built registry, still at the superseded bundle",
    )
    def test_invalidate_after_an_update_reaches_the_parents_bundle(self):
        factory = TenantEngineFactory(tenants=("a",), scale=0.01)
        parent, worker = factory(), _Worker(factory(), worker_id=0)
        views = build_vexp_views(default_roles(ROLE_BINDINGS_DENSE))
        parent.workspaces.update("a", views=views)
        # A wholesale update leaves no delta chain: the supervisor would
        # send the owning worker an invalidate.
        assert parent.delta_chain("a", 1, 2) is None
        worker.handle(("invalidate", "a"))
        theirs, mine = parent.workspaces.get("a"), worker.engine.workspaces.get("a")
        assert (mine.version, len(mine.views)) == (theirs.version, len(theirs.views))


# ---------------------------------------------------------------------------
# Chaos: real processes, real SIGKILL
# ---------------------------------------------------------------------------

CHAOS_TENANTS = tuple(f"tenant-{index:02d}" for index in range(6))
CHAOS_FACTORY = TenantEngineFactory(tenants=CHAOS_TENANTS, scale=0.01)


def _chase_bound_body(tenant: str) -> dict:
    """A cold plan of P2.17, the heaviest request there is (tens of ms)."""
    roles = default_roles(ROLE_BINDINGS_DENSE)
    body = request_to_json(
        ServiceRequest(expression=build_pipeline("P2.17", roles), execute=False)
    )
    body["workspace"] = tenant
    return body


async def _kill_with_requests_in_flight(supervisor, worker_id, tenants, start_requests):
    """SIGKILL ``worker_id`` while every request of ``tenants`` it owns is in
    flight — by construction, not by racing a plan's duration: the worker is
    frozen (SIGSTOP) before ``start_requests()`` submits anything, so nothing
    it is sent can be answered before the kill.  Returns the started tasks."""
    pid = supervisor.worker_pid(worker_id)
    owed = sum(supervisor.route(tenant) == worker_id for tenant in tenants)
    assert owed >= 1
    os.kill(pid, signal.SIGSTOP)
    try:
        tasks = start_requests()
        deadline = time.monotonic() + 10.0
        while supervisor.describe()["workers"][worker_id]["in_flight"] < owed:
            assert time.monotonic() < deadline, "requests never reached the frozen worker"
            await asyncio.sleep(0.01)
    finally:
        os.kill(pid, signal.SIGKILL)
    return tasks


def _expected_plan() -> str:
    engine = CHAOS_FACTORY()
    handle = engine.workspace(CHAOS_TENANTS[0])
    roles = default_roles(ROLE_BINDINGS_DENSE)
    request = ServiceRequest(
        expression=build_pipeline("P2.17", roles), execute=False
    )
    result = handle.service.submit_many([request], workers=1)[0]
    return result_to_json(result)["plan"]


@pytest.mark.chaos
class TestSupervisorChaos:
    def test_sigkill_mid_flight_respawns_and_replays(self):
        supervisor = WorkerSupervisor(
            CHAOS_FACTORY, workers=2, retry_budget=2, backoff_seconds=0.01
        )
        supervisor.start()
        try:
            victim = supervisor.route(CHAOS_TENANTS[0])
            doomed_pid = supervisor.worker_pid(victim)

            async def storm():
                tasks = await _kill_with_requests_in_flight(
                    supervisor,
                    victim,
                    CHAOS_TENANTS,
                    lambda: [
                        asyncio.ensure_future(
                            supervisor.submit(tenant, _chase_bound_body(tenant))
                        )
                        for tenant in CHAOS_TENANTS
                    ],
                )
                return await asyncio.gather(*tasks)

            envelopes = asyncio.run(storm())
            # Every request answered — the victim's in-flight work was
            # replayed to the respawned generation, nothing lost or wrong.
            assert all(envelope["ok"] for envelope in envelopes)
            expected = _expected_plan()
            assert all(
                envelope["payload"]["plan"] == expected for envelope in envelopes
            )
            assert supervisor.restarts_total >= 1
            counters = supervisor.metrics.as_dict()["counters"]
            label = f'repro_worker_restarts_total{{worker="{victim}"}}'
            assert counters[label] >= 1
            # The respawned slot carries a fresh pid and still serves.
            assert supervisor.worker_pid(victim) != doomed_pid
        finally:
            supervisor.stop()

    def test_retry_budget_exhausted_fails_cleanly_then_recovers(self):
        supervisor = WorkerSupervisor(
            CHAOS_FACTORY, workers=1, retry_budget=0, backoff_seconds=0.01
        )
        supervisor.start()
        try:

            async def storm():
                tasks = await _kill_with_requests_in_flight(
                    supervisor,
                    0,
                    CHAOS_TENANTS[:3],
                    lambda: [
                        asyncio.ensure_future(
                            supervisor.submit(tenant, _chase_bound_body(tenant))
                        )
                        for tenant in CHAOS_TENANTS[:3]
                    ],
                )
                crashed = await asyncio.gather(*tasks)
                # The pool already respawned: the next request succeeds.
                recovered = await supervisor.submit(
                    CHAOS_TENANTS[0], _chase_bound_body(CHAOS_TENANTS[0])
                )
                return crashed, recovered

            crashed, recovered = asyncio.run(storm())
            assert all(not envelope["ok"] for envelope in crashed)
            assert all(
                envelope["kind"] == "worker_crashed" for envelope in crashed
            )
            assert recovered["ok"]
            assert recovered["payload"]["plan"] == _expected_plan()
        finally:
            supervisor.stop()

    def test_gateway_end_to_end_chaos(self):
        from repro.server import GatewayClient, parse_prometheus

        engine = CHAOS_FACTORY()
        roles = default_roles(ROLE_BINDINGS_DENSE)
        expression = build_pipeline("P2.17", roles)

        async def main():
            gateway = engine.build_gateway(
                worker_factory=CHAOS_FACTORY,
                host="127.0.0.1",
                planner_workers=2,
                worker_backoff_seconds=0.01,
            )
            await gateway.start()
            try:
                supervisor = gateway.supervisor
                victim = supervisor.route(CHAOS_TENANTS[0])

                async def one(tenant):
                    async with GatewayClient("127.0.0.1", gateway.port) as client:
                        return await client.submit(
                            expression, workspace=tenant, raise_on_error=False
                        )

                tasks = await _kill_with_requests_in_flight(
                    supervisor,
                    victim,
                    CHAOS_TENANTS,
                    lambda: [
                        asyncio.ensure_future(one(tenant)) for tenant in CHAOS_TENANTS
                    ],
                )
                payloads = await asyncio.gather(*tasks)
                async with GatewayClient("127.0.0.1", gateway.port) as client:
                    exposition = await client.metrics_text()
                return payloads, exposition
            finally:
                await gateway.stop()

        payloads, exposition = asyncio.run(main())
        expected = _expected_plan()
        # Default retry budget (2) absorbs a single crash: every tenant
        # still gets the right plan from its own shard.
        assert len(payloads) == len(CHAOS_TENANTS)
        assert all(payload["plan"] == expected for payload in payloads)
        restarts = sum(
            value
            for name, value in parse_prometheus(exposition).items()
            if name.startswith("repro_worker_restarts_total")
        )
        assert restarts >= 1

    def test_drain_leaves_no_processes_behind(self):
        supervisor = WorkerSupervisor(CHAOS_FACTORY, workers=2)
        supervisor.start()
        pids = [supervisor.worker_pid(index) for index in range(2)]
        assert all(pid is not None for pid in pids)
        supervisor.stop()
        deadline = time.monotonic() + 10.0
        live = set(pids)
        while live and time.monotonic() < deadline:
            for pid in list(live):
                try:
                    os.kill(pid, 0)
                except OSError:
                    live.discard(pid)
            time.sleep(0.05)
        assert not live, f"worker processes survived drain: {sorted(live)}"
        with pytest.raises(SupervisorClosed):
            asyncio.run(supervisor.submit(CHAOS_TENANTS[0], {}))

    def test_registry_version_bump_invalidates_the_owning_worker(self):
        parent = CHAOS_FACTORY()
        supervisor = WorkerSupervisor(
            CHAOS_FACTORY,
            workers=1,
            workspaces=parent,
            health_interval_seconds=0.05,
        )
        supervisor.start()
        try:
            tenant = CHAOS_TENANTS[0]

            async def warm_then_bump():
                envelope = await supervisor.submit(
                    tenant, _chase_bound_body(tenant)
                )
                assert envelope["ok"]
                warm = await supervisor.introspect(0)
                assert tenant in warm["warm_runtimes"]
                # Parent-side version bump: the health thread notices and
                # tells the owning worker to drop its stale runtime.
                parent.workspaces.update(
                    tenant, catalog=parent.workspaces.get(tenant).catalog
                )
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    probe = await supervisor.introspect(0)
                    if tenant not in probe["warm_runtimes"]:
                        return probe
                    await asyncio.sleep(0.05)
                return probe

            probe = asyncio.run(warm_then_bump())
            assert tenant not in probe["warm_runtimes"]
        finally:
            supervisor.stop()

    def test_catalog_delta_keeps_owning_worker_warm(self):
        """A registry change that came through ``apply_delta`` is forwarded
        as the wire-format delta chain, not a blunt invalidate: the owning
        worker's runtime stays warm and an untouched plan keeps serving
        from its cache."""
        from repro.catalog.delta import CatalogDelta, ReStat

        parent = CHAOS_FACTORY()
        supervisor = WorkerSupervisor(
            CHAOS_FACTORY,
            workers=1,
            workspaces=parent,
            health_interval_seconds=0.05,
        )
        supervisor.start()
        try:
            tenant = CHAOS_TENANTS[0]
            roles = default_roles(ROLE_BINDINGS_DENSE)
            expression = build_pipeline("P2.17", roles)
            footprint = parent.workspace(tenant).rewrite(expression).footprint
            catalog = parent.workspaces.get(tenant).catalog
            untouched = sorted(
                set(ROLE_BINDINGS_DENSE.values()) - footprint.relations
            )[0]
            meta = catalog.meta(untouched)
            delta = CatalogDelta(
                (ReStat(name=untouched, nnz=min(5, meta.rows * meta.cols)),)
            )

            async def drive():
                envelope = await supervisor.submit(
                    tenant, _chase_bound_body(tenant)
                )
                assert envelope["ok"]

                report = parent.apply_delta(tenant, delta)
                assert report.plans_kept_warm >= 1
                target = parent.workspaces.get(tenant).version
                deadline = time.monotonic() + 5.0
                while (
                    supervisor._known_versions.get(tenant) != target
                    and time.monotonic() < deadline
                ):
                    await asyncio.sleep(0.05)
                assert supervisor._known_versions.get(tenant) == target

                probe = await supervisor.introspect(0)
                follow_up = await supervisor.submit(
                    tenant, _chase_bound_body(tenant)
                )
                return probe, follow_up

            probe, follow_up = asyncio.run(drive())
            assert tenant in probe["warm_runtimes"]
            assert follow_up["ok"] and follow_up["payload"]["cache_hit"]
        finally:
            supervisor.stop()


# ---------------------------------------------------------------------------
# Worker pool vs in-process planning, through the planner seam
# ---------------------------------------------------------------------------

#: Tenants that send four times the other tenants' load.
HOT_TENANTS = CHAOS_TENANTS[:2]


@pytest.mark.slow
@pytest.mark.parametrize("workers", [0, 2])
def test_worker_pool_plans_like_in_process(workers):
    """The worker tier only moves *where* planning runs.  Under a skewed
    cold load (two hot tenants send four rounds of the chase-bound pair,
    the others one) and then one more round from every tenant: every answer
    is byte-identical to a serial in-process plan and comes from the worker
    the ring assigns its tenant, nothing is lost, no worker respawns, and
    the hot tenants' repeat rounds and the last round are all cache hits."""
    roles = default_roles(ROLE_BINDINGS_DENSE)
    requests = [
        ServiceRequest(expression=build_pipeline(name, roles), name=name, execute=False)
        for name in ("P2.17", "P2.21")
    ]
    engine = CHAOS_FACTORY()
    bundle = engine.workspaces.get(CHAOS_TENANTS[0])  # every tenant has this bundle
    serial = PlanSession(catalog=bundle.catalog, config=bundle.config)
    expected = {
        request.name: serial.rewrite(request.expression).best.to_string() for request in requests
    }

    async def main():
        gateway = engine.build_gateway(
            worker_factory=CHAOS_FACTORY if workers else None,
            planner_workers=workers,
        )
        planner = gateway.planner
        await planner.open()
        try:

            async def rounds(tenant, count):
                return [
                    (tenant, turn, await planner.submit(tenant, request))
                    for turn in range(count)
                    for request in requests
                ]

            async def phase(load):
                answers = await asyncio.gather(*[rounds(t, n) for t, n in load.items()])
                return [answer for per_tenant in answers for answer in per_tenant]

            skewed = await phase({t: 4 if t in HOT_TENANTS else 1 for t in CHAOS_TENANTS})
            last = await phase({t: 1 for t in CHAOS_TENANTS})
            restarts = gateway.supervisor.restarts_total if workers else 0
            return skewed, last, restarts
        finally:
            await planner.close()

    skewed, last, restarts = asyncio.run(main())
    light = len(CHAOS_TENANTS) - len(HOT_TENANTS)
    assert len(skewed) == len(requests) * (4 * len(HOT_TENANTS) + light)
    assert len(last) == len(requests) * len(CHAOS_TENANTS)
    assert restarts == 0
    ring = HashRing(range(workers)) if workers else None
    for answers, warm in ((skewed, False), (last, True)):
        for tenant, turn, envelope in answers:
            assert envelope["ok"], envelope
            payload = envelope["payload"]
            assert payload["plan"] == expected[payload["name"]], (tenant, payload["name"])
            assert envelope.get("worker") == (ring.route(tenant) if ring else None)
            assert payload["cache_hit"] == (warm or turn > 0), (tenant, turn)
