"""One plan session, many planning threads.

A workspace pool plans every miss on one shared :class:`PlanSession`.  That
is sound only because a session is frozen once built and each rewrite keeps
its mutable state in its own ``PlanContext`` / ``VremInstance``.  These
tests check the consequence directly: the 57 benchkit pipelines, without
views and under V_exp, planned by several threads on one session give the
plans, costs, alternatives and chase counters the serial run gives.
"""

import dataclasses
import sys
import threading

import pytest

from repro.benchkit.datasets import ROLE_BINDINGS_DENSE, benchmark_catalog
from repro.benchkit.pipelines import build_pipeline, default_roles, pipeline_names
from repro.benchkit.views_vexp import build_vexp_views
from repro.planner import PlanSession

THREADS = 4


def _signature(result):
    """Everything a plan reports except wall-clock time."""
    counters = dataclasses.asdict(result.saturation)
    counters.pop("elapsed_seconds")
    return (
        result.best.to_string(),
        result.original_cost,
        result.best_cost,
        [(expr.to_string(), cost) for expr, cost in result.alternatives],
        result.used_views,
        counters,
    )


@pytest.fixture(scope="module")
def benchkit():
    roles = default_roles(ROLE_BINDINGS_DENSE)
    pipelines = [(name, build_pipeline(name, roles)) for name in pipeline_names()]
    assert len(pipelines) == 57
    return benchmark_catalog(scale=0.01), roles, pipelines


@pytest.mark.parametrize("variant", ["nv", "vexp"])
def test_concurrent_plans_on_one_session_equal_serial(benchkit, variant):
    catalog, roles, pipelines = benchkit
    views = build_vexp_views(roles) if variant == "vexp" else ()
    reference = PlanSession(catalog, views=views)
    serial = {name: _signature(reference.plan(expr)) for name, expr in pipelines}

    shared = PlanSession(catalog, views=views)
    barrier = threading.Barrier(THREADS)
    got = [dict() for _ in range(THREADS)]
    errors = []

    def worker(slot):
        try:
            barrier.wait()
            # Each thread walks the pipelines from its own offset, so the
            # same pipeline is planned by different threads at once.
            for i in range(len(pipelines)):
                name, expr = pipelines[(i + slot * 7) % len(pipelines)]
                got[slot][name] = _signature(shared.plan(expr))
        except Exception as exc:  # pragma: no cover - surfaced by the assert
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(thread.is_alive() for thread in threads)
    for slot in range(THREADS):
        for name, _ in pipelines:
            assert got[slot][name] == serial[name], (slot, name)
