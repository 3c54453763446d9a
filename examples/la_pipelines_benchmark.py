"""Run a slice of the paper's LA benchmark (Tables 2/3) end to end.

For a handful of P¬Opt pipelines this example prints, per pipeline, the
execution time as stated (Q_exec), HADAD's rewriting time (RW_find), the
execution time of the rewriting (RW_exec) and the speed-up — the same
quantities as Figures 5, 6 and 8 of the paper — on both the plain NumPy
backend and the SystemML-like backend.  Planning goes through one
:class:`repro.api.Engine` (one shared session, shared plan cache); the two
backend instances come from the engine's capability-declaring registry.

Run with:  python examples/la_pipelines_benchmark.py
(set REPRO_SMOKE=1 for the CI-sized catalog)
"""

import os

from repro.api import Engine
from repro.benchkit.datasets import ROLE_BINDINGS_DENSE, benchmark_catalog
from repro.benchkit.harness import print_report, run_pipeline
from repro.benchkit.pipelines import build_pipeline, default_roles
from repro.cost import MNCEstimator

SMOKE = os.environ.get("REPRO_SMOKE") == "1"

PIPELINES_TO_RUN = (
    ["P1.1", "P1.3", "P2.10"]
    if SMOKE
    else ["P1.1", "P1.3", "P1.4", "P1.13", "P1.15", "P2.10", "P2.11", "P2.25"]
)


def main() -> None:
    catalog = benchmark_catalog(scale=0.002 if SMOKE else 0.01)
    roles = default_roles(ROLE_BINDINGS_DENSE)
    engine = Engine(catalog, estimator=MNCEstimator())

    for backend_name in ("numpy", "systemml_like"):
        backend = engine.router.backends[backend_name]
        runs = [
            run_pipeline(name, build_pipeline(name, roles), engine, backend)
            for name in PIPELINES_TO_RUN
        ]
        print(print_report(f"backend = {backend.name}", runs))
        print()


if __name__ == "__main__":
    main()
