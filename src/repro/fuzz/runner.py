"""The fixed-budget fuzz sweep: generate → plan → check → shrink → persist.

One :func:`run_fuzz` call is one CI sweep: a fixed expression budget spread
over several synthetic catalogs (fresh dimensions, density and view set per
batch, all derived from the master seed), every expression pushed through
the :class:`~repro.fuzz.oracle.DifferentialOracle`, every violation shrunk
to a locally minimal repro and written to the output directory in the
corpus format.  The returned summary is JSON-printable and carries the
exact command reproducing the sweep locally — CI prints it on failure, so
a red fuzz job is always one copy-paste away from a local repro.

Determinism: per-batch and per-expression RNGs are spawned from the master
seed with :func:`~repro.fuzz.generator.spawn_rng`, so case ``N`` of batch
``B`` is the same expression regardless of how many prior cases were
violations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.benchkit.harness import materialize_views
from repro.lang import matrix_expr as mx

from repro.fuzz.corpus import CorpusCase, save_case
from repro.fuzz.generator import (
    CatalogInventory,
    CatalogSpec,
    ExpressionGenerator,
    generate_catalog,
    spawn_rng,
)
from repro.fuzz.oracle import DifferentialOracle, OracleReport
from repro.fuzz.shrinker import shrink

#: Dimension pool batches draw their catalog axes from.  Small on purpose:
#: the oracle executes every expression on three backends, and equivalence
#: bugs are size-independent.
DIM_POOL = (2, 3, 4, 5, 6, 8)
DENSITY_POOL = (0.2, 0.3, 0.5)


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of one sweep; defaults match the CI job."""

    budget: int = 300
    seed: int = 20260808
    expressions_per_catalog: int = 25
    n_views: int = 2
    max_depth: int = 5
    estimator: str = "mnc"
    shrink: bool = True
    out_dir: Optional[Path] = None


@dataclass
class FuzzOutcome:
    """Everything one sweep produced."""

    config: FuzzConfig
    checked: int = 0
    skipped: int = 0
    cases: List[CorpusCase] = field(default_factory=list)
    saved_paths: List[Path] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def violations(self) -> int:
        return len(self.cases)

    def summary(self) -> dict:
        return {
            "benchmark": "fuzz_sweep",
            "seed": self.config.seed,
            "budget": self.config.budget,
            "estimator": self.config.estimator,
            "checked": self.checked,
            "skipped": self.skipped,
            "violations": self.violations,
            "cases": [str(path) for path in self.saved_paths],
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "repro_command": (
                f"python -m repro.fuzz --budget {self.config.budget} "
                f"--seed {self.config.seed} --estimator {self.config.estimator}"
            ),
            "acceptance": {
                "budget_exhausted": self.checked + self.skipped >= self.config.budget,
                "no_violations": self.violations == 0,
            },
        }


def _batch_spec(master_seed: int, batch: int) -> CatalogSpec:
    rng = spawn_rng(master_seed, batch, 0)
    dims = tuple(
        sorted(rng.choice(len(DIM_POOL), size=3, replace=False).tolist())
    )
    return CatalogSpec(
        seed=int(rng.integers(0, 2**31)),
        dims=tuple(DIM_POOL[i] for i in dims),
        sparse_density=float(DENSITY_POOL[int(rng.integers(0, len(DENSITY_POOL)))]),
    )


def _leaf_factory(inventory: CatalogInventory):
    """Deterministic shape→leaf replacement used by the shrinker."""

    def factory(shape):
        if shape == (1, 1):
            return mx.ScalarConst(0.75)
        names = inventory.by_shape.get(shape)
        if names:
            return mx.MatrixRef(sorted(names)[0])
        if shape[0] == shape[1]:
            return mx.Identity(shape[0])
        return None

    return factory


def _minimize(
    oracle: DifferentialOracle,
    inventory: CatalogInventory,
    report: OracleReport,
    do_shrink: bool,
) -> mx.Expr:
    if not do_shrink:
        return report.expr

    def still_fails(candidate: mx.Expr) -> bool:
        return bool(oracle.check(candidate).violations)

    return shrink(
        report.expr,
        still_fails,
        oracle.catalog,
        leaf_factory=_leaf_factory(inventory),
        max_steps=40,
    )


def run_fuzz(config: FuzzConfig) -> FuzzOutcome:
    """Run one fixed-budget sweep; see the module docstring."""
    outcome = FuzzOutcome(config=config)
    started = time.perf_counter()
    batch = 0
    remaining = config.budget
    while remaining > 0:
        spec = _batch_spec(config.seed, batch)
        catalog, inventory = generate_catalog(spec)
        view_generator = ExpressionGenerator(
            inventory, spawn_rng(config.seed, batch, 1), max_depth=3
        )
        views = view_generator.generate_views(config.n_views)
        materialize_views(views, catalog)
        oracle = DifferentialOracle(catalog, views=views, estimator_name=config.estimator)

        for index in range(min(config.expressions_per_catalog, remaining)):
            generator = ExpressionGenerator(
                inventory, spawn_rng(config.seed, batch, 2, index), max_depth=config.max_depth
            )
            expr = generator.generate()
            report = oracle.check(expr)
            if report.error is not None:
                # The *reference* evaluation was unusable (non-finite /
                # unexecutable) — nothing to compare against, not a finding.
                outcome.skipped += 1
                continue
            outcome.checked += 1
            if report.violations:
                minimized = _minimize(oracle, inventory, report, config.shrink)
                final_report = (
                    report if minimized is report.expr else oracle.check(minimized)
                )
                case = CorpusCase(
                    case_id=f"fuzz-{config.seed}-b{batch:03d}-e{index:03d}",
                    expr=minimized,
                    catalog_spec=spec,
                    views=tuple(views),
                    seed=config.seed,
                    estimator=config.estimator,
                    violations=tuple(final_report.violations or report.violations),
                    notes=f"found by run_fuzz(seed={config.seed}) batch={batch} index={index}",
                )
                outcome.cases.append(case)
                if config.out_dir is not None:
                    outcome.saved_paths.append(save_case(Path(config.out_dir), case))
        remaining -= min(config.expressions_per_catalog, remaining)
        batch += 1
    outcome.elapsed_seconds = time.perf_counter() - started
    return outcome


__all__ = ["DENSITY_POOL", "DIM_POOL", "FuzzConfig", "FuzzOutcome", "run_fuzz"]
