"""Verified-equivalence fuzzing for the rewrite engine.

The standing correctness harness every planner/chase change runs against:

* :mod:`repro.fuzz.generator` — seeded random synthetic catalogs, LA
  expressions and view sets drawn from one grammar;
* :mod:`repro.fuzz.oracle` — a differential oracle planning each expression
  through :class:`repro.api.Engine` and checking equivalence statically
  (shape, sparsity bounds, canonical-fingerprint stability) and numerically
  (cross-backend backtesting with operator-aware tolerances);
* :mod:`repro.fuzz.shrinker` — greedy minimization of failing expressions
  to locally minimal repros;
* :mod:`repro.fuzz.corpus` — the committed counterexample corpus under
  ``tests/corpus/``, replayed as ordinary pytest cases;
* :mod:`repro.fuzz.runner` — the fixed-budget sweep behind
  ``python -m repro.fuzz`` and the CI fuzz job.

Deliberately *not* re-exported from :mod:`repro`: this is test
infrastructure, not user API.  See ``docs/testing.md``.
"""

from repro.fuzz.corpus import CorpusCase, load_cases, save_case
from repro.fuzz.deltas import (
    DeltaCase,
    DeltaSequenceGenerator,
    check_delta_case,
    load_delta_cases,
    run_delta_fuzz,
    save_delta_case,
)
from repro.fuzz.generator import (
    CatalogInventory,
    CatalogSpec,
    ExpressionGenerator,
    generate_catalog,
    spawn_rng,
)
from repro.fuzz.oracle import (
    DifferentialOracle,
    OracleReport,
    Violation,
    tolerance_for,
)
from repro.fuzz.runner import FuzzConfig, FuzzOutcome, run_fuzz
from repro.fuzz.shrinker import expr_size, shrink

__all__ = [
    "CatalogInventory",
    "CatalogSpec",
    "CorpusCase",
    "DeltaCase",
    "DeltaSequenceGenerator",
    "DifferentialOracle",
    "ExpressionGenerator",
    "FuzzConfig",
    "FuzzOutcome",
    "OracleReport",
    "Violation",
    "check_delta_case",
    "expr_size",
    "generate_catalog",
    "load_cases",
    "load_delta_cases",
    "run_delta_fuzz",
    "run_fuzz",
    "save_case",
    "save_delta_case",
    "shrink",
    "spawn_rng",
    "tolerance_for",
]
