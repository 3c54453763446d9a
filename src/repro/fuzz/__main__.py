"""CLI entry point: ``python -m repro.fuzz --budget 300 --seed 20260808``.

Prints the JSON sweep summary on stdout and exits non-zero when any
equivalence violation was found; minimized counterexamples are written to
``--out`` in the corpus format (CI uploads that directory as an artifact).
Reproduce a CI failure locally by running the ``repro_command`` printed in
the summary and inspecting the saved cases, or copy a case file into
``tests/corpus/`` to make it a permanent regression test.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cost import estimator_names
from repro.fuzz.runner import FuzzConfig, run_fuzz


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Fixed-budget differential fuzz sweep over random LA expressions.",
    )
    defaults = FuzzConfig()
    parser.add_argument("--budget", type=int, default=defaults.budget,
                        help="number of expressions to generate and check")
    parser.add_argument("--seed", type=int, default=defaults.seed,
                        help="master seed; the whole sweep is a function of it")
    parser.add_argument("--per-catalog", type=int, default=defaults.expressions_per_catalog,
                        help="expressions drawn per synthetic catalog")
    parser.add_argument("--max-depth", type=int, default=defaults.max_depth,
                        help="maximum expression depth")
    parser.add_argument("--estimator", default=defaults.estimator,
                        choices=estimator_names(),
                        help="registered sparsity estimator the oracle plans and checks under")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for minimized counterexample JSON files")
    parser.add_argument("--no-shrink", action="store_true",
                        help="persist raw counterexamples without minimizing")
    args = parser.parse_args(argv)

    outcome = run_fuzz(
        FuzzConfig(
            budget=args.budget,
            seed=args.seed,
            expressions_per_catalog=args.per_catalog,
            max_depth=args.max_depth,
            estimator=args.estimator,
            shrink=not args.no_shrink,
            out_dir=args.out,
        )
    )
    print(json.dumps(outcome.summary(), indent=2))
    return 1 if outcome.violations else 0


if __name__ == "__main__":
    sys.exit(main())
