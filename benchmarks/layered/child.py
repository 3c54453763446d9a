"""Child-process entry: measure one workload under the pinned environment.

Started by :mod:`benchmarks.layered.cli` (never directly by the driver),
because the environment has to be fixed before the interpreter starts:
``PYTHONHASHSEED=0`` (``repro.data.generators`` seeds matrices with
``hash(name)`` and sets iterate in hash order) and single-threaded BLAS.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.layered.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--regenerate-golden", action="store_true")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("benchmarks.layered.child must be started by the runner (PYTHONHASHSEED=0)", file=sys.stderr)
        return 2

    started = time.perf_counter()
    from benchmarks.layered import harness
    from benchmarks.layered.workloads import WORKLOADS

    import_seconds = time.perf_counter() - started
    cls = WORKLOADS[args.workload]
    # --smoke: the fewest passes a floor allows, at reduced sizes.
    seconds = 0.0 if args.smoke else args.seconds
    if args.trace:
        probes = {
            name: (lambda other=other: other(args.seed, True))
            for name, other in WORKLOADS.items()
            if other is not cls
        }
        document = harness.measure_layers(
            lambda: cls(args.seed, args.smoke), probes, seconds, import_seconds
        )
    else:
        document = harness.measure(
            lambda: cls(args.seed, args.smoke), seconds, args.regenerate_golden
        )
    print(json.dumps(document))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
