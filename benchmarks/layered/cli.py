"""The runner: one pinned child process per (workload, run).

Imports nothing from ``repro`` — it only fixes the environment, starts
:mod:`benchmarks.layered.child`, relays its report and reads its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.layered.layers import END_TO_END

ROOT = Path(__file__).resolve().parents[2]
WORKLOAD_NAMES = ("plan_cold", "exec_payoff", "hybrid", "serve_churn")

#: What must be fixed before the measuring interpreter starts.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # glibc malloc: serve arrays up to 32 MiB from the heap and never trim
    # it.  By default every large temporary is a fresh mmap whose pages
    # fault in again on each use; whether an op pays that depends on what
    # ran before it, i.e. on the seed's op order (the same as-stated
    # pipeline measured 60 ms or 310 ms depending on its neighbours).
    "MALLOC_MMAP_THRESHOLD_": str(32 * 1024 * 1024),
    "MALLOC_TRIM_THRESHOLD_": str(2 * 1024 * 1024 * 1024),
}
#: The contract gives a run 180 s; a child still running then is stopped.
CHILD_TIMEOUT_SECONDS = 170


def run_child(
    workload: str, seed: int, seconds: float, trace: int, smoke: bool = False,
    regenerate_golden: bool = False,
) -> Tuple[int, Optional[dict], str]:
    """Run one child to completion: its exit code, result document and report."""
    env = dict(os.environ, **PINNED_ENV)
    paths = [str(ROOT), str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    command = [
        sys.executable, "-m", "benchmarks.layered.child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    if regenerate_golden:
        command.append("--regenerate-golden")
    try:
        finished = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_SECONDS,
        )
    except subprocess.TimeoutExpired as expired:
        # subprocess.run has killed and reaped the child by now.
        report = expired.stdout or ""
        if isinstance(report, bytes):
            report = report.decode()
        return 124, None, report + f"{workload}: no result after {CHILD_TIMEOUT_SECONDS} s, stopped\n"
    lines = finished.stdout.strip().splitlines()
    try:
        document = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        document = None
    return finished.returncode, document if isinstance(document, dict) else None, finished.stdout


def command_run(args: argparse.Namespace) -> int:
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    worst = 0
    for workload in workloads:
        for trace in traces:
            code, _, report = run_child(
                workload, args.seed, args.seconds, trace, args.smoke, args.regenerate_golden
            )
            sys.stdout.write(report)
            sys.stdout.flush()
            worst = worst or code
    return worst


def _spread(values: List[float]) -> float:
    """The driver's steadiness measure: inter-quartile distance over median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def command_repeat(args: argparse.Namespace) -> int:
    """Run the suite in interleaved sets and compare them with the bounds."""
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    values: Dict[Tuple[str, str, int], List[float]] = {}
    for run in range(args.runs):
        for run_set in range(args.sets):
            for workload in workloads:
                seed = args.seed + run * args.sets + run_set
                code, document, report = run_child(workload, seed, args.seconds, 0)
                if code or document is None or not document["correct"]:
                    print(f"{report}{workload} seed {seed}: run failed (exit {code})")
                    return code or 1
                for name, reading in document["metrics"].items():
                    values.setdefault((workload, name, run_set), []).append(reading["value"])
                print(f"set {run_set} run {run} {workload} seed {seed}: " + ", ".join(
                    f"{name}={reading['value']:.4g}" for name, reading in document["metrics"].items()
                ), flush=True)
    print(
        f"\n{'workload':12s} {'metric':16s} {'max/min':>8s} {'IQR/med':>8s} "
        f"{'set medians':>24s} {'diff':>7s} {'bound':>6s}"
    )
    failed = False
    for workload in workloads:
        for metric in END_TO_END:
            per_set = [values[(workload, metric.name, run_set)] for run_set in range(args.sets)]
            pooled = [value for readings in per_set for value in readings]
            ratio = max(pooled) / min(pooled)
            medians = [statistics.median(readings) for readings in per_set]
            diff = (max(medians) - min(medians)) / min(medians)
            spread = max(_spread(readings) for readings in per_set) if args.runs >= 2 else 0.0
            bad = spread > metric.bound or diff > metric.bound / 2
            failed = failed or bad
            print(
                f"{workload:12s} {metric.name:16s} {ratio:8.3f} {spread:8.4f} "
                f"{' / '.join(f'{m:.4g}' for m in medians):>24s} {diff:7.4f} {metric.bound:6.2f}"
                + ("  FAIL" if bad else "")
            )
    print(
        "\nfails when a set's spread (IQR/med, the larger set's is shown) exceeds the bound "
        "or the set medians differ by more than half of it; max/min is over all runs"
    )
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.layered")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure one workload, or all four")
    run.add_argument("--workload", choices=WORKLOAD_NAMES)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=32.0)
    run.add_argument("--trace", choices=("0", "1", "both"), default="0")
    run.add_argument("--smoke", action="store_true", help="3 passes at reduced sizes (< 10 s)")
    run.add_argument("--regenerate-golden", action="store_true",
                     help="record golden_plans.json instead of checking it")
    run.set_defaults(handler=command_run)
    repeat = commands.add_parser("repeat", help="repeatability check over interleaved sets")
    repeat.add_argument("--sets", type=int, default=2)
    repeat.add_argument("--runs", type=int, default=5)
    repeat.add_argument("--workload", choices=WORKLOAD_NAMES)
    repeat.add_argument("--seed", type=int, default=1)
    repeat.add_argument("--seconds", type=float, default=32.0)
    repeat.set_defaults(handler=command_repeat)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    return args.handler(args)
