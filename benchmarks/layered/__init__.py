"""The layered benchmark: four workloads, op floors, and a per-layer trace.

``BENCHMARK.json`` at the repo root is the contract; ``README.md`` in this
directory defines every workload and metric.  Entry points::

    python3 benchmarks/layered/run.py --workload plan_cold --seed 1 --seconds 24 --trace 0
    python -m benchmarks.layered run [--workload W] [--seed S] [--trace 0|1|both] [--smoke]
    python -m benchmarks.layered repeat --sets 2 --runs 5
"""
