"""The repository benchmark: four closed-loop workloads over the public API.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``--workload all`` runs every
workload, each in its own process.  ``BENCHMARK.json`` at the root names
the workloads and metrics.
"""
