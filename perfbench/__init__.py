"""Benchmark for fcad: end-to-end timings of the CLI workloads and a traced
per-layer breakdown.  Run it as ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1`` from the root of a checkout."""
