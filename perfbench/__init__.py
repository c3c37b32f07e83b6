"""Benchmark harness for spinorcalc: three seeded workloads, end-to-end and
per-layer metrics.  Run it with ``python3 perfbench/run.py --workload NAME``."""
