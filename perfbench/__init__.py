"""Benchmark for repgame: closed batch workloads, end-to-end throughput and a
traced per-layer breakdown.  Run ``python3 -m perfbench --help``."""
