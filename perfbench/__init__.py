"""Benchmark for the lightsout package: CLI workloads, output checks, tracing.

Run it with ``python3 perfbench/run.py --workload NAME``; see README.md in
this directory.
"""
