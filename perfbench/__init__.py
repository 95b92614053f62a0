"""End-to-end and per-layer benchmark of the SPIDER reproduction.

Run ``python3 perfbench/run.py --help`` from a checkout; see
``perfbench/README.md`` for the workloads and metrics.
"""
