"""The repository's benchmark: workloads, layer spans and metrics.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
