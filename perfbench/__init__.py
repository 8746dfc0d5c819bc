"""End-to-end and per-layer benchmark of faro's public API and ``faro apply``.

Run from the root of a faro source checkout::

    python3 perfbench/run.py --workload array-2way --seed 1 --seconds 25 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the layers.
"""
