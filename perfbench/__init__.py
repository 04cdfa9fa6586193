"""End-to-end and per-layer benchmark of rho-planes.

Run from the repository root:

    python3 perfbench/run.py --workload check_grid --seed 1 --seconds 30 --trace 0

See perfbench/README.md for the workloads, the metrics and the baseline.
"""
