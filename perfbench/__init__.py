"""Repository benchmark for the task-superscalar simulator.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
measures one workload and prints one JSON result as its last line.  See
``perfbench/NOTES.md`` for the workloads, the metrics and which end-to-end
metric each per-layer metric is expected to move.
"""
