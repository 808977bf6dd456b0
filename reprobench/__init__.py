"""The reproduction's benchmark: four seeded workloads, output checks and
a traced per-layer breakdown.  Run ``python3 reprobench/run.py --help``;
see ``reprobench/README.md`` for the metric map."""
