"""The repository's benchmark: four workloads, one record schema.

``python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1``
is the entry point ``BENCHMARK.json`` names; ``python -m benchmarks.suite``
offers ``run``, ``compare``, ``aa`` and ``selftest`` on top of it.  See
``README.md`` in this directory for every workload and metric by name.
"""
