"""``benchmarks/e2e``: the repeatable wall-clock benchmark of record.

See README.md in this directory.  Entry points: ``run.py`` (one workload,
the driver's contract), ``python -m benchmarks.e2e --smoke``,
``repeat.py`` (repeatability table) and ``inputs.py --check``.
"""
