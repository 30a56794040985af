"""End-to-end + per-layer benchmark of the Floodgate reproduction.

``python3 -m benchmarks.e2e --workload NAME --seed N --seconds S --trace 0|1``
is the command ``BENCHMARK.json`` declares; see ``README.md`` in this
directory for the metric and workload tables.  The package imports
``repro`` only inside worker processes (``worker.py``), never in the
driver, so the driver stays a thin scheduler of fresh subprocesses.
"""
