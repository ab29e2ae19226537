"""End-to-end macro-benchmark of the serving stack (see README.md).

Four named workloads run through the public ``SmallSsd`` /
``QueryService`` API; every served result is checked against the NumPy
oracle; ten end-to-end metrics and a per-layer host-time budget are
reported by name.  ``run.py`` measures one workload (the command
``BENCHMARK.json`` names); ``python -m benchmarks.e2e`` runs the suite,
``compare``s two records, or rewrites the ``manifest``.
"""
