"""The repo's benchmark: five seeded workloads from ``daemon.log()`` to
query answer, end to end and layer by layer.

Run as ``python -m benchmarks.harness`` from the repo root; declared in
the root ``BENCHMARK.json``; explained in ``README.md`` beside this file.
"""
