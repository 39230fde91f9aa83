"""Performance harness: the canonical sweeps, end-to-end and per layer.

Run ``python -m benchmarks.perf run`` from the repository root, and
``python -m benchmarks.perf compare BASE.json HEAD.json`` to judge two
result files; see ``benchmarks/perf/README.md``.
"""
