"""The repository benchmark: seeded TCP workloads against ``wgrap serve --tcp``.

``perfbench/run.py`` is the one command; see ``perfbench/README.md``.
"""
