"""Registry-workload benchmark for the repro package.

``run.py`` is the entry point; see ``README.md`` for the workloads, the
metrics and how to read them.  Nothing here imports ``repro`` at module
level, so the set-up timing in a fresh interpreter stays clean.
"""
