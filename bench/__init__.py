"""Wall-clock, per-layer benchmark of the one-shot joins and the query service.

Entry point: ``python3 bench/run.py`` (see ``bench/README.md``).
"""
