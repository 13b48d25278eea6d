"""Benchmark of the rydmis pipeline; run it with ``python3 bench/run.py``."""
