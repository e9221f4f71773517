"""Benchmark of the SPECRUN reproduction (see run.py)."""
