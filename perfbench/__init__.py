"""Benchmark for gfdtd; the entry point is run.py."""
