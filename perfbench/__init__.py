"""Benchmark of the cvge command line; the entry point is perfbench/run.py."""
