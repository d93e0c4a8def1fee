"""Benchmark of the parallel nested Monte-Carlo search stack (see README.md)."""
