"""Benchmark of ``bicausal verify`` and ``bicausal report``; see README.md."""
