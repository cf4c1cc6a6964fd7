"""Benchmark of coveig through its public entry points; see README.md."""
