"""Benchmark of linkprop's training and evaluation; see README.md."""
