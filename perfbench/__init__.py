"""Benchmark of the wact command line: workloads, checks and tracing."""
