"""Benchmark of volpose: four closed-loop workloads, timed end to end and per layer."""
