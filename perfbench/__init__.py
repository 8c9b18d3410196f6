"""Benchmark of commitfsm: closed-loop workloads with output checks and a traced run."""
