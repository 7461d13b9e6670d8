"""Benchmark harness regenerating every table and figure of the paper.

``repro.bench.experiments`` holds one function per experiment;
``pytest benchmarks/ --benchmark-only`` runs them all at laptop scale and
persists the reports under ``benchmarks/results/``; the ``repro-bench``
CLI (``python -m repro``) runs them individually, including at
``--scale full``.  Throughput, latency and memory are the repository
benchmark's job (``perfbench/run.py``), not this package's.
"""

from .experiments import EXPERIMENTS, run_experiment
from .reporting import bench_scale, emit, format_table, results_dir

__all__ = [
    "EXPERIMENTS",
    "bench_scale",
    "emit",
    "format_table",
    "results_dir",
    "run_experiment",
]
