"""Evaluation harness: throughput runner, Table II builder and figure builders.

Each public function regenerates the data behind one table or figure of the
paper's evaluation section; ``scripts/generate_experiment_report.py`` prints
them all, and ``tests/eval/`` asserts their qualitative shapes.
"""

from repro.eval.runner import RunRecord, ThisWorkSampler, run_sampler_on_instance, default_samplers
from repro.eval.tables import Table2Row, build_table2, render_table2
from repro.eval.figures import (
    fig2_latency_vs_solutions,
    fig3_learning_curve,
    fig3_memory_vs_batch,
    fig4_gpu_speedup,
    fig4_ops_reduction,
    fig4_transform_time,
)
from repro.eval.report import render_rows
from repro.eval.uniformity_study import UniformityRow, uniformity_study

__all__ = [
    "RunRecord",
    "ThisWorkSampler",
    "run_sampler_on_instance",
    "default_samplers",
    "Table2Row",
    "build_table2",
    "render_table2",
    "fig2_latency_vs_solutions",
    "fig3_learning_curve",
    "fig3_memory_vs_batch",
    "fig4_gpu_speedup",
    "fig4_ops_reduction",
    "fig4_transform_time",
    "render_rows",
    "UniformityRow",
    "uniformity_study",
]
