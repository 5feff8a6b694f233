"""Fig. 4 (left): speedup of data-parallel execution over per-sample execution.

The identical learning computation is run twice per ablation instance: once
with full-batch vectorised NumPy execution (``chunk_size=0``, standing in for
the paper's V100 runs) and once with a per-sample Python loop
(``chunk_size=1``).  The paper reports an average speedup of 6.8x; the expected
shape here is simply a speedup well above 1x on every instance, growing with
circuit size.
"""

from __future__ import annotations

import pytest

from repro.eval.figures import fig4_gpu_speedup
from repro.eval.report import render_rows


@pytest.mark.benchmark(group="fig4")
def test_fig4_gpu_speedup_over_cpu(benchmark, figure_instances, sampler_config):
    def run():
        return fig4_gpu_speedup(
            instance_names=figure_instances,
            batch_size=64,
            num_solutions=64,
            config=sampler_config,
        )

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {"instance": name, **record} for name, record in results.items()
    ]
    print()
    print(render_rows(rows, title="Fig. 4 (left) - vectorised vs per-sample execution"))
    benchmark.extra_info["results"] = results

    speedups = [record["speedup"] for record in results.values()]
    assert all(speedup > 1.0 for speedup in speedups)
    average = sum(speedups) / len(speedups)
    benchmark.extra_info["average_speedup"] = average
    assert average > 2.0
