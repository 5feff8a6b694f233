"""Figure builders: the data series behind Fig. 2, Fig. 3 and Fig. 4.

Each function returns plain data structures (dicts of series / scalars) so
that the benchmark scripts can print them and tests can assert on their
shapes; no plotting library is required.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.base import BaselineSampler
from repro.circuit.netlist import Circuit
from repro.circuit.stats import two_input_gate_equivalents
from repro.core.config import SamplerConfig
from repro.core.sampler import GradientSATSampler
from repro.core.transform import transform_cnf
from repro.eval.runner import default_samplers, run_sampler_on_instance
from repro.instances.registry import FIGURE_INSTANCES, get_instance

#: (x, y) pair series type used throughout this module.
Series = List[Tuple[float, float]]

#: Bytes per tensor element (float32, the paper's PyTorch default).
BYTES_PER_ELEMENT = 4

#: Fixed framework overhead in MB (CUDA context + allocator pools on a V100).
FRAMEWORK_OVERHEAD_MB = 450.0


def estimate_training_memory_mb(circuit: Circuit, batch_size: int) -> float:
    """Modelled GPU memory (MB) of one training iteration at ``batch_size``.

    The paper measures ``nvidia-smi`` usage; this models the same quantity
    from tensor shapes.  Per batch element, one iteration holds the input
    probabilities and one activation per two-input gate (forward), a
    gradient per stored activation (reverse), and the parameter tensor
    ``V`` plus its gradient — all float32 — on top of a fixed framework
    overhead.  So memory is linear in the batch and in the circuit size.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    num_inputs = max(circuit.num_inputs, 1)
    num_gates = max(two_input_gate_equivalents(circuit), 1)
    activations = batch_size * (num_inputs + num_gates)
    parameters = batch_size * num_inputs
    total_bytes = (2 * activations + 2 * parameters) * BYTES_PER_ELEMENT
    return total_bytes / (1024.0 * 1024.0) + FRAMEWORK_OVERHEAD_MB


def fig2_latency_vs_solutions(
    instance_names: Optional[Sequence[str]] = None,
    samplers: Optional[Sequence[BaselineSampler]] = None,
    solution_counts: Sequence[int] = (10, 50, 200),
    timeout_seconds: float = 30.0,
    config: Optional[SamplerConfig] = None,
) -> Dict[str, Series]:
    """Fig. 2: latency (ms) vs number of unique solutions, per sampler.

    Every point is one (sampler, instance, requested-count) run; the paper
    plots all 60 instances, this builder defaults to the four ablation
    instances to stay within a CPU budget.
    """
    names = list(instance_names) if instance_names is not None else list(FIGURE_INSTANCES)
    line_up = list(samplers) if samplers is not None else default_samplers(config=config)
    series: Dict[str, Series] = {sampler.name: [] for sampler in line_up}
    for name in names:
        formula, _ = get_instance(name).build()
        for count in solution_counts:
            for sampler in line_up:
                record = run_sampler_on_instance(
                    sampler, formula, num_solutions=count,
                    timeout_seconds=timeout_seconds,
                )
                if record.num_unique > 0:
                    series[record.sampler_name].append(
                        (float(record.num_unique), record.elapsed_seconds * 1e3)
                    )
    return series


def fig3_learning_curve(
    instance_names: Optional[Sequence[str]] = None,
    max_iterations: int = 10,
    batch_size: int = 1024,
    config: Optional[SamplerConfig] = None,
) -> Dict[str, Series]:
    """Fig. 3 (left): unique satisfying solutions vs GD iteration count."""
    names = list(instance_names) if instance_names is not None else list(FIGURE_INSTANCES)
    base_config = config or SamplerConfig(batch_size=batch_size)
    curves: Dict[str, Series] = {}
    for name in names:
        formula, _ = get_instance(name).build()
        transform = transform_cnf(formula)
        sampler = GradientSATSampler(formula, transform=transform, config=base_config)
        counts = sampler.learning_curve(max_iterations=max_iterations, batch_size=batch_size)
        curves[name] = [(float(iteration), float(count)) for iteration, count in enumerate(counts)]
    return curves


def fig3_memory_vs_batch(
    instance_names: Optional[Sequence[str]] = None,
    batch_sizes: Sequence[int] = (100, 1000, 10_000, 100_000, 1_000_000),
) -> Dict[str, Series]:
    """Fig. 3 (right): modelled GPU memory (MB) vs batch size, per instance."""
    names = list(instance_names) if instance_names is not None else list(FIGURE_INSTANCES)
    curves: Dict[str, Series] = {}
    for name in names:
        formula, _ = get_instance(name).build()
        transform = transform_cnf(formula)
        series: Series = []
        for batch in batch_sizes:
            series.append(
                (float(batch), estimate_training_memory_mb(transform.circuit, batch))
            )
        curves[name] = series
    return curves


def fig4_gpu_speedup(
    instance_names: Optional[Sequence[str]] = None,
    batch_size: int = 64,
    num_solutions: int = 64,
    config: Optional[SamplerConfig] = None,
) -> Dict[str, Dict[str, float]]:
    """Fig. 4 (left): speedup of vectorised over per-sample execution.

    Both runs execute the identical learning computation on the identical
    batch; only the chunking differs (``chunk_size=0``, one full-batch
    launch, vs ``chunk_size=1``, a per-sample loop), which is the substituted
    analogue of the paper's GPU-vs-CPU measurement.
    """
    names = list(instance_names) if instance_names is not None else list(FIGURE_INSTANCES)
    results: Dict[str, Dict[str, float]] = {}
    for name in names:
        formula, _ = get_instance(name).build()
        transform = transform_cnf(formula)
        timings: Dict[str, float] = {}
        for label, chunk_size in (("gpu", 0), ("cpu", 1)):
            run_config = (config or SamplerConfig()).with_(
                batch_size=batch_size, chunk_size=chunk_size, max_rounds=1,
            )
            sampler = GradientSATSampler(formula, transform=transform, config=run_config)
            start = time.perf_counter()
            sampler.sample(num_solutions=num_solutions)
            timings[label] = time.perf_counter() - start
        speedup = timings["cpu"] / timings["gpu"] if timings["gpu"] > 0 else float("inf")
        results[name] = {
            "gpu_seconds": timings["gpu"],
            "cpu_seconds": timings["cpu"],
            "speedup": speedup,
        }
    return results


def fig4_ops_reduction(
    instance_names: Optional[Sequence[str]] = None,
) -> Dict[str, float]:
    """Fig. 4 (middle): bit-wise operation reduction (CNF ops / circuit ops)."""
    names = list(instance_names) if instance_names is not None else list(FIGURE_INSTANCES)
    results: Dict[str, float] = {}
    for name in names:
        formula, _ = get_instance(name).build()
        transform = transform_cnf(formula)
        results[name] = transform.stats.operations_reduction
    return results


def fig4_transform_time(
    instance_names: Optional[Sequence[str]] = None,
) -> Dict[str, float]:
    """Fig. 4 (right): CNF-to-circuit transformation time in seconds."""
    names = list(instance_names) if instance_names is not None else list(FIGURE_INSTANCES)
    results: Dict[str, float] = {}
    for name in names:
        formula, _ = get_instance(name).build()
        start = time.perf_counter()
        transform_cnf(formula)
        results[name] = time.perf_counter() - start
    return results
