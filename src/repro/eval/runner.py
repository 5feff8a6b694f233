"""Unified sampler runner used by the Table II / Fig. 2 experiments.

The paper compares "this work" against UniGen3, CMSGen and DiffSampler under a
common protocol: each sampler must produce at least a target number of unique
solutions within a timeout, and throughput = unique solutions / second.
:func:`run_sampler_on_instance` applies that protocol to any sampler exposing
the :class:`repro.baselines.base.BaselineSampler` interface;
:class:`ThisWorkSampler` adapts the paper's gradient sampler to it (the
transformation time is kept separate, mirroring the paper's treatment of the
transformation as a one-off preprocessing step reported in Fig. 4 right).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.baselines.base import BaselineSampler, SamplerOutput
from repro.baselines.cmsgen_like import CMSGenStyleSampler
from repro.baselines.diffsampler_like import DiffSamplerStyleSampler
from repro.baselines.quicksampler_like import QuickSamplerStyleSampler
from repro.baselines.unigen_like import UniGenStyleSampler
from repro.cnf.formula import CNF
from repro.core.config import SamplerConfig
from repro.core.sampler import GradientSATSampler
from repro.core.solutions import SolutionSet
from repro.core.transform import TransformResult, transform_cnf


@dataclass
class RunRecord:
    """One (sampler, instance) measurement."""

    sampler_name: str
    instance_name: str
    num_unique: int
    elapsed_seconds: float
    num_requested: int
    timed_out: bool = False
    transform_seconds: float = 0.0
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Unique valid solutions per second (Table II metric)."""
        if self.elapsed_seconds <= 0.0:
            return float("inf") if self.num_unique else 0.0
        return self.num_unique / self.elapsed_seconds


class ThisWorkSampler(BaselineSampler):
    """Adapter exposing the paper's gradient sampler through the common interface."""

    name = "this-work"

    def __init__(
        self,
        config: Optional[SamplerConfig] = None,
        transform_cache: Optional[Dict[str, TransformResult]] = None,
    ) -> None:
        self.config = config or SamplerConfig()
        self._transform_cache = transform_cache if transform_cache is not None else {}
        self.last_transform_seconds = 0.0

    def sample(
        self,
        formula: CNF,
        num_solutions: int = 1000,
        timeout_seconds: Optional[float] = None,
    ) -> SamplerOutput:
        transform_start = time.perf_counter()
        cached = self._transform_cache.get(formula.name)
        if cached is None:
            cached = transform_cnf(formula)
            if formula.name:
                self._transform_cache[formula.name] = cached
        self.last_transform_seconds = time.perf_counter() - transform_start

        config = self.config
        if timeout_seconds is not None:
            config = config.with_(timeout_seconds=timeout_seconds)
        sampler = GradientSATSampler(formula, transform=cached, config=config)
        start = time.perf_counter()
        result = sampler.sample(num_solutions=num_solutions)
        elapsed = time.perf_counter() - start
        return SamplerOutput(
            sampler_name=self.name,
            instance_name=formula.name,
            solutions=result.solutions,
            num_requested=num_solutions,
            elapsed_seconds=elapsed,
            num_generated=result.num_generated,
            timed_out=result.timed_out,
            extra={
                "validity_rate": result.validity_rate,
                "rounds": len(result.rounds),
                "transform_seconds": self.last_transform_seconds,
                "ops_reduction": cached.stats.operations_reduction,
                "primary_inputs": len(cached.primary_inputs),
                "primary_outputs": len(cached.primary_outputs) + len(cached.constraints),
            },
        )


def default_samplers(
    config: Optional[SamplerConfig] = None, seed: int = 0
) -> List[BaselineSampler]:
    """The sampler line-up of Table II: this work + the three CNF-level baselines."""
    return [
        ThisWorkSampler(config=config),
        UniGenStyleSampler(seed=seed),
        CMSGenStyleSampler(seed=seed),
        DiffSamplerStyleSampler(seed=seed),
    ]


def run_sampler_on_instance(
    sampler: BaselineSampler,
    formula: CNF,
    num_solutions: int = 1000,
    timeout_seconds: Optional[float] = None,
) -> RunRecord:
    """Apply the Table II protocol to one (sampler, instance) pair."""
    output = sampler.sample(
        formula, num_solutions=num_solutions, timeout_seconds=timeout_seconds
    )
    transform_seconds = float(output.extra.get("transform_seconds", 0.0) or 0.0)
    return RunRecord(
        sampler_name=output.sampler_name,
        instance_name=formula.name,
        num_unique=output.num_unique,
        elapsed_seconds=output.elapsed_seconds,
        num_requested=num_solutions,
        timed_out=output.timed_out,
        transform_seconds=transform_seconds,
        extra=dict(output.extra),
    )
