"""Common interface shared by every sampler (baselines and the paper's sampler).

The evaluation harness only needs two things from a sampler: a name and a
``sample`` method returning a :class:`SamplerOutput` with the unique valid
solutions and the wall-clock time spent, from which throughput (the Table II
metric) is derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.cnf.formula import CNF
from repro.core.solutions import SolutionSet


@dataclass
class SamplerOutput:
    """Unified result record for any sampler."""

    sampler_name: str
    instance_name: str
    solutions: SolutionSet
    num_requested: int
    elapsed_seconds: float
    num_generated: int = 0
    timed_out: bool = False
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def num_unique(self) -> int:
        """Number of unique valid solutions produced."""
        return len(self.solutions)

    @property
    def throughput(self) -> float:
        """Unique valid solutions per second."""
        if self.elapsed_seconds <= 0.0:
            return float("inf") if self.num_unique else 0.0
        return self.num_unique / self.elapsed_seconds

    def solution_matrix(self, limit: Optional[int] = None) -> np.ndarray:
        """Unique solutions as a boolean matrix over the original variables."""
        return self.solutions.to_matrix(limit)


class BaselineSampler:
    """Abstract base class for CNF-level samplers."""

    #: Human-readable sampler name used in tables and plots.
    name = "baseline"

    def sample(
        self,
        formula: CNF,
        num_solutions: int = 1000,
        timeout_seconds: Optional[float] = None,
    ) -> SamplerOutput:
        """Produce up to ``num_solutions`` unique valid solutions of ``formula``."""
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------------------
    def _empty_output(
        self, formula: CNF, num_solutions: int, elapsed: float, timed_out: bool = False
    ) -> SamplerOutput:
        return SamplerOutput(
            sampler_name=self.name,
            instance_name=formula.name,
            solutions=SolutionSet(formula.num_variables),
            num_requested=num_solutions,
            elapsed_seconds=elapsed,
            timed_out=timed_out,
        )
