"""Baseline SAT solvers and samplers.

The paper compares against UniGen3, CMSGen and DiffSampler (and cites
QuickSampler); all of them operate directly on the CNF.  To make the
comparison self-contained this package re-implements the whole stack from
scratch:

* solver substrates: :mod:`repro.baselines.dpll` (DPLL) and
  :mod:`repro.baselines.cdcl` (CDCL with watched literals, VSIDS and Luby
  restarts);
* sampler baselines in the style of the published tools:
  :class:`~repro.baselines.unigen_like.UniGenStyleSampler` (XOR-hash
  partitioning for near-uniform sampling),
  :class:`~repro.baselines.cmsgen_like.CMSGenStyleSampler` (randomised-
  polarity CDCL enumeration),
  :class:`~repro.baselines.quicksampler_like.QuickSamplerStyleSampler`
  (seed-solution flipping), and
  :class:`~repro.baselines.diffsampler_like.DiffSamplerStyleSampler`
  (gradient descent directly on the CNF clauses, i.e. the paper's
  DiffSampler comparator — same learning machinery as the core sampler but
  without the CNF-to-circuit transformation).
"""

from repro.baselines.base import BaselineSampler, SamplerOutput
from repro.baselines.dpll import DPLLSolver
from repro.baselines.cdcl import CDCLSolver, SolverResult
from repro.baselines.unigen_like import UniGenStyleSampler
from repro.baselines.cmsgen_like import CMSGenStyleSampler
from repro.baselines.quicksampler_like import QuickSamplerStyleSampler
from repro.baselines.diffsampler_like import DiffSamplerStyleSampler

__all__ = [
    "BaselineSampler",
    "SamplerOutput",
    "DPLLSolver",
    "CDCLSolver",
    "SolverResult",
    "UniGenStyleSampler",
    "CMSGenStyleSampler",
    "QuickSamplerStyleSampler",
    "DiffSamplerStyleSampler",
]
