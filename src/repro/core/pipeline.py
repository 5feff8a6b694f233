"""End-to-end pipeline: DIMACS text/CNF -> transformation -> GD sampling.

This is the one-call entry point most users want (and what the examples use):

>>> from repro import sample_cnf
>>> result = sample_cnf(formula, num_solutions=100)
>>> result.sample.num_unique >= 1
True
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.cnf.dimacs import parse_dimacs, parse_dimacs_file
from repro.cnf.formula import CNF
from repro.core.config import SamplerConfig, check_admission
from repro.core.sampler import GradientSATSampler, SampleResult
from repro.core.task import SamplingTask
from repro.core.transform import TransformResult, transform_cnf
from repro import obs


@dataclass
class PipelineResult:
    """Everything produced by one end-to-end sampling run."""

    formula: CNF
    transform: TransformResult
    sample: SampleResult
    transform_seconds: float
    sample_seconds: float

    @property
    def total_seconds(self) -> float:
        """Transformation plus sampling wall-clock time."""
        return self.transform_seconds + self.sample_seconds

    @property
    def throughput(self) -> float:
        """Unique solutions per second of *sampling* time (the Table II metric)."""
        return self.sample.throughput

    def summary(self) -> Dict[str, object]:
        """Flat summary row combining transformation and sampling statistics."""
        row: Dict[str, object] = {
            "instance": self.formula.name,
            "variables": self.formula.num_variables,
            "clauses": self.formula.num_clauses,
        }
        row.update(self.transform.summary())
        row.update(self.sample.summary())
        row["transform_seconds"] = self.transform_seconds
        row["sample_seconds"] = self.sample_seconds
        return row


def load_formula(source: Union[CNF, str, Path]) -> CNF:
    """Accept a CNF object, DIMACS text, or a path to a DIMACS file."""
    if isinstance(source, CNF):
        return source
    if isinstance(source, Path):
        return parse_dimacs_file(source)
    if isinstance(source, str):
        if "\n" in source or source.lstrip().startswith(("p ", "c ", "p\t")):
            return parse_dimacs(source)
        path = Path(source)
        if path.exists():
            return parse_dimacs_file(path)
        return parse_dimacs(source)
    raise TypeError(f"cannot interpret {type(source).__name__} as a CNF")


def sample_cnf(
    source: Union[CNF, str, Path],
    num_solutions: int = 1000,
    config: Optional[SamplerConfig] = None,
    transform: Optional[TransformResult] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    on_round: Optional[Callable] = None,
    task: Optional[SamplingTask] = None,
    store_dir: Union[None, bool, str, Path] = None,
) -> PipelineResult:
    """Run the full pipeline on a CNF instance.

    Parameters
    ----------
    source:
        A :class:`~repro.cnf.formula.CNF`, DIMACS text, or path to a ``.cnf`` file.
    num_solutions:
        Minimum number of unique valid solutions to aim for.
    config:
        Sampler hyper-parameters; defaults to :class:`SamplerConfig` defaults.
    transform:
        A pre-computed transformation (skips re-running Algorithm 1).  When a
        ``task`` carries a clause delta, the transform must correspond to the
        *effective* (post-delta) formula.
    should_stop:
        Cooperative-cancellation hook forwarded to
        :meth:`GradientSATSampler.sample`; polled at the timeout-deadline
        check points.
    on_round:
        Per-round progress callback forwarded to the sampler (receives the
        :class:`~repro.core.sampler.RoundRecord` and the round's new unique
        solutions).
    task:
        An optional :class:`~repro.core.task.SamplingTask` workload spec.  Its
        clause delta is applied to the formula *before* transforming, its
        projection drives solution dedup and its weights bias initialization.
        ``None`` (the default task) reproduces the pre-task pipeline bitwise.
    store_dir:
        Persistent artifact store (:mod:`repro.store`), read the way
        ``SamplingService(store_dir=)`` reads it: ``None`` defers to the
        ``REPRO_STORE_DIR`` environment variable (off when unset),
        ``False``/``"off"`` is off, ``True`` is the conventional
        ``~/.cache/repro-sat/store`` and a path is that directory.  With a
        store, the transform stage first consults it for the formula's
        signature and persists after a cold build, so repeated runs over the
        same formula skip Algorithm 1 entirely.  The store is bypassed when
        a pre-computed ``transform`` is supplied.

    Tracing follows the caller's :func:`repro.obs.trace_scope`; with none
    open, the ``REPRO_TRACE`` environment variable decides.
    """
    with obs.trace_scope(None):
        with obs.span("pipeline.sample_cnf") as pspan:
            formula = load_formula(source)
            if task is not None:
                formula = task.apply_to(formula)
            check_admission(formula.num_variables, (config or SamplerConfig()).batch_size)
            transform_start = time.perf_counter()
            if transform is None:
                from repro.store import open_store

                store = open_store(store_dir)
                if store is not None:
                    from repro.core.signatures import formula_signature
                    from repro.serve.cache import build_artifact
                    from repro.store import StoreFormatError, fetch_or_build_artifact

                    signature = formula_signature(formula)
                    artifact, _source = fetch_or_build_artifact(
                        store, signature, lambda: build_artifact(formula, signature)
                    )
                    try:
                        # Sample on the artifact's formula object so its memoised
                        # evaluation plan (store-loaded or freshly compiled) is
                        # shared.
                        formula, transform = artifact.formula, artifact.transform
                    except StoreFormatError:
                        # A store hit whose transform entry does not decode:
                        # the store is only an accelerator, so build instead.
                        artifact = build_artifact(formula, signature)
                        formula, transform = artifact.formula, artifact.transform
                else:
                    transform = transform_cnf(formula)
            transform_seconds = time.perf_counter() - transform_start

            sampler = GradientSATSampler(
                formula, transform=transform, config=config, task=task
            )
            sample_start = time.perf_counter()
            sample = sampler.sample(
                num_solutions=num_solutions, should_stop=should_stop,
                on_round=on_round,
            )
            sample_seconds = time.perf_counter() - sample_start
            pspan.set("instance", formula.name)
            pspan.set("unique_solutions", sample.num_unique)
        # End a file-backed trace with a metrics line so `repro-sat obs`
        # can tabulate the run's counters (no-op without an open sink).
        obs.write_metrics_to_trace()
    return PipelineResult(
        formula=formula,
        transform=transform,
        sample=sample,
        transform_seconds=transform_seconds,
        sample_seconds=sample_seconds,
    )
