"""Configuration of the gradient-descent sampler.

Defaults follow Section IV of the paper: plain gradient descent (Eq. 10, the
one update rule) with learning rate 10, 5 iterations, and a batch size chosen
per instance (the paper sweeps 100 to 1,000,000; the default here is sized
for CPU-hosted NumPy execution).

Neither the float dtype nor the engine tier is a field here.  The learning
arrays are always ``float32`` (:mod:`repro.engine.train`), and the engine
has one tier, the on-demand C kernels of :mod:`repro.native`.

Nor is any deployment setting: a config holds the sampler's
hyper-parameters and nothing else.  The artifact store is an argument of
the entry point that owns it (``sample_cnf(store_dir=)``,
``SamplingService(store_dir=)``), and tracing is scoped by the caller with
:func:`repro.obs.trace_scope` (``SamplingService(trace=)`` and the CLI's
``--trace`` open one).
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple, get_args, get_type_hints

from repro.utils.validation import check_non_negative, check_positive


#: The largest sampling matrix a job may ask for, in cells: variables times
#: batch rows.  2^28 cells is a 256 MiB bool matrix; the largest registry
#: instance (s35932, 2,220 variables) at the default batch of 2,048 needs
#: 4.5M.
MAX_BATCH_CELLS = 2**28


class AdmissionError(ValueError):
    """A job's ``num_variables × batch_size`` exceeds :data:`MAX_BATCH_CELLS`."""


def check_admission(num_variables: int, batch_size: int) -> None:
    """Refuse, before anything is built, a job whose sampling matrix would
    exceed :data:`MAX_BATCH_CELLS`."""
    cells = num_variables * batch_size
    if cells > MAX_BATCH_CELLS:
        raise AdmissionError(
            f"job refused: {num_variables} variables x batch {batch_size} = "
            f"{cells} cells exceeds the admission bound of {MAX_BATCH_CELLS} cells"
        )


@dataclass(frozen=True)
class SamplerConfig:
    """Hyper-parameters of :class:`repro.core.sampler.GradientSATSampler`.

    Every field is checked against its annotation: an ``int`` field takes
    any integral number but not a ``bool``, a ``float`` field any real
    number but not a ``bool``, and ``Optional`` adds ``None``; anything else
    is a :class:`TypeError` naming the field.
    """

    #: Number of candidate solutions learned in parallel per round (paper: 100..1e6).
    batch_size: int = 2048
    #: Gradient-descent iterations per round (paper: 5).
    iterations: int = 5
    #: Learning rate of Eq. 10 (paper: 10).
    learning_rate: float = 10.0
    #: Standard deviation of the Gaussian initialisation of the soft inputs V.
    init_scale: float = 1.0
    #: Random seed for initialisation and unconstrained-input sampling.
    seed: Optional[int] = 0
    #: Batch rows learned per engine launch: 0 (the default) runs the whole
    #: batch as one launch, k > 0 splits it into spans of k rows.  Every
    #: chunking gives bitwise-identical rows; 1 is the per-sample loop of
    #: the Fig. 4 (left) vectorised-vs-sequential ablation.
    chunk_size: int = 0
    #: Maximum number of sampling rounds when a target solution count is requested.
    max_rounds: int = 64
    #: Stop early after this many consecutive rounds that add no new unique solution
    #: (the solution space is likely exhausted).  None disables the check.
    stall_rounds: Optional[int] = 4
    #: Wall-clock budget in seconds (None = unlimited); checked between rounds
    #: and, inside a GD round, between chunks and iterations, so a
    #: long round overshoots the budget by at most one iteration (model-less
    #: instances sample a round as one vectorised step, their overshoot is
    #: that single step).
    timeout_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        for name, (kind, optional) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not (
                (value is None and optional)
                or (isinstance(value, kind) and not isinstance(value, bool))
            ):
                noun = "an integer" if kind is numbers.Integral else "a number"
                raise TypeError(
                    f"config field {name!r} must be {noun}"
                    f"{' or None' if optional else ''}, got {value!r}"
                )
        check_positive("batch_size", self.batch_size)
        check_positive("iterations", self.iterations)
        check_positive("learning_rate", self.learning_rate)
        check_positive("max_rounds", self.max_rounds)
        check_positive("init_scale", self.init_scale)
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive or None")
        if self.stall_rounds is not None and self.stall_rounds <= 0:
            raise ValueError("stall_rounds must be positive or None")
        check_non_negative("chunk_size", self.chunk_size)

    def with_(self, **overrides) -> "SamplerConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    @classmethod
    def paper_defaults(cls, batch_size: int = 2048, **overrides) -> "SamplerConfig":
        """The hyper-parameters reported in the paper (lr=10, 5 iterations)."""
        return cls(batch_size=batch_size, iterations=5, learning_rate=10.0, **overrides)


def _field_types() -> Dict[str, Tuple[type, bool]]:
    """``{field: (numbers.Integral or numbers.Real, whether None is allowed)}``,
    read from :class:`SamplerConfig`'s annotations."""
    types = {}
    hints = get_type_hints(SamplerConfig)
    for field in dataclasses.fields(SamplerConfig):
        hint = hints[field.name]
        arguments = get_args(hint)
        optional = type(None) in arguments
        if optional:
            (hint,) = [argument for argument in arguments if argument is not type(None)]
        types[field.name] = ({int: numbers.Integral, float: numbers.Real}[hint], optional)
    return types


_FIELD_TYPES = _field_types()
