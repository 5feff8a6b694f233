"""Execution devices: a chunk (launch) policy.

The sampler's learning problem is embarrassingly parallel across the batch —
each candidate solution is learned independently (Section III of the paper).
A :class:`Device` describes how that parallelism is *executed*: how the
batch is split into launches:

* ``gpu-sim`` — one vectorised launch over the full ``(batch, n)`` tensor
  (the data-parallel execution model of a GPU tensor runtime);
* ``cpu`` — the identical computation performed in per-sample chunks with a
  Python-level loop, modelling sequential per-solution execution.

The two kinds reproduce the Fig. 4 (left) GPU-vs-CPU ablation, and their
chunk spans stay bitwise-identical to the original NumPy
loop simulator, which keeps ``gpu-sim``/``cpu`` the reference semantics.

In the compiled engine (:mod:`repro.engine`), the device's ``chunks``
spans drive *program-level* chunking: each span is one complete run of the
compiled levelized program's training loop
(:func:`repro.engine.train.learn_batch`) rather than a Python slice of a
per-gate walk, so a "launch" amortizes the whole cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Tuple


class DeviceKind(str, Enum):
    """Available execution styles."""

    GPU_SIM = "gpu-sim"
    CPU = "cpu"


@dataclass(frozen=True)
class Device:
    """An execution device: a chunk policy.

    ``chunk_size`` is the number of batch elements processed per kernel
    invocation: the full batch for ``gpu-sim`` (a single launch) and 1 for
    ``cpu`` (a per-sample loop).  Intermediate values model multi-core CPUs or
    small GPUs and are used by the scaling ablations.
    """

    kind: DeviceKind = DeviceKind.GPU_SIM
    chunk_size: int = 0  # 0 means "whole batch at once"

    def __post_init__(self) -> None:
        if self.chunk_size < 0:
            raise ValueError(
                f"chunk_size must be non-negative (0 = whole batch), "
                f"got {self.chunk_size}"
            )

    @property
    def is_parallel(self) -> bool:
        """Whether the device executes the full batch per launch."""
        return self.kind == DeviceKind.GPU_SIM and self.chunk_size == 0

    def chunks(self, batch_size: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(start, stop)`` index ranges covering ``batch_size`` samples.

        Edge cases (regression-tested): a non-positive ``batch_size`` yields
        nothing, and a ``chunk_size`` larger than the batch yields the single
        span ``(0, batch_size)`` — a launch never reads past the batch.
        """
        if batch_size <= 0:
            return
        size = batch_size if self.chunk_size == 0 else self.chunk_size
        if self.kind == DeviceKind.CPU and self.chunk_size == 0:
            size = 1
        start = 0
        while start < batch_size:
            stop = min(start + size, batch_size)
            yield start, stop
            start = stop

    def num_launches(self, batch_size: int) -> int:
        """Number of kernel launches :meth:`chunks` will produce."""
        return sum(1 for _ in self.chunks(batch_size))

    def describe(self) -> str:
        """Human-readable device description used in reports."""
        if self.is_parallel:
            return "gpu-sim (full-batch vectorised execution)"
        if self.kind == DeviceKind.GPU_SIM:
            return f"gpu-sim (chunked, {self.chunk_size} samples per launch)"
        per_launch = 1 if self.chunk_size == 0 else self.chunk_size
        return f"cpu (scalar loop, {per_launch} sample(s) per step)"


def get_device(name: str = "gpu-sim", chunk_size: int = 0) -> Device:
    """Build a device from a name (``"gpu-sim"`` / ``"gpu"`` / ``"cpu"``)."""
    normalized = name.lower().strip()
    if normalized in ("gpu", "gpu-sim", "cuda", "vectorized"):
        return Device(DeviceKind.GPU_SIM, chunk_size)
    if normalized in ("cpu", "scalar", "loop"):
        return Device(DeviceKind.CPU, chunk_size)
    raise ValueError(f"unknown device name {name!r}")


def split_batch(matrix, device: Device) -> Iterator:
    """Yield the row chunks of ``matrix`` the device would process per launch."""
    for start, stop in device.chunks(matrix.shape[0]):
        yield matrix[start:stop]
