"""Execution-device abstraction and GPU-memory model.

A :class:`Device` is a chunk policy: it decides how the batch splits into
launches.  ``gpu-sim`` (one full-batch launch) and ``cpu`` (a per-sample
loop) are the bitwise-reference execution styles used by the Fig. 4 (left)
GPU-vs-CPU ablation.  The float dtype the launches compute in is chosen
separately, by ``SamplerConfig(array_backend=...)``.  The memory model
reproduces the Fig. 3 (right) measurement analytically from tensor shapes.
"""

from repro.gpu.device import Device, DeviceKind, get_device, split_batch
from repro.gpu.memory import MemoryModel, estimate_training_memory

__all__ = [
    "Device",
    "DeviceKind",
    "get_device",
    "split_batch",
    "MemoryModel",
    "estimate_training_memory",
]
