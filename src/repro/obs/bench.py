"""The one benchmark timing helper (median-of-N with untimed warm-up).

Every ``benchmarks/bench_*.py`` script used to carry its own copy of the
same loop — warm up once outside the clock, collect the heap, repeat the
step, keep a robust statistic.  This module is the single shared
implementation.

Why these defaults:

* **untimed warm-up** — one-time costs (native kernel builds, plan
  compilation, lazy imports) must land outside every timed loop; they
  are reported separately (``repro.native.compile_seconds``) where they
  matter;
* **gc.collect() per repeat** — garbage from one contender (e.g. the
  reference oracle's autodiff tape, allocating thousands of nodes per
  pass) must not be collected on the other contender's clock;
* **median** (of per-repeat times) — robust to one noisy repeat on shared
  hardware while not underestimating like best-of can on thermally
  throttled machines.  ``reduce="best"`` remains available for
  micro-kernels where the minimum is the honest cost.
"""

from __future__ import annotations

import gc
import time
from statistics import median
from typing import Callable, Iterable, List


def time_passes(
    step: Callable[[], object],
    repeats: int = 5,
    passes: int = 1,
    *,
    reduce: str = "median",
    warmup: int = 1,
) -> float:
    """Seconds for ``passes`` calls of ``step``, median (default) of ``repeats``.

    ``warmup`` untimed calls precede the measurement; each timed repeat
    starts from a collected heap.  ``reduce`` selects the statistic over
    the per-repeat totals: ``"median"`` or ``"best"`` (minimum).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    if reduce not in ("median", "best"):
        raise ValueError(f"reduce must be 'median' or 'best', got {reduce!r}")
    for _ in range(warmup):
        step()
    samples: List[float] = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        for _ in range(passes):
            step()
        samples.append(time.perf_counter() - start)
    return median(samples) if reduce == "median" else min(samples)


def median_seconds(samples: Iterable[float]) -> float:
    """Median of already-collected per-run seconds (one-shot measurements
    — e.g. store loads — that cannot be repeated under a shared warm-up)."""
    values = list(samples)
    if not values:
        raise ValueError("median_seconds needs at least one sample")
    return median(values)


class timed:
    """Context manager for one-shot wall-clock measurements.

    One-shot stages (a cold service pass, a store build) cannot take a
    warm-up by definition; this is the shared way to time them:

    >>> with timed() as t:
    ...     _ = sum(range(1000))
    >>> t.seconds >= 0.0
    True
    """

    __slots__ = ("seconds", "_start")

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "timed":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self.seconds = time.perf_counter() - self._start
