"""Host speed: a fixed reference kernel sampled through every run.

The shared host this benchmark runs on drifts.  The same warm job takes
35 ms for some minutes and 65 ms for the next ones, on both cores, with CPU
time tracking wall time, so raw times of one workload do not repeat from
run to run whatever its length.  Each run therefore also times a small
reference kernel after each set-up and right after every job, outside the
time it measures.  The kernel belongs to the benchmark, not to the program:
pure-Python line splitting, integer parsing and set building plus a NumPy
gather of one column per literal and a clause reduction over it, the mix
the program's parse, transform and sampling layers run.  A run's timing
metrics are reported at nominal host speed: a job's times are scaled by
``NOMINAL_REFERENCE_MS`` over the reference time sampled after it.  A change
to the program moves scaled times exactly as it moves raw ones, since the
reference never calls the program; the raw values are kept in the run's
record.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from perfbench.checker import read_dimacs

#: The reference kernel's time at the nominal host speed (milliseconds).
NOMINAL_REFERENCE_MS = 2.5
#: Lines of the instance text and assignment rows one reference call uses.
_LINES = 400
_ROWS = 32


class HostSpeed:
    """Times the reference kernel; ``scale()`` turns raw into nominal."""

    def __init__(self, dimacs_text: str) -> None:
        lines = [line for line in dimacs_text.splitlines() if line and line[0] not in "cp"]
        self._lines = lines[:_LINES]
        num_variables, clauses = read_dimacs(dimacs_text)
        literals = np.concatenate(clauses)
        self._columns = np.abs(literals) - 1
        self._negated = literals < 0
        lengths = np.array([len(clause) for clause in clauses])
        self._starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        self._rows = np.random.default_rng(0).random((_ROWS, num_variables)) < 0.5

    def sample(self) -> float:
        """Time the kernel once, in seconds.

        The collector is off while it runs, so no collection of the
        program's heap, whose size the program decides, lands in a sample.
        """
        gc.disable()
        try:
            start = time.perf_counter()
            groups = {}
            for line in self._lines:
                literals = [int(field) for field in line.split()[:-1]]
                groups[frozenset(abs(literal) for literal in literals)] = literals
            literal_true = self._rows[:, self._columns] != self._negated
            np.logical_or.reduceat(literal_true, self._starts, axis=1).all(axis=1)
            return time.perf_counter() - start
        finally:
            gc.enable()

    @staticmethod
    def scale(seconds: float, reference_seconds: float) -> float:
        """``seconds`` at nominal host speed."""
        return seconds * (NOMINAL_REFERENCE_MS / 1000.0) / reference_seconds
