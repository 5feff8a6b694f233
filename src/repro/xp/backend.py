"""The array-backend protocol and its NumPy reference implementation.

An :class:`ArrayBackend` is the execution substrate of every hot path in the
library: the autodiff tape (:mod:`repro.tensor`), the compiled levelized
engine (:mod:`repro.engine`), the CNF evaluation kernel
(:mod:`repro.cnf.kernel`) and the samplers all express their array work
against this interface instead of importing ``numpy`` directly.  Swapping the
backend's dtype policy therefore swaps the precision the *whole* learn-sample
loop runs at.

Design rules:

* **NumPy is the runtime.**  :class:`NumpyBackend` binds the real NumPy
  functions as instance attributes, so routing through the backend costs one
  attribute lookup per fused statement and the results are bitwise-identical
  to direct ``numpy`` calls.
* **Dtype policy lives here.**  :attr:`float_dtype` fixes the precision of
  the probabilistic relaxation (``float64`` reproduces the reference bitwise;
  ``float32`` is the throughput mode, validated to ~1e-5 by the policy
  tests).
* **One seeded stream per policy.**  :meth:`rng` returns a
  :class:`BackendRNG` drawing from a host-side NumPy generator, so a fixed
  seed produces the *same* candidate stream under every policy and sampler
  restarts are reproducible.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, new_rng


class BackendUnavailableError(ImportError):
    """Raised when an explicitly requested runtime (the native C tier) is unavailable."""


class BackendRNG:
    """Seeded random stream yielding arrays of a backend.

    Draws come from one host-side :class:`numpy.random.Generator` and are
    passed through the backend's :meth:`~ArrayBackend.from_numpy`, so every
    dtype policy consumes an identical stream for a given seed, and
    re-seeding reproduces a run exactly.
    """

    __slots__ = ("_backend", "host")

    def __init__(self, backend: "ArrayBackend", seed: SeedLike = None) -> None:
        self._backend = backend
        #: The underlying host generator (shared stream; consume with care).
        self.host = new_rng(seed)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        """Gaussian draw of the given shape, uploaded to the backend."""
        return self._backend.from_numpy(np.asarray(self.host.normal(loc, scale, size)))

    def random(self, size=None):
        """Uniform [0, 1) draw of the given shape, uploaded to the backend."""
        return self._backend.from_numpy(np.asarray(self.host.random(size)))

    def integers(self, low: int, high: Optional[int] = None, size=None):
        """Integer draw of the given shape, uploaded to the backend."""
        return self._backend.from_numpy(np.asarray(self.host.integers(low, high, size)))


class ArrayBackend:
    """Abstract array namespace: creation, elementwise ops, reductions, RNG.

    :class:`NumpyBackend` binds NumPy functions as attributes.  The generic
    method bodies below implement the exotic ops (segmented reductions, bit
    packing) via a host round-trip so a minimal subclass is already correct,
    just not fast.
    """

    #: Name of the backend in a spec ("numpy").
    name: str = "abstract"

    def __init__(self, float_dtype=None) -> None:
        self.float_dtype = np.dtype(float_dtype or np.float64)
        self.bool_dtype = np.bool_
        self.uint8_dtype = np.uint8
        self.uint64_dtype = np.uint64
        self.int64_dtype = np.int64
        #: All-ones constants for the packed execution modes.
        self.packed_ones_u8 = np.uint8(0xFF)
        self.packed_ones_u64 = np.uint64(0xFFFFFFFFFFFFFFFF)

    # -- identity ----------------------------------------------------------------------
    @property
    def cache_key(self) -> str:
        """Stable key for per-backend memos (name plus dtype policy)."""
        return f"{self.name}:{np.dtype(self.float_dtype).name}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}(float_dtype={np.dtype(self.float_dtype).name})"

    # -- host boundary ------------------------------------------------------------------
    def asnumpy(self, array) -> np.ndarray:
        """Download an array to a host NumPy array (identity on NumPy)."""
        raise NotImplementedError

    def from_numpy(self, array: np.ndarray):
        """Upload a host NumPy array to the backend's device (identity on NumPy)."""
        raise NotImplementedError

    # -- creation -----------------------------------------------------------------------
    def asarray(self, array, dtype=None):
        raise NotImplementedError

    def empty(self, shape, dtype=None):
        raise NotImplementedError

    def zeros(self, shape, dtype=None):
        raise NotImplementedError

    def ones(self, shape, dtype=None):
        raise NotImplementedError

    def full(self, shape, value, dtype=None):
        raise NotImplementedError

    def zeros_like(self, array):
        raise NotImplementedError

    def ones_like(self, array):
        raise NotImplementedError

    def copy(self, array):
        """A materialised copy."""
        return array.copy()

    def astype(self, array, dtype):
        return array.astype(dtype)

    # -- elementwise (out= follows NumPy ufunc semantics where supported) ---------------
    def add(self, a, b, out=None):
        raise NotImplementedError

    def subtract(self, a, b, out=None):
        raise NotImplementedError

    def multiply(self, a, b, out=None):
        raise NotImplementedError

    def one_minus(self, a, out=None):
        """``1 - a``: the probabilistic NOT, fused into one statement."""
        raise NotImplementedError

    def exp(self, a):
        raise NotImplementedError

    def sqrt(self, a):
        raise NotImplementedError

    def logical_and(self, a, b, out=None):
        raise NotImplementedError

    def logical_or(self, a, b, out=None):
        raise NotImplementedError

    def logical_not(self, a, out=None):
        raise NotImplementedError

    def bitwise_and(self, a, b, out=None):
        raise NotImplementedError

    def bitwise_or(self, a, b, out=None):
        raise NotImplementedError

    def bitwise_xor(self, a, b, out=None):
        raise NotImplementedError

    # -- reductions / structure ---------------------------------------------------------
    def sum(self, a, axis=None, keepdims=False):
        raise NotImplementedError

    def all(self, a, axis=None):
        raise NotImplementedError

    def any(self, a, axis=None):
        raise NotImplementedError

    def broadcast_to(self, a, shape):
        raise NotImplementedError

    def expand_dims(self, a, axis):
        raise NotImplementedError

    def stack(self, arrays: Sequence, axis: int = 0):
        raise NotImplementedError

    def reshape(self, a, shape):
        return a.reshape(shape)

    def ascontiguousarray(self, a):
        raise NotImplementedError

    # -- segmented reductions (the add.reduceat-style scatter primitives) ---------------
    def add_reduceat(self, a, offsets, axis: int = 0):
        """Segment sums over ``axis``: segment ``i`` spans
        ``[offsets[i], offsets[i + 1])`` (last segment runs to the end).

        Generic implementation via inclusive cumulative sums, assuming the
        *strictly* increasing offsets every compiled plan produces
        (``np.add.reduceat``'s restart-on-decreasing corner is *not*
        reproduced; its empty-segment quirk — an empty segment yields
        ``a[offsets[i]]`` — is).  Summation order differs from the ufunc's
        pairwise reduction, so floating-point results may drift at the last
        few ulps on long segments — inside the ~1e-10 equivalence budget.
        NumPy overrides this with the exact ``np.add.reduceat``.
        """
        if axis != 0:
            raise NotImplementedError("generic add_reduceat supports axis=0 only")
        offsets = np.asarray(
            offsets if isinstance(offsets, np.ndarray) else self.asnumpy(offsets)
        )
        a = self.asarray(a)
        running = a.cumsum(axis=0)
        ends = np.r_[offsets[1:], a.shape[0]] - 1
        totals = running[ends]  # fancy index: already a copy
        totals[1:] = totals[1:] - running[ends[:-1]]
        if offsets[0] > 0:  # first segment must exclude rows before offsets[0]
            totals[0] = totals[0] - running[offsets[0] - 1]
        lengths = np.r_[offsets[1:], a.shape[0]] - offsets
        empty = np.flatnonzero(lengths <= 0)
        if empty.size:  # reduceat quirk: an empty segment yields a[offsets[i]]
            totals[empty] = a[offsets[empty]]
        return totals

    def bitwise_or_reduceat(self, a, offsets, axis: int = 0):
        """Segmented bitwise OR; generic implementation round-trips the host."""
        host = np.bitwise_or.reduceat(self.asnumpy(a), np.asarray(offsets), axis=axis)
        return self.from_numpy(host)

    def bitwise_and_reduce(self, a, axis: int = 0):
        """Bitwise AND over one axis; generic implementation round-trips the host."""
        return self.from_numpy(np.bitwise_and.reduce(self.asnumpy(a), axis=axis))

    # -- bit packing --------------------------------------------------------------------
    def packbits(self, a, axis=None):
        """``np.packbits`` semantics; generic implementation round-trips the host."""
        return self.from_numpy(np.packbits(self.asnumpy(a), axis=axis))

    def unpackbits(self, a, count=None):
        """``np.unpackbits`` on a 1-D word vector; generic host round-trip."""
        return self.from_numpy(np.unpackbits(self.asnumpy(a), count=count))

    # -- rng ----------------------------------------------------------------------------
    def rng(self, seed: SeedLike = None) -> BackendRNG:
        """A seeded random stream producing arrays on this backend."""
        return BackendRNG(self, seed)


class NumpyBackend(ArrayBackend):
    """The host reference backend: direct NumPy, bitwise-identical to the seed.

    Every hot-path function is bound as an instance attribute pointing at the
    real NumPy callable, so ``backend.multiply(a, b, out=out)`` *is*
    ``np.multiply(a, b, out=out)`` — the abstraction adds one attribute
    lookup and nothing else.  ``float_dtype`` defaults to ``float64`` (the
    bitwise reference); construct with ``float32`` for the reduced-precision
    throughput policy.
    """

    name = "numpy"

    def __init__(self, float_dtype=None) -> None:
        super().__init__(float_dtype)
        # Host boundary: identity views, never copies.
        self.asnumpy = np.asarray
        self.from_numpy = np.asarray
        # Creation.
        self.asarray = np.asarray
        self.empty = np.empty
        self.zeros = np.zeros
        self.ones = np.ones
        self.zeros_like = np.zeros_like
        self.ones_like = np.ones_like
        # Elementwise ufuncs (out= supported natively).
        self.add = np.add
        self.subtract = np.subtract
        self.multiply = np.multiply
        self.exp = np.exp
        self.sqrt = np.sqrt
        self.logical_and = np.logical_and
        self.logical_or = np.logical_or
        self.logical_not = np.logical_not
        self.bitwise_and = np.bitwise_and
        self.bitwise_or = np.bitwise_or
        self.bitwise_xor = np.bitwise_xor
        # Reductions / structure.
        self.sum = np.sum
        self.all = np.all
        self.any = np.any
        self.broadcast_to = np.broadcast_to
        self.expand_dims = np.expand_dims
        self.stack = np.stack
        self.ascontiguousarray = np.ascontiguousarray
        # Segmented reductions: the exact ufunc methods.
        self.add_reduceat = np.add.reduceat
        self.bitwise_or_reduceat = np.bitwise_or.reduceat
        self.bitwise_and_reduce = np.bitwise_and.reduce
        self.packbits = np.packbits
        self.unpackbits = np.unpackbits

    def full(self, shape, value, dtype=None):
        return np.full(shape, value, dtype=dtype)

    def one_minus(self, a, out=None):
        return np.subtract(1.0, a, out=out)
