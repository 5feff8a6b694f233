"""Reverse-mode autodiff tensor.

A :class:`Tensor` wraps a NumPy array and records the operation that produced
it; :meth:`Tensor.backward` runs reverse-mode accumulation over the recorded
tape.  Only the operations required by the probabilistic circuit model are
implemented (elementwise arithmetic, sigmoid, powers, reductions), which keeps
the engine small enough to read in one sitting while still expressing the
paper's Eq. 6--10 training loop exactly.

The compiled levelized engine (:mod:`repro.engine`) runs the library's
gradient descent; this tape is the reference it is tested against (see
:mod:`tests.oracles.interpreter`).

Tensor data is a NumPy float array whose dtype follows the input: float
data keeps its dtype, anything else becomes ``float64``, and plain operands
(Python scalars, arrays) combined with a tensor adopt that tensor's dtype.
A tape built from ``float32`` leaves therefore runs entirely in ``float32``
(the throughput policy) and one built from ``float64`` leaves is the
bitwise reference.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

ArrayLike = Union[Any, float, int, Sequence]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager disabling gradient tracking (used for forward-only passes)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def grad_enabled() -> bool:
    """Whether operations currently record the autodiff tape."""
    return _GRAD_ENABLED


def float_array(data: ArrayLike) -> np.ndarray:
    """``data`` as a float NumPy array (a view when no conversion is needed).

    Float input keeps its dtype; any other input (bool, int, Python
    sequences of ints) becomes ``float64``.
    """
    array = np.asarray(data)
    return array if array.dtype.kind == "f" else array.astype(np.float64)


class Tensor:
    """A NumPy-array tensor with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward_fn: Optional[Callable[[Any], None]] = None,
        _op: str = "leaf",
    ) -> None:
        self.data = float_array(data)
        self.grad: Optional[Any] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = _parents if self.requires_grad or _backward_fn else ()
        self._backward_fn = _backward_fn
        self._op = _op

    # -- shape helpers -------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return int(self.data.size)

    def numpy(self) -> np.ndarray:
        """Return the underlying data array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a float."""
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the autodiff graph."""
        return Tensor(self.data, requires_grad=False)

    # -- gradient bookkeeping --------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def _accumulate_grad(self, grad) -> None:
        grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        ``grad`` defaults to ones (only valid semantics for scalar outputs or
        when the caller genuinely wants the sum of all output sensitivities,
        which is what the L2-loss training loop uses).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
        topo = _topological_sort(self)
        self._accumulate_grad(grad)
        for node in reversed(topo):
            if node._backward_fn is None or node.grad is None:
                continue
            node._backward_fn(node.grad)

    # -- arithmetic --------------------------------------------------------------------
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return add(self, as_tensor(other, self))

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return add(as_tensor(other, self), self)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return sub(self, as_tensor(other, self))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return sub(as_tensor(other, self), self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return mul(self, as_tensor(other, self))

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return mul(as_tensor(other, self), self)

    def __neg__(self) -> "Tensor":
        return mul(self, as_tensor(-1.0, self))

    def __pow__(self, exponent: float) -> "Tensor":
        return power(self, exponent)

    def sum(self, axis: Optional[int] = None) -> "Tensor":
        """Sum over ``axis`` (or all elements)."""
        return reduce_sum(self, axis=axis)

    def mean(self) -> "Tensor":
        """Mean over all elements."""
        return reduce_sum(self) * (1.0 / self.size)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{grad_flag})"


def as_tensor(value: Union[Tensor, ArrayLike], like: Tensor) -> Tensor:
    """``value`` itself if it is a tensor, else a constant in ``like``'s dtype."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _unbroadcast(grad, shape: Tuple[int, ...]):
    """Sum ``grad`` down to ``shape`` (inverse of broadcasting)."""
    if tuple(grad.shape) == shape:
        return grad
    # Remove leading broadcast axes.
    while grad.ndim > len(shape):
        grad = np.sum(grad, axis=0)
    # Sum along axes that were broadcast from size 1.
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = np.sum(grad, axis=axis, keepdims=True)
    return np.reshape(grad, shape)


def _topological_sort(root: Tensor) -> List[Tensor]:
    order: List[Tensor] = []
    visited: Set[int] = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _make(
    data: Any,
    parents: Tuple[Tensor, ...],
    backward_fn: Callable[[Any], None],
    op: str,
) -> Tensor:
    requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    if not requires:
        return Tensor(data, requires_grad=False, _op=op)
    return Tensor(
        data, requires_grad=True, _parents=parents, _backward_fn=backward_fn, _op=op
    )


# -- primitive operations -------------------------------------------------------------
def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise addition."""
    out_data = a.data + b.data

    def backward(grad) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad)
        if b.requires_grad:
            b._accumulate_grad(grad)

    return _make(out_data, (a, b), backward, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise subtraction."""
    out_data = a.data - b.data

    def backward(grad) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad)
        if b.requires_grad:
            b._accumulate_grad(-grad)

    return _make(out_data, (a, b), backward, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise multiplication."""
    out_data = a.data * b.data

    def backward(grad) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad * b.data)
        if b.requires_grad:
            b._accumulate_grad(grad * a.data)

    return _make(out_data, (a, b), backward, "mul")


def power(a: Tensor, exponent: float) -> Tensor:
    """Elementwise power with a constant exponent."""
    out_data = a.data**exponent

    def backward(grad) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad * exponent * a.data ** (exponent - 1))

    return _make(out_data, (a,), backward, "pow")


def reduce_sum(a: Tensor, axis: Optional[int] = None) -> Tensor:
    """Sum reduction over an axis (or all elements)."""
    out_data = np.sum(a.data, axis=axis)

    def backward(grad) -> None:
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate_grad(np.broadcast_to(grad, a.data.shape).copy())
        else:
            expanded = np.expand_dims(grad, axis=axis)
            a._accumulate_grad(np.broadcast_to(expanded, a.data.shape).copy())

    return _make(np.asarray(out_data), (a,), backward, "sum")


def exp(a: Tensor) -> Tensor:
    """Elementwise exponential."""
    out_data = np.exp(a.data)

    def backward(grad) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad * out_data)

    return _make(out_data, (a,), backward, "exp")


def take_column(a: Tensor, index: int) -> Tensor:
    """Select column ``index`` of a 2-D tensor, returning a 1-D tensor.

    Used by the probabilistic circuit model to route one primary input's
    probability column out of the ``(batch, n_inputs)`` embedding matrix.
    """
    if a.data.ndim != 2:
        raise ValueError(f"take_column expects a 2-D tensor, got shape {a.shape}")
    out_data = a.data[:, index]

    def backward(grad) -> None:
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[:, index] = grad
            a._accumulate_grad(full)

    return _make(out_data, (a,), backward, "take_column")


def stack_columns(tensors: Sequence[Tensor]) -> Tensor:
    """Stack 1-D tensors of equal length into a ``(batch, len(tensors))`` tensor.

    The inverse of :func:`take_column`; used to assemble the primary-output
    matrix ``Y`` from per-net output values.
    """
    if not tensors:
        raise ValueError("stack_columns requires at least one tensor")
    out_data = np.stack([t.data for t in tensors], axis=1)

    def backward(grad) -> None:
        for column, tensor in enumerate(tensors):
            if tensor.requires_grad:
                tensor._accumulate_grad(grad[:, column])

    return _make(out_data, tuple(tensors), backward, "stack_columns")


def full_like_batch(batch_size: int, value: float, dtype=np.float64) -> Tensor:
    """A constant 1-D tensor of length ``batch_size`` (no gradient)."""
    return Tensor(np.full(batch_size, value, dtype=dtype))
