"""Reverse-mode autodiff tensor.

A :class:`Tensor` wraps a NumPy array and records the operation that produced
it; :meth:`Tensor.backward` runs reverse-mode accumulation over the recorded
tape.  Only the operations required by the probabilistic circuit model are
implemented (elementwise arithmetic, sigmoid, powers, reductions), which keeps
the engine small enough to read in one sitting while still expressing the
paper's Eq. 6--10 training loop exactly.

Since the compiled levelized engine (:mod:`repro.engine`) took over the hot
path, the tape serves two roles: the reference ``"interpreter"`` backend for
equivalence testing, and the glue layer for code that wants autodiff around a
compiled program (the engine registers a single tape node per forward call).

Arrays live on the *active array backend* (:func:`repro.xp.active_backend`):
tensor data is created with the backend's ``asarray``/``zeros``/``stack`` and
its float-dtype policy, and all arithmetic uses operators the backend's
arrays implement natively — so the same tape runs under the ``float64``
reference policy or the ``float32`` throughput policy without a code change.
The tape deliberately does *not* pin a backend per tensor: a graph must be
built **and** backpropagated under the backend that created it (the samplers
guarantee this by wrapping each run in :func:`repro.xp.use_backend`).
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.xp import active_backend, to_numpy

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


class Tensor:
    """A backend-array tensor with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward_fn: Optional[Callable[[Any], None]] = None,
        _op: str = "leaf",
    ) -> None:
        xp = active_backend()
        self.data = xp.asarray(data, dtype=xp.float_dtype)
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

    def numpy(self):
        """Return the underlying data as a host NumPy array.

        Shared (not copied) on the NumPy backend; downloaded from the device
        on accelerator backends.
        """
        return to_numpy(self.data)

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
            self.grad = active_backend().copy(grad)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        ``grad`` defaults to ones (only valid semantics for scalar outputs or
        when the caller genuinely wants the sum of all output sensitivities,
        which is what the L2-loss training loop uses).
        """
        xp = active_backend()
        if grad is None:
            grad = xp.ones_like(self.data)
        else:
            grad = xp.asarray(grad, dtype=xp.float_dtype)
        topo = _topological_sort(self)
        self._accumulate_grad(grad)
        for node in reversed(topo):
            if node._backward_fn is None or node.grad is None:
                continue
            node._backward_fn(node.grad)

    # -- arithmetic --------------------------------------------------------------------
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return add(self, _ensure_tensor(other))

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return add(_ensure_tensor(other), self)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return sub(self, _ensure_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return sub(_ensure_tensor(other), self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return mul(self, _ensure_tensor(other))

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return mul(_ensure_tensor(other), self)

    def __neg__(self) -> "Tensor":
        return mul(self, Tensor(-1.0))

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


def _ensure_tensor(value: Union[Tensor, ArrayLike]) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _unbroadcast(grad, shape: Tuple[int, ...]):
    """Sum ``grad`` down to ``shape`` (inverse of broadcasting)."""
    if tuple(grad.shape) == shape:
        return grad
    xp = active_backend()
    # Remove leading broadcast axes.
    while grad.ndim > len(shape):
        grad = xp.sum(grad, axis=0)
    # Sum along axes that were broadcast from size 1.
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = xp.sum(grad, axis=axis, keepdims=True)
    return xp.reshape(grad, shape)


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
    xp = active_backend()
    out_data = xp.sum(a.data, axis=axis)

    def backward(grad) -> None:
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate_grad(xp.copy(xp.broadcast_to(grad, a.data.shape)))
        else:
            expanded = xp.expand_dims(grad, axis=axis)
            a._accumulate_grad(xp.copy(xp.broadcast_to(expanded, a.data.shape)))

    return _make(xp.asarray(out_data), (a,), backward, "sum")


def exp(a: Tensor) -> Tensor:
    """Elementwise exponential."""
    out_data = active_backend().exp(a.data)

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
            full = active_backend().zeros_like(a.data)
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
    out_data = active_backend().stack([t.data for t in tensors], axis=1)

    def backward(grad) -> None:
        for column, tensor in enumerate(tensors):
            if tensor.requires_grad:
                tensor._accumulate_grad(grad[:, column])

    return _make(out_data, tuple(tensors), backward, "stack_columns")


def full_like_batch(batch_size: int, value: float) -> Tensor:
    """A constant 1-D tensor of length ``batch_size`` (no gradient)."""
    xp = active_backend()
    return Tensor(xp.full(batch_size, value, dtype=xp.float_dtype))
