"""Reverse-mode automatic differentiation on top of numpy.

This module provides the :class:`Tensor` class, a thin wrapper around
``numpy.ndarray`` that records a dynamic computation graph (a "tape") as
operations are applied.  Calling :meth:`Tensor.backward` on a scalar result
walks the tape in reverse topological order and accumulates gradients into
every tensor created with ``requires_grad=True``.

The engine substitutes for PyTorch in this reproduction (PyTorch is not
available offline); it implements exactly the primitives needed by the TMN
paper: broadcast-aware arithmetic, matrix multiplication (including batched),
the usual activations, softmax, reductions, concatenation and indexing.
Gradients are validated against central finite differences in the test suite
(see ``repro.autograd.gradcheck``).
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "profiled_op"]

_GRAD_ENABLED = True

#: Active op profiler (see :mod:`repro.obs.profile`), or None.  Kept here so
#: every op — Tensor method or free function — can reach it with one global
#: read; installing/removing it is the profiler's job via :func:`_set_profiler`.
_PROFILER = None


def _set_profiler(profiler) -> None:
    """Install (or, with None, remove) the active op profiler.

    Called only by :class:`repro.obs.profile.OpProfiler`; the engine itself
    never imports ``repro.obs``.
    """
    global _PROFILER
    _PROFILER = profiler


def profiled_op(fn):
    """Make a free-function autodiff op visible to the op profiler.

    Tensor *methods* are intercepted by class-attribute patching while a
    profiler is enabled, which costs nothing when disabled.  Free-function
    ops (``repro.autograd.ops``, ``repro.nn.fused``) are bound by name at
    their import sites, so patching cannot reach them; this decorator adds
    the hook at the definition instead.  Disabled cost is one global read
    per call.  The original is kept on ``__wrapped__`` (via functools).
    """
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        profiler = _PROFILER
        if profiler is None:
            return fn(*args, **kwargs)
        return profiler.call(name, fn, args, kwargs)

    return wrapper


class no_grad:
    """Context manager that disables graph construction.

    Inside a ``with no_grad():`` block all operations produce detached
    tensors, mirroring ``torch.no_grad``.  Useful during evaluation where
    building the tape would only waste memory.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record the computation graph."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    When the forward pass broadcast an operand up to a larger shape, the
    gradient flowing back must be summed over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(data: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(data, np.ndarray):
        arr = data
    else:
        arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype.kind in "iub":
        arr = arr.astype(np.float64)
    return arr


def _released_backward(grad: np.ndarray) -> None:
    """Stand-in closure of a node whose graph a backward pass has freed."""
    raise RuntimeError(
        "trying to backward through the graph a second time: backward() "
        "frees the graph it runs through, so rebuild it with a new forward pass"
    )


class Tensor:
    """A numpy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array-like payload.  Integer inputs are promoted to float64.
    requires_grad:
        Whether gradients should be accumulated into this tensor during
        :meth:`backward`.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "_grad_sink",
        "name",
        "__weakref__",
    )

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        self.data: np.ndarray = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self):
        """Numpy dtype of the payload."""
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        """Transpose (reverses all axes), autodiff-aware."""
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """The single scalar value (errors for non-scalars)."""
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Drop any accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result tensor wired into the tape (if grad is enabled)."""
        parents = tuple(parents)
        needs_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs_grad)
        if needs_grad:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, copy=True)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Every interior node it passes through is released afterwards (its
        closure and parent links are dropped), so a second backward through
        the same graph raises ``RuntimeError``.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults to
            ones (only valid for scalar tensors, as in PyTorch).
        """
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient is only "
                    "supported for scalar tensors"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological sort (iterative to avoid recursion limits on long
        # LSTM chains).
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            backward = node._backward
            if backward is None:
                # Leaf tensor: accumulate into .grad
                if node_grad is not None and node.requires_grad:
                    node._accumulate(node_grad)
                continue
            # Free the graph as it is consumed, like PyTorch without
            # retain_graph: every closure refers to its own output, so a
            # kept tape is a reference cycle only the cyclic GC reclaims.
            node._backward = _released_backward
            node._parents = ()
            if node_grad is None:
                continue
            # _backward closures stash partial gradients via the shared
            # dict through _send below.
            node._grad_sink = grads  # type: ignore[attr-defined]
            backward(node_grad)
            del node._grad_sink  # type: ignore[attr-defined]

    # The backward closures cannot see the `grads` dict directly, so each op
    # routes parent gradients through this helper.
    def _send(self, parent: "Tensor", grad: np.ndarray) -> None:
        if not (parent.requires_grad or parent._backward is not None):
            return
        sink = getattr(self, "_grad_sink")
        key = id(parent)
        if key in sink:
            sink[key] = sink[key] + grad
        else:
            sink[key] = grad

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray, a=self, b=other) -> None:
            out._send(a, _unbroadcast(grad, a.shape))
            out._send(b, _unbroadcast(grad, b.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray, a=self, b=other) -> None:
            out._send(a, _unbroadcast(grad, a.shape))
            out._send(b, _unbroadcast(-grad, b.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray, a=self, b=other) -> None:
            out._send(a, _unbroadcast(grad * b.data, a.shape))
            out._send(b, _unbroadcast(grad * a.data, b.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray, a=self, b=other) -> None:
            out._send(a, _unbroadcast(grad / b.data, a.shape))
            out._send(b, _unbroadcast(-grad * a.data / (b.data**2), b.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, -grad)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        out_data = self.data**exponent

        def backward(grad: np.ndarray, a=self, n=exponent) -> None:
            out._send(a, grad * n * a.data ** (n - 1))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray, a=self, b=other) -> None:
            a_data, b_data = a.data, b.data
            if a_data.ndim == 1 and b_data.ndim == 1:
                out._send(a, grad * b_data)
                out._send(b, grad * a_data)
                return
            if a_data.ndim == 1:
                a_mat = a_data[None, :]
                grad_mat = grad[None, ...] if grad.ndim == b_data.ndim - 1 else grad
                out._send(a, _unbroadcast(grad_mat @ np.swapaxes(b_data, -1, -2), a.shape))
                out._send(b, _unbroadcast(np.swapaxes(a_mat, -1, -2) @ grad_mat, b.shape))
                return
            if b_data.ndim == 1:
                grad_col = grad[..., None]
                out._send(a, _unbroadcast(grad_col * b_data, a.shape))
                out._send(b, _unbroadcast((np.swapaxes(a_data, -1, -2) @ grad_col)[..., 0], b.shape))
                return
            out._send(a, _unbroadcast(grad @ np.swapaxes(b_data, -1, -2), a.shape))
            out._send(b, _unbroadcast(np.swapaxes(a_data, -1, -2) @ grad, b.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        # lint: allow(N001) — raw engine op; bounding the argument is the
        # caller's contract (ops.softmax subtracts the row max first).
        out_data = np.exp(self.data)  # lint: allow(N001)

        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, grad * out_data)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        # lint: allow(N002) — raw engine op; adding eps here would bias every
        # caller, so guarding is the caller's contract (see core.similarity).
        out_data = np.log(self.data)  # lint: allow(N002)

        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, grad / a.data)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        # lint: allow(N002) — raw engine op; callers add eps before the call
        # (see ops.euclidean_distance), keeping the gradient finite at 0.
        out_data = np.sqrt(self.data)  # lint: allow(N002)

        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, grad * 0.5 / out_data)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, grad * (1.0 - out_data**2))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid (overflow-free two-branch form)."""
        z = np.exp(-np.abs(self.data))
        out_data = np.where(self.data >= 0, 1.0 / (1.0 + z), z / (1.0 + z))

        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, grad * out_data * (1.0 - out_data))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def relu(self) -> "Tensor":
        """Elementwise max(x, 0)."""
        mask = self.data > 0
        out_data = np.where(mask, self.data, 0.0)

        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, grad * mask)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def leaky_relu(self, negative_slope: float = 0.1) -> "Tensor":
        """LeakyReLU with the paper's slope of 0.1 (Eq. 5)."""
        mask = self.data >= 0
        out_data = np.where(mask, self.data, negative_slope * self.data)

        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, grad * np.where(mask, 1.0, negative_slope))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def abs(self) -> "Tensor":
        """Elementwise absolute value (sign gradient)."""
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, grad * np.sign(a.data))

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over the given axis (or everything), autodiff-aware."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray, a=self) -> None:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            out._send(a, np.broadcast_to(g, a.shape).copy())

        out = Tensor._make(out_data, (self,), backward)
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over the given axis (or everything)."""
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[ax] for ax in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over the given axis; ties split the gradient."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray, a=self) -> None:
            g = np.asarray(grad)
            expanded = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                expanded = np.expand_dims(out_data, axis=axis)
            # Exact equality is how argmax ties are identified: `expanded`
            # holds copies of values taken from `a.data` itself.
            mask = a.data == expanded  # lint: allow(N004)
            # Split gradient equally among ties, as PyTorch does for amax.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            out._send(a, g * mask / counts)

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        """View with a new shape (same number of elements)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, grad.reshape(a.shape))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def transpose(self, *axes) -> "Tensor":
        """Permute axes (defaults to full reversal)."""
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, grad.transpose(inverse))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        """Exchange two axes."""
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(axes)

    def expand_dims(self, axis: int) -> "Tensor":
        """Insert a length-1 axis at the given position."""
        out_data = np.expand_dims(self.data, axis)

        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, np.squeeze(grad, axis=axis))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        """Remove length-1 axes (optionally one specific axis)."""
        out_data = np.squeeze(self.data, axis=axis)

        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, grad.reshape(a.shape))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def broadcast_to(self, shape: Tuple[int, ...]) -> "Tensor":
        """Broadcast to a larger shape; gradient sums back."""
        out_data = np.broadcast_to(self.data, shape)

        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, _unbroadcast(grad, a.shape))

        out = Tensor._make(np.array(out_data), (self,), backward)
        return out

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(grad: np.ndarray, a=self) -> None:
            full = np.zeros_like(a.data)
            np.add.at(full, key, grad)
            out._send(a, full)

        out = Tensor._make(np.array(out_data), (self,), backward)
        return out
