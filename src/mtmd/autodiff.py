"""Dense float64 tensors with a minimal reverse-mode differentiation tape.

Every operation returns a new :class:`Tensor` that records its inputs and a
closure mapping the output gradient to input gradients.  The graph is
rebuilt on every forward pass; :func:`backward` walks it once in reverse
topological order, so two calls on the same graph produce bitwise-identical
gradients.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .errors import ContractError, ShapeError

EPS = 1e-12
LEAKY_SLOPE = 0.01


class Tensor:
    """A float64 array plus the tape node that produced it.

    Leaf tensors are built directly (``Tensor(data, requires_grad=...,
    name=...)``) and reject non-finite entries.  Interior nodes are created
    by the operations below and skip that check.
    """

    __slots__ = ("data", "requires_grad", "name", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            label = f" '{name}'" if name else ""
            raise ValueError(f"tensor{label} contains non-finite entries")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], grad_fn: Callable) -> Tensor:
    """Build an interior node; constant subgraphs are pruned from the tape."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.name = None
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._grad_fn = grad_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._grad_fn = None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def grad_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(data, (a, b), grad_fn)


def subtract(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def grad_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _node(data, (a, b), grad_fn)


def multiply(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def grad_fn(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _node(data, (a, b), grad_fn)


def divide(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def grad_fn(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )

    return _node(data, (a, b), grad_fn)


# ---------------------------------------------------------------------------
# linear algebra and shape manipulation

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul expects two matrices, got shapes {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}"
        )
    data = a.data @ b.data

    def grad_fn(g):
        return g @ b.data.T, a.data.T @ g

    return _node(data, (a, b), grad_fn)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.data.shape}")
    return _node(a.data.T.copy(), (a,), lambda g: (g.T,))


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    original = a.data.shape
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(original),))


def reduce_sum(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis)
    shape = a.data.shape

    def grad_fn(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape),)

    return _node(data, (a,), grad_fn)


def mean_all(a) -> Tensor:
    a = as_tensor(a)
    return multiply(reduce_sum(a), 1.0 / a.data.size)


# ---------------------------------------------------------------------------
# nonlinearities

def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)

    def grad_fn(g):
        # subgradient 0 at exactly zero; callers clamp afterwards anyway
        return (np.where(a.data > 0.0, 0.5 * g / np.where(a.data > 0.0, out, 1.0), 0.0),)

    return _node(out, (a,), grad_fn)


def leaky_relu(a) -> Tensor:
    a = as_tensor(a)
    factor = np.where(a.data >= 0.0, 1.0, LEAKY_SLOPE)
    return _node(a.data * factor, (a,), lambda g: (g * factor,))


def clamp_min(a, floor: float) -> Tensor:
    """max(x, floor) elementwise; gradient is zero on the clamped side."""
    a = as_tensor(a)
    keep = a.data > floor
    return _node(np.maximum(a.data, floor), (a,), lambda g: (g * keep,))


# ---------------------------------------------------------------------------
# normalizations

def softmax(a, axis: int) -> Tensor:
    """Exp-normalize along ``axis`` with max-subtraction for stability."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _node(out, (a,), grad_fn)


def masked_softmax(a, mask: np.ndarray, axis: int) -> Tensor:
    """Softmax restricted to ``mask``; all-False slices yield zeros."""
    a = as_tensor(a)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.data.shape:
        raise ShapeError(f"mask shape {mask.shape} != input shape {a.data.shape}")
    neg = np.where(mask, a.data, -np.inf)
    peak = neg.max(axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    e = np.exp(a.data - peak) * mask
    denom = e.sum(axis=axis, keepdims=True)
    out = e / np.where(denom == 0.0, 1.0, denom)

    def grad_fn(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _node(out, (a,), grad_fn)


def cosine_matrix(a, b) -> Tensor:
    """Pairwise cosine similarity between rows of ``a`` and rows of ``b``.

    Row norms below ``EPS`` are clamped to ``EPS``, so zero rows score 0
    against everything instead of dividing by zero.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise ShapeError(
            f"cosine_matrix expects row-aligned matrices, got {a.data.shape} and {b.data.shape}"
        )
    na = clamp_min(sqrt(reduce_sum(multiply(a, a), axis=1)), EPS)
    nb = clamp_min(sqrt(reduce_sum(multiply(b, b), axis=1)), EPS)
    denom = matmul(reshape(na, (a.data.shape[0], 1)), reshape(nb, (1, b.data.shape[0])))
    return divide(matmul(a, transpose(b)), denom)


# ---------------------------------------------------------------------------
# reverse sweep

def backward(loss: Tensor) -> dict[str, np.ndarray]:
    """Return d(loss)/d(leaf) for every named leaf that requires gradients.

    ``loss`` must be a scalar.  Unnamed differentiable leaves still
    propagate but are not reported.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward root must be a scalar, got shape {loss.data.shape}")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    named: dict[str, np.ndarray] = {}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is None:
            if node.name is not None:
                named[node.name] = g
            continue
        for parent, pg in zip(node._parents, node._grad_fn(g)):
            if not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return named


def parameters(tensors: Iterable[Tensor]) -> dict[str, Tensor]:
    """Index named differentiable leaves by name, rejecting duplicates."""
    out: dict[str, Tensor] = {}
    for t in tensors:
        if not (t.requires_grad and t.name):
            continue
        if t.name in out:
            raise ContractError(f"duplicate parameter name {t.name!r}")
        out[t.name] = t
    return out
