"""Dense float tensors with reverse-mode autodiff on an explicit tape.

Values live in contiguous row-major numpy arrays, float64 unless a float32
array is passed in. Differentiable ops record a node on the currently active
``Tape``; ``backward`` replays the nodes in reverse order, accumulating into
``Tensor.grad``, and then drops them. Accumulation order is fixed by the
recording order, so two identical runs produce bit-identical gradients.

Attention heads are a leading (H, M, .) stack axis; see ``split_heads``.

Tensors that appear on a tape are never mutated in place; the optimizer
updates leaf parameters only between tapes.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
from scipy.special import erf

from .errors import ShapeError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_active_tape = None
_mac_counter = None


class MacCounter:
    """Counts multiply-accumulates performed by matmul while active."""

    def __init__(self):
        self.macs = 0


@contextlib.contextmanager
def count_macs():
    """Instrument matmul: every a@b adds H*m*k*n MACs to the yielded counter."""
    global _mac_counter
    prev = _mac_counter
    _mac_counter = counter = MacCounter()
    try:
        yield counter
    finally:
        _mac_counter = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_tape")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float64, np.float32):
            arr = arr.astype(np.float64)
        # ascontiguousarray would promote 0-d scalars to 1-d, so guard it
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._tape = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        backward(self)

    # Small operator surface; everything delegates to the module functions.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


class _Node:
    __slots__ = ("output", "inputs", "backfn")

    def __init__(self, output, inputs, backfn):
        self.output = output
        self.inputs = inputs
        self.backfn = backfn


class Tape:
    """Ordered record of ops; nodes appear in forward (topological) order."""

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        global _active_tape
        if _active_tape is not None:
            raise RuntimeError("tapes do not nest")
        _active_tape = self
        return self

    def __exit__(self, *exc):
        global _active_tape
        _active_tape = None
        return False

    def backward(self, loss):
        if loss.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not self.nodes:
            raise RuntimeError("backward on an empty tape")
        loss.grad = np.ones((), dtype=loss.data.dtype)
        # Reverse replay: each node is visited exactly once, accumulation
        # order is the fixed reverse recording order.
        for node in reversed(self.nodes):
            gout = node.output.grad
            if gout is None:
                continue
            for inp, gin in zip(node.inputs, node.backfn(gout)):
                if gin is None or not inp.requires_grad:
                    continue
                if inp.grad is None:
                    inp.grad = np.zeros_like(inp.data)
                inp.grad = inp.grad + gin
        # Every output points back at this tape, so holding the nodes would
        # keep the whole graph alive until the cyclic GC ran.
        self.nodes = []


def backward(loss):
    """Fill ``grad`` for every tensor the recorded graph reaches from loss."""
    if loss._tape is None:
        raise RuntimeError("loss was not recorded on a tape")
    loss._tape.backward(loss)


def _record(out, inputs, backfn):
    out.requires_grad = any(t.requires_grad for t in inputs)
    if _active_tape is not None and out.requires_grad:
        out._tape = _active_tape
        _active_tape.nodes.append(_Node(out, inputs, backfn))
    return out


def _unbroadcast(grad, shape):
    # Sum the gradient down over axes that were broadcast on the forward pass.
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _broadcastable(a, b, op):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"cannot broadcast shapes {a.shape} and {b.shape} for {op}")
    return a, b


def add(a, b):
    """Elementwise sum with trailing-dimension broadcasting."""
    a, b = _broadcastable(a, b, "add")
    out = Tensor(a.data + b.data)

    def back(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(out, (a, b), back)


def sub(a, b):
    a, b = _broadcastable(a, b, "sub")
    out = Tensor(a.data - b.data)

    def back(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record(out, (a, b), back)


def mul(a, b):
    """Elementwise product with broadcasting."""
    a, b = _broadcastable(a, b, "mul")
    out = Tensor(a.data * b.data)

    def back(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record(out, (a, b), back)


def neg(a):
    a = _as_tensor(a)
    out = Tensor(-a.data)
    return _record(out, (a,), lambda g: (-g,))


def matmul(a, b):
    """(M, K) @ (K, N), or (H, M, K) @ (H, K, N) as H independent products.

    Backward is dA = g @ B^T, dB = A^T @ g over the last two axes.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if (a.ndim not in (2, 3) or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    if _mac_counter is not None:
        _mac_counter.macs += a.size * b.shape[-1]  # H*m*k*n
    out = Tensor(a.data @ b.data)

    def back(g):
        return g @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ g

    return _record(out, (a, b), back)


def transpose(a):
    """Swap the last two axes of a matrix or an (H, M, N) stack."""
    a = _as_tensor(a)
    if a.ndim not in (2, 3):
        raise ShapeError(f"transpose expects a matrix or a stack, got shape {a.shape}")
    out = Tensor(np.ascontiguousarray(a.data.swapaxes(-1, -2)))
    return _record(out, (a,), lambda g: (np.ascontiguousarray(g.swapaxes(-1, -2)),))


def _split(x, heads):
    m, d = x.shape
    return np.ascontiguousarray(x.reshape(m, heads, d // heads).transpose(1, 0, 2))


def _merge(x):
    h, m, dh = x.shape
    return x.transpose(1, 0, 2).reshape(m, h * dh)


def split_heads(x, heads):
    """(M, D) rows -> (H, M, D/H) stack; head i holds columns [i*D/H, (i+1)*D/H)."""
    x = _as_tensor(x)
    if x.ndim != 2 or heads < 1 or x.shape[1] % heads:
        raise ShapeError(f"cannot split shape {x.shape} into {heads} heads")
    out = Tensor(_split(x.data, heads))
    return _record(out, (x,), lambda g: (_merge(g),))


def merge_heads(x):
    """(H, M, Dh) stack -> (M, H*Dh) rows; the inverse of ``split_heads``."""
    x = _as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"merge_heads expects an (H, M, Dh) stack, got shape {x.shape}")
    out = Tensor(_merge(x.data))
    return _record(out, (x,), lambda g: (_split(g, x.shape[0]),))


def tsum(a, axis=None, keepdims=False):
    """Sum over all elements (axis=None gives a scalar of shape ())."""
    a = _as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def back(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _record(out, (a,), back)


def mean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    n = a.size if axis is None else a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def softmax_rows(x):
    """Softmax over the last axis, stabilized by subtracting the row max."""
    x = _as_tensor(x)
    if x.ndim not in (2, 3) or x.shape[-1] < 1:
        raise ShapeError(f"softmax_rows expects a non-empty matrix or stack, got {x.shape}")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def back(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return _record(out, (x,), back)


def layernorm(x, gain, bias, eps=1e-5):
    """Per-row normalization to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if x.ndim != 2:
        raise ShapeError(f"layernorm expects a matrix, got {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layernorm affine shapes {gain.shape}/{bias.shape} do not match width {d}"
        )
    if eps <= 0:
        raise ValueError("layernorm eps must be positive")
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(xhat * gain.data + bias.data)

    def back(g):
        dgain = (g * xhat).sum(axis=0)
        dbias = g.sum(axis=0)
        dxhat = g * gain.data
        dx = (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        ) * inv
        return dx, dgain, dbias

    return _record(out, (x, gain, bias), back)


def gelu(x):
    """Exact erf-based GELU."""
    x = _as_tensor(x)
    phi = 0.5 * (1.0 + erf(x.data / _SQRT2))
    out = Tensor(x.data * phi)

    def back(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data * x.data)
        return (g * (phi + x.data * pdf),)

    return _record(out, (x,), back)


def sigmoid(x):
    x = _as_tensor(x)
    # Split by sign so exp never overflows.
    pos = x.data >= 0
    y = np.empty_like(x.data)
    y[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    y[~pos] = ex / (1.0 + ex)
    out = Tensor(y)
    return _record(out, (x,), lambda g: (g * y * (1.0 - y),))


def gather_rows(x, idx):
    """Select rows by index; backward scatter-adds into the source rows."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"gather_rows expects a matrix, got {x.shape}")
    idx = np.asarray(idx, dtype=np.intp).reshape(-1)
    n = x.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"gather_rows index out of range for {n} rows: {idx}")
    out = Tensor(x.data[idx].copy())

    def back(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx, idx, g)
        return (dx,)

    return _record(out, (x,), back)


def scatter_rows(base, idx, rows):
    """Copy of ``base`` with ``rows`` written at (unique) indices ``idx``.

    Untouched rows are bit-identical copies of ``base``; their gradient
    passes straight through, while the written rows route gradient to
    ``rows`` only.
    """
    base, rows = _as_tensor(base), _as_tensor(rows)
    idx = np.asarray(idx, dtype=np.intp).reshape(-1)
    if base.ndim != 2 or rows.ndim != 2 or rows.shape != (idx.size, base.shape[1]):
        raise ShapeError(
            f"scatter_rows mismatch: base {base.shape}, rows {rows.shape}, {idx.size} indices"
        )
    if idx.size != np.unique(idx).size:
        raise IndexError("scatter_rows requires unique indices")
    if idx.size and (idx.min() < 0 or idx.max() >= base.shape[0]):
        raise IndexError(f"scatter_rows index out of range for {base.shape[0]} rows")
    data = base.data.copy()
    data[idx] = rows.data
    out = Tensor(data)

    def back(g):
        dbase = g.copy()
        dbase[idx] = 0.0
        return dbase, g[idx].copy()

    return _record(out, (base, rows), back)


def concat_rows(parts):
    parts = [_as_tensor(p) for p in parts]
    widths = {p.shape[1] for p in parts}
    if len(widths) != 1:
        raise ShapeError(f"concat_rows width mismatch: {[p.shape for p in parts]}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=0))
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def back(g):
        return tuple(g[offsets[i] : offsets[i + 1]].copy() for i in range(len(parts)))

    return _record(out, tuple(parts), back)


def cross_entropy(logits, label):
    """Softmax cross-entropy of one logits vector against an integer label.

    Computed as logsumexp(logits) - logits[label] with max subtraction, so
    large logits neither overflow nor lose the small-loss limit.
    """
    logits = _as_tensor(logits)
    flat = logits.data.reshape(-1)
    c = flat.size
    if not (0 <= label < c):
        raise IndexError(f"label {label} out of range for {c} classes")
    m = flat.max()
    z = flat - m
    lse = m + np.log(np.exp(z).sum())
    out = Tensor(np.asarray(lse - flat[label]))

    def back(g):
        p = np.exp(z)
        p /= p.sum()
        p[label] -= 1.0
        return (g * p.reshape(logits.shape),)

    return _record(out, (logits,), back)
