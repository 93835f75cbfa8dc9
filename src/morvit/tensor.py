"""Dense float tensors with reverse-mode autodiff on an explicit tape.

Values live in contiguous row-major numpy arrays, float64 unless a float32
array is passed in. Differentiable ops record a node on the currently active
``Tape``; ``backward`` replays the nodes in reverse order, accumulating into
``Tensor.grad``, and then drops them. Accumulation order is fixed by the
recording order, so two identical runs produce bit-identical gradients.

Gradients follow one ownership rule. A gradient a backward function returns
is a read-only result: it may be a view of the output's gradient, and the
input adopts it without a copy. The replay adds in place only into arrays it
allocated itself during this replay, and it releases each non-leaf gradient
(``grad = None``) once its node has run, so after ``backward`` only leaves
hold gradients, each in memory of its own. A backward function computes an
input's gradient only when that input requires one, and returns None else.

The encoder block and the model's ends are not composed of these ops. The
block's sublayers ``backbone.attention_sublayer`` and ``mlp_sublayer``, the
patch embedding ``backbone.embed`` and the batch mean ``cross_entropy`` are
fused ops: each computes in raw numpy, records one node through ``_record``
and brings a hand-written backward under the same ownership rule. A block
call records 2 nodes instead of the 26 of its composed form, the embedding 1
instead of up to 6, and the loss of B images 1 instead of 2B. Every forward
matrix product, fused or not, goes through ``_mm``, the one place
``count_macs`` counts.

Attention heads, and the images of a batch, share a leading (S*H, M, .) stack
axis; see ``split_heads``. ``matmul`` and ``softmax_rows`` also take such
stacks. No source caller passes one since the block is fused, but the
composed block that the fused one is tested against
(``tests/oracles.py::composed_encoder_block``) runs on them.

Tensors that appear on a tape are never mutated in place; the optimizer
updates leaf parameters only between tapes.
"""

from __future__ import annotations

import contextlib
import ctypes

import numpy as np

from .errors import ShapeError

_active_tape = None
_mac_counter = None

# glibc's malloc raises its mmap threshold to the largest block freed so far
# and serves every later block of at least that size with a fresh mmap. The
# engine's per-step arrays for a batch (0.5 to 2 MB for 8 desk-bench images)
# sit at that size, so they page-fault in anew on every step: about 5,000
# minor faults per 64-image evaluation pass on a 2-core x86-64 host, in a
# pass that took 11% longer than with the thresholds fixed. Fixed thresholds
# keep such blocks on the heap for reuse. Without glibc this does nothing.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_large_blocks_on_heap():
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # glibc's largest allowed on 64-bit


_keep_large_blocks_on_heap()


class MacCounter:
    """Counts the multiply-accumulates of forward matrix products while active."""

    def __init__(self):
        self.macs = 0


@contextlib.contextmanager
def count_macs():
    """Instrument ``_mm``: every a@b adds H*m*k*n MACs to the yielded counter."""
    global _mac_counter
    prev = _mac_counter
    _mac_counter = counter = MacCounter()
    try:
        yield counter
    finally:
        _mac_counter = prev


def _mm(a, b):
    """Raw-array a @ b of an (M, K) or (H, M, K) ``a``, counted as H*m*k*n MACs.

    Every forward matrix product goes through here, ``matmul``'s and the
    fused block ops' alike, so instrumented MACs equal the profiler's count.
    """
    if _mac_counter is not None:
        _mac_counter.macs += a.size * b.shape[-1]
    return a @ b


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_tape")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.char not in "df":  # float64, float32
            arr = arr.astype(np.float64)
        # ascontiguousarray would promote 0-d scalars to 1-d, so guard it
        if not arr.flags.c_contiguous:
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
        # Reverse replay in the fixed reverse recording order; each node runs
        # once, after every consumer of its output has contributed. Backward
        # functions return fresh arrays or views of their g. Per the module
        # docstring, an input adopts its first contribution, the second
        # allocates the sum, and only such an array (``owned``) takes later
        # ones in place. The sums are a zero-filled accumulator's bit for
        # bit, up to the sign of an exact zero.
        owned = set()
        for node in reversed(self.nodes):
            out = node.output
            gout = out.grad
            if gout is None:
                continue
            for inp, gin in zip(node.inputs, node.backfn(gout)):
                if gin is None or not inp.requires_grad:
                    continue
                if inp.grad is None:
                    # a leaf keeps its gradient past the replay, so it
                    # copies a view: no two leaves share memory
                    inp.grad = gin if inp._tape is self or gin.base is None else gin.copy()
                elif id(inp) in owned:
                    inp.grad += gin
                else:
                    inp.grad = inp.grad + gin
                    owned.add(id(inp))
            # nothing reads a non-leaf gradient once its node has run
            out.grad = None
        # Every output points back at this tape, so holding the nodes would
        # keep the whole graph alive until the cyclic GC ran.
        self.nodes = []


def backward(loss):
    """Fill ``grad`` for every tensor the recorded graph reaches from loss."""
    if loss._tape is None:
        raise RuntimeError("loss was not recorded on a tape")
    loss._tape.backward(loss)


def _record(out, inputs, backfn):
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            if _active_tape is not None:
                out._tape = _active_tape
                _active_tape.nodes.append(_Node(out, inputs, backfn))
            break
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


def _broadcast(op, a, b, name):
    try:
        return op(a.data, b.data)
    except ValueError:
        raise ShapeError(f"cannot broadcast shapes {a.shape} and {b.shape} for {name}") from None


def add(a, b):
    """Elementwise sum with trailing-dimension broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(_broadcast(np.add, a, b, "add"))

    def back(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _record(out, (a, b), back)


def mul(a, b):
    """Elementwise product with broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(_broadcast(np.multiply, a, b, "mul"))

    def back(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _record(out, (a, b), back)


def matmul(a, b):
    """(M, K) @ (K, N), or (H, M, K) @ (H, K, N) as H independent products.

    Backward is dA = g @ B^T, dB = A^T @ g over the last two axes.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if (ad.ndim not in (2, 3) or ad.ndim != bd.ndim or ad.shape[:-2] != bd.shape[:-2]
            or ad.shape[-1] != bd.shape[-2]):
        raise ShapeError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")
    out = Tensor(_mm(ad, bd))

    def back(g):
        return (g @ b.data.swapaxes(-1, -2) if a.requires_grad else None,
                a.data.swapaxes(-1, -2) @ g if b.requires_grad else None)

    return _record(out, (a, b), back)


def _split(x, heads, segments):
    m, d = x.shape
    m //= segments
    x = x.reshape(segments, m, heads, d // heads).transpose(0, 2, 1, 3)
    return np.ascontiguousarray(x).reshape(segments * heads, m, d // heads)


def _merge(x, segments):
    sh, m, dh = x.shape
    heads = sh // segments
    x = x.reshape(segments, heads, m, dh).transpose(0, 2, 1, 3)
    return x.reshape(segments * m, heads * dh)


def split_heads(x, heads, segments=1):
    """(S*M, D) rows -> (S*H, M, D/H) stack, for S segments of M rows each.

    Stack entry s*H + i holds columns [i*D/H, (i+1)*D/H) of segment s's rows,
    so attention over the stack never mixes rows of two segments.
    """
    x = _as_tensor(x)
    if (x.ndim != 2 or heads < 1 or x.shape[1] % heads or segments < 1
            or x.shape[0] % segments):
        raise ShapeError(f"cannot split shape {x.shape} into {segments} x {heads} heads")
    out = Tensor(_split(x.data, heads, segments))
    return _record(out, (x,), lambda g: (_merge(g, segments),))


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


def _unique(idx, n):
    """Whether no index repeats, for indices in [0, n): O(n) marks, no sort."""
    seen = np.zeros(n, dtype=bool)
    seen[idx] = True
    return np.count_nonzero(seen) == idx.size


def gather_rows(x, idx):
    """Select rows by index; backward scatter-adds into the source rows."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"gather_rows expects a matrix, got {x.shape}")
    idx = np.asarray(idx, dtype=np.intp).reshape(-1)
    n = x.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"gather_rows index out of range for {n} rows: {idx}")
    out = Tensor(x.data[idx])

    def back(g):
        dx = np.zeros_like(x.data)
        if _unique(idx, n):
            dx[idx] = g
            return (dx,)
        # Each row's first occurrence is a plain write; only the repeats
        # are added, in index order.
        at = np.arange(idx.size)
        first = np.full(n, idx.size)
        np.minimum.at(first, idx, at)
        once = first[idx] == at
        dx[idx[once]] = g[once]
        np.add.at(dx, idx[~once], g[~once])
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
    if idx.size and (idx.min() < 0 or idx.max() >= base.shape[0]):
        raise IndexError(f"scatter_rows index out of range for {base.shape[0]} rows")
    if not _unique(idx, base.shape[0]):
        raise IndexError("scatter_rows requires unique indices")
    data = base.data.copy()
    data[idx] = rows.data
    out = Tensor(data)

    def back(g):
        dbase = g.copy()
        dbase[idx] = 0.0
        return dbase, g[idx]

    return _record(out, (base, rows), back)


def concat_rows(parts):
    parts = [_as_tensor(p) for p in parts]
    widths = {p.shape[1] for p in parts}
    if len(widths) != 1:
        raise ShapeError(f"concat_rows width mismatch: {[p.shape for p in parts]}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=0))
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def back(g):
        return tuple(g[offsets[i] : offsets[i + 1]] for i in range(len(parts)))

    return _record(out, tuple(parts), back)


def cross_entropy(logits_list, labels):
    """Mean softmax cross-entropy of B (1, C) logits tensors, one per label.

    Each row's term is logsumexp(logits) - logits[label] with max
    subtraction, so large logits neither overflow nor lose the small-loss
    limit. The terms are summed in batch order and scaled by 1/B, one node.
    """
    b = len(logits_list)
    if not b or b != len(labels):
        raise IndexError(f"{len(labels)} labels for {b} logits rows")
    x = np.concatenate([lg.data.reshape(1, -1) for lg in logits_list])  # (B, C)
    rows, labels = np.arange(b), np.asarray(labels, dtype=np.intp)
    if labels.min() < 0 or labels.max() >= x.shape[1]:
        raise IndexError(f"labels {labels} out of range for {x.shape[1]} classes")
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=1, keepdims=True)
    terms = (m + np.log(s))[:, 0] - x[rows, labels]
    out = Tensor(np.asarray(sum(terms) * (1.0 / b)))

    def back(g):
        p = e / s
        p[rows, labels] -= 1.0
        p *= g * (1.0 / b)
        return tuple(p[i].reshape(lg.shape) if lg.requires_grad else None
                     for i, lg in enumerate(logits_list))

    return _record(out, tuple(logits_list), back)
