"""Independent reference implementations used only by tests.

Most of these deliberately avoid the library's tensor ops: plain numpy /
Python loops, composed differently from the code under test. Some keep a
replaced implementation as the oracle of its replacement: the plain replay
``reference_backward``; ``composed_encoder_block``, the encoder block as a
composition of generic tape ops, one node per op and each run of rows
composed alone (``layernorm``, ``gelu``,
``transpose`` and ``merge_heads`` live here only, as that block used them);
``composed_embed``, the embedding as 4 to 6 generic ops; ``classify``, the
head as a ``matmul`` and an ``add``, the oracle of ``backbone.affine_rows``;
``composed_task_loss``, the batch mean as a chain of per-image
``row_cross_entropy`` nodes; and the routing around the block as generic
ops: ``composed_score``, ``composed_step`` and ``composed_routing_loss``;
``joined_checkpoint_bytes``, the checkpoint packer that joined the whole
file in memory before it wrote, as the oracle of the streaming writer.

The generic ops that only these oracles and the tests use live here too:
the broadcasting ``add`` and ``mul``, ``matmul`` over matrices and (S*H, M, .)
head stacks, ``split_heads``, ``tsum``, ``mean``, ``softmax_rows``,
``sigmoid`` and ``concat_rows``. So do ``block_op``, the raw
``encoder_block`` recorded as one tape node, and ``attention_sublayer`` and
``mlp_sublayer``, each of the block's raw sublayers recorded as one node.
No model code records any of them.
"""

import math
import struct
import zlib

import numpy as np
from scipy.special import erf

from morvit.backbone import (
    LN_EPS,
    _attention,
    _attention_tensors,
    _merge,
    _mlp,
    _mlp_tensors,
    _split,
    block_tensors,
    encoder_block,
)
from morvit.checkpoint import _DTYPES, _TAGS, MAGIC, VERSION, pack_rng_state
from morvit.config import serialize_config
from morvit.errors import ShapeError
from morvit.tensor import (
    Tape,
    Tensor,
    _as_tensor,
    _mm,
    _record,
    _recording,
    backward,
    gather_rows,
    scatter_rows,
)

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------- generic ops

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


def block_op(h, blk, runs=None):
    """``encoder_block`` on a tensor, recorded as one tape node."""
    inputs = (h, *block_tensors(blk))
    out, back = encoder_block(h.data, blk, runs, _recording(inputs))
    return _record(Tensor(out), inputs, back)


def attention_sublayer(h, blk, runs=None):
    """h + MHSA(LN1(h)) as one tape node; ``runs`` as in ``encoder_block``."""
    inputs = (h, *_attention_tensors(blk))
    out, back = _attention(h.data, blk, runs, _recording(inputs))
    return _record(Tensor(out), inputs, back)


def mlp_sublayer(h, blk):
    """h + W2 GELU(LN2(h) W1 + b1) + b2 as one tape node."""
    inputs = (h, *_mlp_tensors(blk))
    out, back = _mlp(h.data, blk, _recording(inputs))
    return _record(Tensor(out), inputs, back)


# ---------------------------------------------------------------- gradients

def reference_backward(tape, loss):
    """The plain replay ``Tape.backward`` is checked against: every
    contribution goes into a zero-filled accumulator as a fresh sum, in the
    same reverse recording order, and every gradient is kept."""
    loss.grad = np.ones((), dtype=loss.data.dtype)
    for node in reversed(tape.nodes):
        if node.output.grad is None:
            continue
        for inp, gin in zip(node.inputs, node.backfn(node.output.grad)):
            if gin is None or not inp.requires_grad:
                continue
            if inp.grad is None:
                inp.grad = np.zeros_like(inp.data)
            inp.grad = inp.grad + gin
    tape.nodes = []


def fd_gradient(loss_fn, tensors, h=1e-5):
    """Central finite differences of loss_fn() w.r.t. each tensor's data."""
    grads = []
    for t in tensors:
        flat = t.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn()
            flat[i] = orig - h
            lm = loss_fn()
            flat[i] = orig
            g[i] = (lp - lm) / (2.0 * h)
        grads.append(g.reshape(t.data.shape))
    return grads


def max_rel_err(analytic, numeric, floor=1e-6):
    """Worst-case relative error; near-zero pairs compare absolutely."""
    worst = 0.0
    a = np.asarray(analytic).reshape(-1)
    b = np.asarray(numeric).reshape(-1)
    for x, y in zip(a, b):
        denom = max(abs(x), abs(y))
        err = abs(x - y) / denom if denom > floor else abs(x - y)
        worst = max(worst, err)
    return worst


def grad_check(build_loss, params, h=1e-5, floor=1e-6):
    """Analytic grads (fresh tape) vs central differences; returns worst err."""
    with Tape():
        loss = build_loss()
    for p in params:
        p.grad = None
    backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
    numeric = fd_gradient(lambda: float(build_loss().data), params, h=h)
    return max(max_rel_err(a, n, floor=floor) for a, n in zip(analytic, numeric))


def attention_block_reference(h, blk, eps=1e-5):
    """Pre-norm encoder block recomputed with explicit per-head loops."""

    def ln(x, g, b):
        out = np.empty_like(x)
        for i in range(x.shape[0]):
            row = x[i]
            mu = row.mean()
            var = ((row - mu) ** 2).mean()
            out[i] = (row - mu) / math.sqrt(var + eps) * g + b
        return out

    def gelu_ref(x):
        from scipy.special import erf

        return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))

    m, d = h.shape
    heads = blk.heads
    dh = d // heads
    a = ln(h, blk.ln1_g.data, blk.ln1_b.data)
    q = a @ blk.wq.data + blk.bq.data
    k = a @ blk.wk.data + blk.bk.data
    v = a @ blk.wv.data + blk.bv.data
    concat = np.zeros((m, d))
    for hd in range(heads):
        lo, hi = hd * dh, (hd + 1) * dh
        for i in range(m):
            scores = np.array([q[i, lo:hi] @ k[j, lo:hi] for j in range(m)]) / math.sqrt(dh)
            scores = scores - scores.max()
            w = np.exp(scores)
            w = w / w.sum()
            concat[i, lo:hi] = sum(w[j] * v[j, lo:hi] for j in range(m))
    h1 = h + concat @ blk.wo.data + blk.bo.data
    n = ln(h1, blk.ln2_g.data, blk.ln2_b.data)
    return h1 + gelu_ref(n @ blk.w1.data + blk.b1.data) @ blk.w2.data + blk.b2.data


def patchify_reference(image, p):
    """Hand loop over the patch grid, flattening pixels row-major."""
    h, w, c = image.shape
    rows = []
    for gr in range(h // p):
        for gc in range(w // p):
            vals = []
            for i in range(p):
                for j in range(p):
                    for ch in range(c):
                        vals.append(image[gr * p + i, gc * p + j, ch])
            rows.append(vals)
    return np.array(rows)


# ---------------------------------------------------------------- composed block

def transpose(a):
    """Swap the last two axes of a matrix or an (H, M, N) stack."""
    a = _as_tensor(a)
    if a.ndim not in (2, 3):
        raise ShapeError(f"transpose expects a matrix or a stack, got shape {a.shape}")
    out = Tensor(np.ascontiguousarray(a.data.swapaxes(-1, -2)))
    return _record(out, (a,), lambda g: (np.ascontiguousarray(g.swapaxes(-1, -2)),))


def merge_heads(x, segments=1):
    """(S*H, M, Dh) stack -> (S*M, H*Dh) rows; the inverse of ``split_heads``."""
    x = _as_tensor(x)
    if x.ndim != 3 or segments < 1 or x.shape[0] % segments:
        raise ShapeError(f"merge_heads expects an (S*H, M, Dh) stack, got shape {x.shape}")
    out = Tensor(_merge(x.data, segments))
    return _record(out, (x,), lambda g: (_split(g, x.shape[0] // segments, segments),))


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
    xhat = x.data - x.data.sum(axis=1, keepdims=True) / d  # centred, scaled in place below
    var = (xhat * xhat).sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
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


def composed_encoder_block(h, blk, runs=None):
    """The encoder block as generic tape ops, the fused sublayers' oracle.

    ``runs`` as in ``encoder_block``. Each run goes through its own 26 ops,
    on its rows alone, and the runs' outputs are concatenated.
    """
    if runs is None or len(runs) == 1:
        return _composed_run(h, blk)
    outs, lo = [], 0
    for m in runs:
        outs.append(_composed_run(gather_rows(h, np.arange(lo, lo + m)), blk))
        lo += m
    return concat_rows(outs)


def _composed_run(h, blk):
    scale = 1.0 / math.sqrt(h.shape[1] // blk.heads)

    a = layernorm(h, blk.ln1_g, blk.ln1_b, LN_EPS)
    q = split_heads(add(matmul(a, blk.wq), blk.bq), blk.heads)  # (H, M, dh)
    k = split_heads(add(matmul(a, blk.wk), blk.bk), blk.heads)
    v = split_heads(add(matmul(a, blk.wv), blk.bv), blk.heads)
    att = softmax_rows(mul(matmul(q, transpose(k)), scale))  # (H, M, M)
    o = add(matmul(merge_heads(matmul(att, v)), blk.wo), blk.bo)
    h1 = add(h, o)

    n = layernorm(h1, blk.ln2_g, blk.ln2_b, LN_EPS)
    mlp = add(matmul(gelu(add(matmul(n, blk.w1), blk.b1)), blk.w2), blk.b2)
    return add(h1, mlp)


# ---------------------------------------------------------------- composed ends

def classify(h_cls, head):
    """Affine map of the class-token state to logits as a ``matmul`` and an
    ``add``, the oracle of the head's ``backbone.affine_rows``."""
    return add(matmul(h_cls, head.w), head.b)


def composed_embed(patches, ep):
    """Project patches, prepend the class token, add positional rows.

    ``patches`` holds the N patch rows of B images one after another; the
    result holds B blocks of N+1 rows, each the class token then the image's
    patches.
    """
    if patches.shape[1] != ep.w_e.shape[0]:
        raise ShapeError(
            f"patch width {patches.shape[1]} does not match projection rows {ep.w_e.shape[0]}"
        )
    tokens = ep.e_pos.shape[0]
    images, extra = divmod(patches.shape[0], tokens - 1)
    if extra or not images:
        raise ShapeError(
            f"{patches.shape[0]} patches are not a whole number of images of {tokens - 1} "
            f"patches ({tokens} positional rows)"
        )
    z = concat_rows([ep.x_cls, add(matmul(patches, ep.w_e), ep.b_e)])
    if images == 1:
        return add(z, ep.e_pos)
    # image b's row t is row 0 of z (the class token) for t = 0, else row
    # b*N + t, and its positional row is t
    pos = np.arange(images * tokens) % tokens
    src = np.arange(images * tokens) - np.arange(images * tokens) // tokens
    src[pos == 0] = 0
    return add(gather_rows(z, src), gather_rows(ep.e_pos, pos))


def row_cross_entropy(logits, label):
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


def composed_task_loss(logits_list, labels):
    """Mean softmax cross-entropy over the batch."""
    losses = [row_cross_entropy(lg, int(lb)) for lg, lb in zip(logits_list, labels)]
    total = losses[0]
    for l in losses[1:]:
        total = add(total, l)
    return mul(total, 1.0 / len(losses))


# ---------------------------------------------------------------- composed routing

def composed_score(h, rows, step):
    """sigmoid(h[rows] . w + b) as a gather, a product, a bias add and the
    sign-split sigmoid: four nodes."""
    return sigmoid(add(matmul(gather_rows(h, rows), step.w), step.b))


def composed_step(h, block, take, counts, gates):
    """One recursion step as generic ops, in place of ``routing._apply_block``
    (same arguments): gather the taken rows, ``composed_encoder_block``, the
    gate as a gather from [1, scores] and a ``mul``, the residual ``add`` and
    a ``scatter_rows`` into a copy of h."""
    runs = [m for m in counts if m]
    whole = sum(runs) == take.size
    if not whole:
        rows = np.flatnonzero(take)
        if runs.count(runs[0]) < len(runs):
            rows = rows[np.argsort(np.asarray(counts)[rows // take.shape[1]], kind="stable")]
            runs.sort()
    part = h if whole else gather_rows(h, rows)
    out = composed_encoder_block(part, block, runs)
    if gates is not None:
        scores, slot = gates
        source = concat_rows([Tensor(np.ones((1, 1))), scores])  # row 0: an ungated row's 1
        out = mul(gather_rows(source, (slot if whole else slot[rows]) + 1), out)
    out = add(out, part)
    return out if whole else scatter_rows(h, rows, out)


def composed_routing_loss(traces, kappa):
    """``model.routing_loss`` as generic ops: per-image routing terms
    through ``split_heads``, ``mean``, ``mul`` and ``add``, then their mean."""
    batch, mode = traces[0].batch, traces[0].mode
    if mode == "static":
        return Tensor(np.asarray(0.0))
    if mode == "expert_choice":
        total = None
        for s in batch.step_scores:
            gates = split_heads(s, 1, batch.images)                # (B, A, 1)
            dev = add(mean(gates, axis=1), -kappa)
            sq = mul(dev, dev)
            total = sq if total is None else add(total, sq)
        return mean(mul(total, 1.0 / len(batch.step_scores)))
    logits = batch.depth_logits                                    # (B*N, R)
    r = logits.shape[1]
    levels = Tensor(np.arange(1, r + 1, dtype=np.float64).reshape(r, 1) / r)
    exp_depth = mean(split_heads(matmul(softmax_rows(logits), levels), 1, batch.images), axis=1)
    dev = add(exp_depth, -kappa)
    return mean(mul(dev, dev))


# ---------------------------------------------------------------- checkpoint

def _joined_tensor_table(buf, table):
    buf.append(struct.pack("<I", len(table)))
    for name, arr in table.items():
        nb = name.encode("utf-8")
        arr = np.asarray(arr)
        tag = _TAGS[arr.dtype]
        buf.append(struct.pack("<I", len(nb)))
        buf.append(nb)
        buf.append(struct.pack("<BB", tag, arr.ndim))
        buf.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        buf.append(arr.astype(_DTYPES[tag], copy=False).tobytes())


def joined_checkpoint_bytes(cfg, named_tensors, optimizer=None, rng_state=None):
    """The bytes ``save_checkpoint`` writes, packed piece by piece into a
    list, joined and followed by the CRC of the joined body."""
    buf = [MAGIC, struct.pack("<I", VERSION)]
    cfg_bytes = serialize_config(cfg).encode("utf-8")
    buf.append(struct.pack("<Q", len(cfg_bytes)))
    buf.append(cfg_bytes)
    _joined_tensor_table(buf, {
        name: (t.data if isinstance(t, Tensor) else np.asarray(t))
        for name, t in named_tensors.items()
    })
    if optimizer is None:
        buf.append(b"\x00")
    else:
        buf.append(b"\x01")
        buf.append(struct.pack("<Qdddd", optimizer.step, optimizer.lr,
                               optimizer.beta1, optimizer.beta2, optimizer.eps))
        _joined_tensor_table(buf, optimizer.m)
        _joined_tensor_table(buf, optimizer.v)
    if rng_state is None:
        buf.append(b"\x00")
    else:
        buf.append(b"\x01")
        buf.append(pack_rng_state(rng_state))
    body = b"".join(buf)
    return body + struct.pack("<I", zlib.crc32(body))
