"""Patch embedding, the shared pre-norm encoder block, and the classifier head.

The head is ``affine_rows`` on the class rows: one tape node that gathers
rows and maps them affinely, which the token-choice depth predictor and the
router score (``routing``) use too.

The encoder block is the function the recursion loop re-applies; it is a
plain pre-norm transformer block (LN -> multi-head self-attention -> residual,
LN -> GELU MLP -> residual) over exactly the rows it is given. Those rows are
a list of ``runs``, one per image, each the length of its image's rows; a row
attends only to the rows of its own run. Every step of the recursion is one
block call, whatever the mix of run lengths: all but the attention core run
over all rows at once, and the core runs once per stretch of consecutive
equal runs, as one (S*H, M, dh) stack of the stretch's contiguous rows.

The block runs in raw numpy on arrays, not on tensors. Each sublayer,
``x + f(LN(x))``, is a forward that returns its output and, only when asked
to keep it, the closure of its hand-written backward (``_attention`` and
``_mlp``). ``encoder_block`` chains the two, and the recursion step
(``routing._apply_block``) records it inside its one tape node. A kept
backward holds only what it cannot rebuild in one
elementwise pass: each LN's normalized rows and 1/std, q, k, v, the
attention weights, the attended rows, u = LN2(x) W1 + b1 and ndtr(u). It
rebuilds the LN outputs and the GELU product with the forward's own
expressions (``_scale_shift``, ``u * phi``), so its gradients are the same
bits. With the tape freeing each node as its replay passes it, this cut the
peak of a batch-8 desk-bench training step with four blocks from 44.1 to
32.9 MB. A forward without a tape keeps no closure, so what a backward
would read is freed as each sublayer returns (keeping the attention's
arrays alive through the MLP raised the peak of an 8-image desk-bench
forward from 6.9 to 11.0 MB), and it writes LN's output over the
normalized rows and GELU's over ndtr(u). Bias adds, the attention scale,
the softmax and the residual run in place on arrays the forward allocated
itself, and ``k`` enters ``q @ k^T`` as a transposed view. GELU's normal
CDF is ``scipy.special.ndtr``: on a (520, 256) activation it took 2.1 ms
against 2.9 ms for ``0.5 * (1 + erf(u / sqrt(2)))`` (2-core x86-64 host),
and it equals that form within 2.2e-16 on N(0, 1) samples.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ShapeError
from .tensor import Tensor, _mm, _record

LN_EPS = 1e-5
INIT_STD = 0.02
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def trunc_normal(gen, shape, std=INIT_STD):
    """Normal(0, std) redrawn until within 2 std; deterministic in gen state."""
    out = gen.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = gen.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


@dataclass
class EmbedParams:
    w_e: Tensor      # (P*P*C, D) patch projection
    b_e: Tensor      # (D,)
    x_cls: Tensor    # (1, D) class token
    e_pos: Tensor    # (N+1, D) positional table, row 0 is the class slot


@dataclass
class BlockParams:
    heads: int
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    w1: Tensor       # (D, mlp)
    b1: Tensor
    w2: Tensor       # (mlp, D)
    b2: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    ln2_g: Tensor
    ln2_b: Tensor


@dataclass
class HeadParams:
    w: Tensor        # (D, num_classes)
    b: Tensor        # (num_classes,)


def init_embed_params(cfg, gen) -> EmbedParams:
    d = cfg.hidden
    return EmbedParams(
        w_e=Tensor(trunc_normal(gen, (cfg.patch_dim, d)), requires_grad=True),
        b_e=Tensor(np.zeros(d), requires_grad=True),
        x_cls=Tensor(np.zeros((1, d)), requires_grad=True),
        e_pos=Tensor(trunc_normal(gen, (cfg.tokens, d)), requires_grad=True),
    )


def init_block_params(cfg, gen) -> BlockParams:
    d, m = cfg.hidden, cfg.mlp_size
    def w(shape):
        return Tensor(trunc_normal(gen, shape), requires_grad=True)
    def zeros(n):
        return Tensor(np.zeros(n), requires_grad=True)
    return BlockParams(
        heads=cfg.heads,
        wq=w((d, d)), bq=zeros(d),
        wk=w((d, d)), bk=zeros(d),
        wv=w((d, d)), bv=zeros(d),
        wo=w((d, d)), bo=zeros(d),
        w1=w((d, m)), b1=zeros(m),
        w2=w((m, d)), b2=zeros(d),
        ln1_g=Tensor(np.ones(d), requires_grad=True), ln1_b=zeros(d),
        ln2_g=Tensor(np.ones(d), requires_grad=True), ln2_b=zeros(d),
    )


def init_head_params(cfg, gen) -> HeadParams:
    return HeadParams(
        w=Tensor(trunc_normal(gen, (cfg.hidden, cfg.num_classes)), requires_grad=True),
        b=Tensor(np.zeros(cfg.num_classes), requires_grad=True),
    )


def block_param_count(hidden, mlp_size):
    """Closed-form parameter count of one encoder block."""
    attn = 4 * hidden * hidden + 4 * hidden
    mlp = 2 * hidden * mlp_size + hidden + mlp_size
    norms = 4 * hidden
    return attn + mlp + norms


def _pixels(image):
    return image.data if isinstance(image, Tensor) else np.asarray(image, dtype=np.float64)


def patchify(images, patch_size):
    """Split an H x W x C image into rows of flattened P x P patches.

    Patches are ordered left-to-right then top-to-bottom over the patch
    grid; within a patch, pixels flatten row-major as (row, col, channel).
    Given a list of B images of one shape, it returns their N patch rows
    one image after another (B*N rows); the stack of the images lives only
    inside this call. The result is plain input data, so no gradient is
    tracked through it.
    """
    if isinstance(images, (list, tuple)):
        arrays = [_pixels(img) for img in images]
        shapes = sorted({a.shape for a in arrays})
        if len(shapes) != 1:
            raise ShapeError(f"patchify needs images of one shape, got shapes {shapes}")
        data = np.array(arrays)  # the same stack as np.stack, at half its call overhead
    else:
        data = _pixels(images)[None]
    if data.ndim != 4:
        raise ShapeError(f"patchify expects H x W x C, got shape {data.shape[1:]}")
    b, h, w, c = data.shape
    p = patch_size
    if h % p or w % p:
        raise ShapeError(f"image {h}x{w} not divisible by patch size {p}")
    gh, gw = h // p, w // p
    # (b, gh, p, gw, p, c) -> (b, gh, gw, p, p, c) -> (b*N, p*p*c)
    patches = data.reshape(b, gh, p, gw, p, c).transpose(0, 1, 3, 2, 4, 5)
    return Tensor(np.ascontiguousarray(patches.reshape(b * gh * gw, p * p * c)))


def embed(patches, ep: EmbedParams):
    """Project patches, prepend the class token, add positional rows.

    ``patches`` holds the N patch rows of B images one after another; the
    result holds B blocks of N+1 rows, each the class token then the image's
    patches. One tape node; the patches are input data and get no gradient.
    """
    if patches.shape[1] != ep.w_e.shape[0]:
        raise ShapeError(
            f"patch width {patches.shape[1]} does not match projection rows {ep.w_e.shape[0]}"
        )
    tokens, d = ep.e_pos.shape
    images, extra = divmod(patches.shape[0], tokens - 1)
    if extra or not images:
        raise ShapeError(
            f"{patches.shape[0]} patches are not a whole number of images of {tokens - 1} "
            f"patches ({tokens} positional rows)"
        )
    y = _affine(patches.data, ep.w_e, ep.b_e)
    z = np.empty((images, tokens, d), dtype=y.dtype)
    z[:, 0] = ep.x_cls.data
    z[:, 1:] = y.reshape(images, tokens - 1, d)
    z += ep.e_pos.data

    def back(g):
        g = g.reshape(images, tokens, d)
        return (*_affine_grads((patches.data, g[:, 1:].reshape(-1, d), ep.w_e, ep.b_e)),
                g[:, 0].sum(axis=0, keepdims=True) if ep.x_cls.requires_grad else None,
                g.sum(axis=0) if ep.e_pos.requires_grad else None)

    return _record(Tensor(z.reshape(-1, d)), (ep.w_e, ep.b_e, ep.x_cls, ep.e_pos), back)


def _normalize(x):
    """LN's normalized rows of x and 1/std per row, before gain and bias."""
    d = x.shape[1]
    xhat = x - x.sum(axis=1, keepdims=True) / d
    var = (xhat * xhat).sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    return xhat, inv


def _scale_shift(xhat, gain, bias, out=None):
    """LN's output xhat * gain + bias, into ``out`` if given. A backward
    rebuilds the output with this same expression, bit for bit."""
    y = np.multiply(xhat, gain, out=out)
    y += bias
    return y


def _layernorm(x, gain, bias):
    """LN's output alone, written over the normalized rows."""
    xhat, _ = _normalize(x)
    return _scale_shift(xhat, gain, bias, out=xhat)


def _gelu(u):
    """GELU(u) = u * ndtr(u), written over ndtr(u)."""
    phi = ndtr(u)
    return np.multiply(u, phi, out=phi)


def _layernorm_back(dy, xhat, inv, gain):
    """(dx, dgain, dbias) of LN's output gradient dy, from ``_normalize``'s
    xhat and inv."""
    d = dy.shape[1]
    dxhat = dy * gain
    dx = dxhat - dxhat.sum(axis=1, keepdims=True) / d
    dx -= xhat * ((dxhat * xhat).sum(axis=1, keepdims=True) / d)
    dx *= inv
    return dx, (dy * xhat).sum(axis=0), dy.sum(axis=0)


def _affine(x, w, b):
    y = _mm(x, w.data)
    y += b.data
    return y


def _affine_grads(*terms):
    """Flat (dW, db) pairs for each (x, dy, W, b) of a y = x @ W + b."""
    grads = []
    for x, dy, w, b in terms:
        grads.append(x.T @ dy if w.requires_grad else None)
        grads.append(dy.sum(axis=0) if b.requires_grad else None)
    return grads


def _check_rows(h, width, what):
    if h.ndim != 2 or h.shape[1] != width:
        raise ShapeError(f"{what} expects rows of width {width}, got shape {h.shape}")


def _affine_rows(h, rows, w, b):
    """Raw h[rows] @ w + b of the tensors h, w and b: (y, backward).

    The backward maps dy to (dh, dw, db), None for a tensor that requires no
    gradient. ``rows`` must be unique: the backward writes each row's
    gradient into a zero dh, it does not add them.
    """
    _check_rows(h, w.shape[0], "affine_rows")
    x = h.data[rows]
    y = _affine(x, w, b)

    def back(dy):
        dh = None
        if h.requires_grad:
            dh = np.zeros_like(h.data)
            dh[rows] = dy @ w.data.T
        return (dh, *_affine_grads((x, dy, w, b)))

    return y, back


def affine_rows(h, rows, w, b):
    """h[rows] @ w + b for the unique indices ``rows`` of h, as one tape node.

    The model's head maps the class rows to logits through it, and the
    token-choice depth predictor the patch rows to depth logits.
    """
    y, back = _affine_rows(h, rows, w, b)
    return _record(Tensor(y), (h, w, b), back)


def _split(x, heads, segments):
    """(S*M, D) rows -> (S*H, M, D/H) stack of the heads of S segments."""
    m, d = x.shape
    m //= segments
    x = x.reshape(segments, m, heads, d // heads).transpose(0, 2, 1, 3)
    return np.ascontiguousarray(x).reshape(segments * heads, m, d // heads)


def _merge(x, segments):
    """The inverse of ``_split``: (S*H, M, dh) stack -> (S*M, H*dh) rows."""
    sh, m, dh = x.shape
    heads = sh // segments
    x = x.reshape(segments, heads, m, dh).transpose(0, 2, 1, 3)
    return x.reshape(segments * m, heads * dh)


def _stretches(runs):
    """(first row, end row, runs) of each stretch of consecutive equal runs."""
    out, lo = [], 0
    for m, group in itertools.groupby(runs):
        n = len(list(group))
        out.append((lo, lo + n * m, n))
        lo += n * m
    return out


def _attend(q, k, v, runs, scale):
    """Softmax attention over the (S*H, M, dh) stacks of ``runs`` equal runs.

    Returns the arrays the backward reads, (q, k, v, att), and the attended
    values merged back into (S*M, D) rows.
    """
    att = _mm(q, k.swapaxes(1, 2))  # (S*H, M, M)
    att *= scale
    att -= att.max(axis=2, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=2, keepdims=True)
    return (q, k, v, att), _merge(_mm(att, v), runs)


def _attend_back(dctx, saved, runs, scale):
    """(dq, dk, dv) rows of ``_attend`` for the (S*H, M, dh) stack dctx."""
    q, k, v, att = saved
    ds = dctx @ v.swapaxes(1, 2)
    ds -= (ds * att).sum(axis=2, keepdims=True)
    ds *= att
    ds *= scale
    return (_merge(ds @ k, runs), _merge(ds.swapaxes(1, 2) @ q, runs),
            _merge(att.swapaxes(1, 2) @ dctx, runs))


# The tensors of each sublayer, and of the block (attention's, then the
# MLP's), in the order their backwards return the gradients.
_attention_tensors = operator.attrgetter(
    "ln1_g", "ln1_b", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
_mlp_tensors = operator.attrgetter("ln2_g", "ln2_b", "w1", "b1", "w2", "b2")


def block_tensors(blk: BlockParams):
    """The block's 16 tensors, in the order ``encoder_block``'s backward
    returns their gradients."""
    return _attention_tensors(blk) + _mlp_tensors(blk)


def _attention(x, blk, runs, keep):
    """Raw x + MHSA(LN1(x)): (output, backward or None), as ``encoder_block``.

    LN1, the projections and the residual run once over all rows. The
    attention core runs once per stretch of consecutive runs of equal length,
    on that stretch's contiguous rows as one (S*H, M, dh) stack; with a
    single run length it is one stack over all rows.
    """
    heads = blk.heads
    _check_rows(x, blk.ln1_g.shape[0], "the attention sublayer")
    if runs is None:
        runs = [x.shape[0]]
    if (x.shape[1] % heads or not runs or min(runs) < 1 or sum(runs) != x.shape[0]):
        raise ShapeError(f"cannot split shape {x.shape} into runs {runs} of {heads} heads")
    n = len(runs)
    stretches = None if runs.count(runs[0]) == n else _stretches(runs)
    scale = 1.0 / math.sqrt(x.shape[1] // heads)
    gain, bias = blk.ln1_g.data, blk.ln1_b.data
    xhat, inv = _normalize(x)
    a = _scale_shift(xhat, gain, bias, out=None if keep else xhat)
    if stretches is None:
        # each projection is split as soon as it is made, so only one
        # unsplit copy is alive at a time
        q = _split(_affine(a, blk.wq, blk.bq), heads, n)  # (S*H, M, dh)
        k = _split(_affine(a, blk.wk, blk.bk), heads, n)
        v = _split(_affine(a, blk.wv, blk.bv), heads, n)
        saved, ctx = _attend(q, k, v, n, scale)  # ctx: (S*M, D)
    else:
        q = _affine(a, blk.wq, blk.bq)
        k = _affine(a, blk.wk, blk.bk)
        v = _affine(a, blk.wv, blk.bv)
        saved, ctx = [], np.empty_like(q)
        for lo, hi, s in stretches:
            part, ctx[lo:hi] = _attend(_split(q[lo:hi], heads, s), _split(k[lo:hi], heads, s),
                                       _split(v[lo:hi], heads, s), s, scale)
            if keep:
                saved.append(part)
    out = _affine(ctx, blk.wo, blk.bo)
    out += x
    if not keep:
        return out, None

    def back(g):
        if stretches is None:
            dq, dk, dv = _attend_back(_split(g @ blk.wo.data.T, heads, n), saved, n, scale)
        else:
            dctx = g @ blk.wo.data.T
            dq, dk, dv = np.empty_like(dctx), np.empty_like(dctx), np.empty_like(dctx)
            for (lo, hi, s), part in zip(stretches, saved):
                dq[lo:hi], dk[lo:hi], dv[lo:hi] = _attend_back(
                    _split(dctx[lo:hi], heads, s), part, s, scale)
        da = dv @ blk.wv.data.T
        da += dk @ blk.wk.data.T
        da += dq @ blk.wq.data.T
        dx, dgain, dbias = _layernorm_back(da, xhat, inv, gain)
        dx += g
        a = _scale_shift(xhat, gain, bias)
        return (dx, dgain, dbias, *_affine_grads(
            (a, dq, blk.wq, blk.bq), (a, dk, blk.wk, blk.bk), (a, dv, blk.wv, blk.bv),
            (ctx, g, blk.wo, blk.bo)))

    return out, back


def _mlp(x, blk, keep):
    """Raw x + W2 GELU(LN2(x) W1 + b1) + b2: (output, backward or None).

    Without ``keep`` every intermediate is a temporary that dies once read.
    """
    _check_rows(x, blk.ln2_g.shape[0], "the MLP sublayer")
    gain, bias = blk.ln2_g.data, blk.ln2_b.data
    if not keep:
        out = _affine(_gelu(_affine(_layernorm(x, gain, bias), blk.w1, blk.b1)), blk.w2, blk.b2)
        out += x
        return out, None
    xhat, inv = _normalize(x)
    u = _affine(_scale_shift(xhat, gain, bias), blk.w1, blk.b1)
    phi = ndtr(u)
    out = _affine(u * phi, blk.w2, blk.b2)
    out += x

    def back(g):
        # GELU'(u) = phi(u) + u * pdf(u)
        du = u * u
        du *= -0.5
        np.exp(du, out=du)
        du *= _INV_SQRT_2PI
        du *= u
        du += phi
        du *= g @ blk.w2.data.T
        dx, dgain, dbias = _layernorm_back(du @ blk.w1.data.T, xhat, inv, gain)
        dx += g
        return (dx, dgain, dbias, *_affine_grads(
            (_scale_shift(xhat, gain, bias), du, blk.w1, blk.b1), (u * phi, g, blk.w2, blk.b2)))

    return out, back


def encoder_block(x, blk: BlockParams, runs=None, keep=False):
    """The pre-norm block over the rows of the array x, in raw numpy.

    x holds one run of rows per image, of the lengths in the list ``runs``
    (None: one run of every row); attention sees only the rows of its own
    run. Returns (output rows, backward). The backward is None unless
    ``keep``; it maps the output's gradient to (dx, the gradients of
    ``block_tensors(blk)``), None for a weight that requires none. Without
    ``keep`` each sublayer drops what its backward would read on return.
    """
    h1, attention_back = _attention(x, blk, runs, keep)
    out, mlp_back = _mlp(h1, blk, keep)
    if not keep:
        return out, None

    def back(g):
        dh1, *mlp_grads = mlp_back(g)
        dx, *attention_grads = attention_back(dh1)
        return (dx, *attention_grads, *mlp_grads)

    return out, back

