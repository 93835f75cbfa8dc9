"""Patch embedding, the shared pre-norm encoder block, and the classifier head.

The encoder block is the function the recursion loop re-applies; it is a
plain pre-norm transformer block (LN -> multi-head self-attention -> residual,
LN -> GELU MLP -> residual) over exactly the rows it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import (
    Tensor,
    add,
    concat_rows,
    gelu,
    layernorm,
    matmul,
    merge_heads,
    mul,
    softmax_rows,
    split_heads,
    transpose,
)

LN_EPS = 1e-5
INIT_STD = 0.02


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


def patchify(image, patch_size):
    """Split an H x W x C image into rows of flattened P x P patches.

    Patches are ordered left-to-right then top-to-bottom over the patch
    grid; within a patch, pixels flatten row-major as (row, col, channel).
    The result is plain input data, so no gradient is tracked through it.
    """
    data = image.data if isinstance(image, Tensor) else np.asarray(image, dtype=np.float64)
    if data.ndim != 3:
        raise ShapeError(f"patchify expects H x W x C, got shape {data.shape}")
    h, w, c = data.shape
    p = patch_size
    if h % p or w % p:
        raise ShapeError(f"image {h}x{w} not divisible by patch size {p}")
    gh, gw = h // p, w // p
    # (gh, p, gw, p, c) -> (gh, gw, p, p, c) -> (N, p*p*c)
    patches = data.reshape(gh, p, gw, p, c).transpose(0, 2, 1, 3, 4).reshape(gh * gw, p * p * c)
    return Tensor(np.ascontiguousarray(patches))


def embed(patches, ep: EmbedParams):
    """Project patches, prepend the class token, add positional rows."""
    if patches.shape[1] != ep.w_e.shape[0]:
        raise ShapeError(
            f"patch width {patches.shape[1]} does not match projection rows {ep.w_e.shape[0]}"
        )
    if patches.shape[0] + 1 != ep.e_pos.shape[0]:
        raise ShapeError(
            f"{patches.shape[0]} patches need {patches.shape[0] + 1} positional rows, "
            f"table has {ep.e_pos.shape[0]}"
        )
    rows = add(matmul(patches, ep.w_e), ep.b_e)
    z = concat_rows([ep.x_cls, rows])
    return add(z, ep.e_pos)


def encoder_block(h, blk: BlockParams):
    """Pre-norm block over the M rows of h; attention sees only those rows."""
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


def classify(h_cls, head: HeadParams):
    """Affine map of the class-token state to logits; no softmax here."""
    return add(matmul(h_cls, head.w), head.b)
