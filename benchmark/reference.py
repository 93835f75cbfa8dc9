"""A plain-numpy forward pass of the MoR-ViT, written apart from ``morvit``.

It reads parameters as a ``name -> array`` map (the names of
``ModelParams.named()``) and uses none of the library's tensor ops: heads are
batched with a reshape instead of sliced, rows are updated in place instead
of scattered, and top-K is a Python sort on (score desc, index asc).
"""

import math

import numpy as np
from scipy.special import erf

LN_EPS = 1e-5


def _layernorm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gain + bias


def block(h, p, heads):
    """Pre-norm block (attention then GELU MLP, each with a residual)."""
    m, d = h.shape
    dh = d // heads

    def split(x):
        return x.reshape(m, heads, dh).transpose(1, 0, 2)

    a = _layernorm(h, p["ln1_g"], p["ln1_b"])
    q, k, v = (split(a @ p[w] + p[b]) for w, b in (("wq", "bq"), ("wk", "bk"), ("wv", "bv")))
    s = q @ k.transpose(0, 2, 1) / math.sqrt(dh)
    s = np.exp(s - s.max(axis=-1, keepdims=True))
    s /= s.sum(axis=-1, keepdims=True)
    o = (s @ v).transpose(1, 0, 2).reshape(m, d)
    h1 = h + o @ p["wo"] + p["bo"]
    u = _layernorm(h1, p["ln2_g"], p["ln2_b"]) @ p["w1"] + p["b1"]
    return h1 + (0.5 * u * (1.0 + erf(u / math.sqrt(2.0)))) @ p["w2"] + p["b2"]


def _block_params(named, i):
    prefix = f"block{i}."
    return {k[len(prefix):]: v for k, v in named.items() if k.startswith(prefix)}


def forward(image, named, cfg):
    """Logits (num_classes,) and exit depths (N+1,) of one H x W x C image."""
    p, gh, gw = cfg.patch_size, cfg.grid_h, cfg.grid_w
    patches = np.array([
        image[r * p:(r + 1) * p, c * p:(c + 1) * p, :].reshape(-1)
        for r in range(gh) for c in range(gw)
    ])
    z = np.vstack([named["embed.x_cls"], patches @ named["embed.w_e"] + named["embed.b_e"]])
    z = z + named["embed.e_pos"]

    n, steps = gh * gw, cfg.max_recursion
    blocks = [_block_params(named, i) for i in range(1 if cfg.share_params else steps)]
    active = np.ones(n + 1, dtype=bool)
    depth = np.full(n + 1, steps)
    if cfg.routing_mode == "token_choice":
        choice = z[1:] @ named["router.choice_w"] + named["router.choice_b"]
        chosen = np.argmax(choice, axis=1) + 1

    for r in range(1, steps + 1):
        live = [i for i in range(1, n + 1) if active[i]]
        if not live:
            break
        blk = blocks[0] if cfg.share_params else blocks[r - 1]
        if cfg.routing_mode == "static":
            z = block(z, blk, cfg.heads) + z
            continue
        if cfg.routing_mode == "expert_choice":
            w, b = named[f"router.step{r - 1}.w"], named[f"router.step{r - 1}.b"]
            score = {i: 1.0 / (1.0 + math.exp(-float(z[i] @ w[:, 0] + b[0]))) for i in live}
            k = max(1, round((1.0 - cfg.beta) * len(live)))
            kept = sorted(sorted(live, key=lambda i: (-score[i], i))[:k])
            gates = np.array([1.0] + [score[i] for i in kept])[:, None]
        else:
            kept = live
            gates = 1.0
        rows = [0] + kept
        z[rows] = gates * block(z[rows], blk, cfg.heads) + z[rows]
        leaving = ([i for i in live if i not in kept] if cfg.routing_mode == "expert_choice"
                   else [i for i in live if chosen[i - 1] == r])
        for i in leaving:
            active[i] = False
            depth[i] = r
    return z[0] @ named["head.w"] + named["head.b"], depth


def central_difference(loss_at, array, index, h):
    """Estimate d loss / d array.flat[index] by (L(x+h) - L(x-h)) / 2h.

    ``loss_at()`` returns (loss, routes), where routes are the discrete
    routing decisions of that forward pass. Returns (estimate, routes at +h,
    routes at -h), so the caller can see whether the step crossed a routing
    boundary, where the loss is not smooth. ``array`` is restored after.
    """
    flat = array.reshape(-1)
    orig = flat[index]
    flat[index] = orig + h
    plus, routes_plus = loss_at()
    flat[index] = orig - h
    minus, routes_minus = loss_at()
    flat[index] = orig
    return (plus - minus) / (2.0 * h), routes_plus, routes_minus
