"""Full model: embed -> recursion -> classify, plus the training objective."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import backbone, routing
from .backbone import (
    EmbedParams,
    HeadParams,
    classify,
    embed,
    init_block_params,
    init_embed_params,
    init_head_params,
    patchify,
)
from .errors import NumericError
from .routing import RouterParams, init_router_params, run_recursion
from .tensor import Tensor, _mm, _record, add, cross_entropy, gather_rows, mul


def _tensor_fields(prefix, params):
    """``prefix.field`` -> Tensor for each Tensor field, in declaration order."""
    values = {f.name: getattr(params, f.name) for f in fields(params)}
    return {f"{prefix}.{n}": v for n, v in values.items() if isinstance(v, Tensor)}


@dataclass
class ModelParams:
    embed: EmbedParams
    blocks: list            # length 1 when shared, else one per step
    router: RouterParams
    head: HeadParams

    def named(self):
        """Deterministically ordered name -> Tensor map of every parameter.

        Names and order follow the dataclasses' field declarations, which
        fixes the names and the order of entries in checkpoints.
        """
        out = _tensor_fields("embed", self.embed)
        for i, blk in enumerate(self.blocks):
            out.update(_tensor_fields(f"block{i}", blk))
        out.update(_tensor_fields("router", self.router))
        for r, step in enumerate(self.router.steps or ()):
            out.update(_tensor_fields(f"router.step{r}", step))
        out.update(_tensor_fields("head", self.head))
        return out

    def zero_grads(self):
        for t in self.named().values():
            t.grad = None


def init_params(cfg, gen=None) -> ModelParams:
    """Build all parameters from the config seed (or a provided generator)."""
    if gen is None:
        gen = np.random.Generator(np.random.Philox(cfg.seed))
    n_blocks = 1 if cfg.share_params else cfg.max_recursion
    return ModelParams(
        embed=init_embed_params(cfg, gen),
        blocks=[init_block_params(cfg, gen) for _ in range(n_blocks)],
        router=init_router_params(cfg, gen),
        head=init_head_params(cfg, gen),
    )


def forward(images, params: ModelParams, cfg):
    """The whole batch through one step-synchronous recursion.

    Returns one (1, C) logits tensor and one trace per image, in order.
    """
    if not images:
        return [], []
    z0 = embed(patchify(images, cfg.patch_size), params.embed)
    hidden, traces = run_recursion(z0, params.blocks, params.router, cfg)
    logits = classify(gather_rows(hidden, np.arange(len(images)) * cfg.tokens), params.head)
    return [gather_rows(logits, [b]) for b in range(len(images))], traces


def _gate_loss(step_scores, images, kappa):
    """Expert-choice routing loss of a batch as one tape node: the mean over
    images and steps of (mean gate - kappa)^2, each mean gate over the scores
    an image's patches got at that step (every image of a batch runs every
    step)."""
    gates = [s.data.reshape(images, -1) for s in step_scores]    # (B, A_r) per step
    dev = [x.sum(axis=1) / x.shape[1] - kappa for x in gates]    # (B,) per step
    scale = 1.0 / (len(gates) * images)
    loss = sum((d * d).sum() for d in dev) * scale

    def back(g):
        return tuple(np.repeat(d * (2.0 * scale * g / x.shape[1]), x.shape[1]).reshape(-1, 1)
                     for d, x in zip(dev, gates))

    return _record(Tensor(np.asarray(loss)), tuple(step_scores), back)


def _depth_loss(logits, images, kappa):
    """Token-choice routing loss of a batch as one tape node: the mean over
    images of (expected normalized depth - kappa)^2, where a patch's expected
    depth is its softmax over the R depth logits times the levels r / R."""
    x = logits.data                                           # (B*N, R)
    r = x.shape[1]
    p = np.exp(x - x.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    levels = np.arange(1, r + 1, dtype=x.dtype) / r
    depth = _mm(p, levels.reshape(r, 1)).reshape(images, -1)  # (B, N)
    n = depth.shape[1]
    dev = depth.sum(axis=1) / n - kappa                       # (B,), each in (0, 1] - kappa
    loss = (dev * dev).sum() / images

    def back(g):
        ddepth = np.repeat(dev * (2.0 * g / (images * n)), n).reshape(-1, 1)
        return (p * (levels - depth.reshape(-1, 1)) * ddepth,)

    return _record(Tensor(np.asarray(loss)), (logits,), back)


def routing_loss(traces, kappa):
    """Mean over images of the routing term: the squared deviation of the
    per-step mean gate (expert-choice) or of the expected normalized depth
    (token-choice) from the keep target.

    ``traces`` are the traces of one whole batch, as ``forward`` returns them.
    """
    if not 0.0 < kappa <= 1.0:
        raise ValueError(f"target keep fraction must be in (0, 1], got {kappa}")
    if traces[0].mode == "static":
        return Tensor(np.asarray(0.0))
    batch = traces[0].batch
    mine = {id(t) for t in traces if t.batch is batch}
    if len(traces) != batch.images or len(mine) != len(traces):
        raise ValueError("routing_loss takes the traces of exactly one whole batch")
    if traces[0].mode == "expert_choice":
        return _gate_loss(batch.step_scores, batch.images, kappa)
    return _depth_loss(batch.depth_logits, batch.images, kappa)


def total_loss(logits_list, labels, traces, cfg):
    """Mean cross-entropy over the batch + routing_lambda * routing loss."""
    lt = cross_entropy(logits_list, labels)
    if cfg.routing_lambda == 0.0 or cfg.routing_mode == "static":
        return lt
    lr = routing_loss(traces, 1.0 - cfg.beta)
    return add(lt, mul(lr, cfg.routing_lambda))


def check_finite(t, what="value"):
    if not np.all(np.isfinite(t.data if isinstance(t, Tensor) else t)):
        raise NumericError(f"non-finite {what} detected")
    return t


def param_count(cfg):
    """Exact closed-form parameter total for a config."""
    d = cfg.hidden
    embed_total = cfg.patch_dim * d + d          # projection + bias
    embed_total += d                              # class token
    embed_total += cfg.tokens * d                 # positional table
    block = backbone.block_param_count(d, cfg.mlp_size)
    blocks_total = block * (1 if cfg.share_params else cfg.max_recursion)
    router_total = routing.router_param_count(cfg)
    head_total = d * cfg.num_classes + cfg.num_classes
    return embed_total + blocks_total + router_total + head_total
