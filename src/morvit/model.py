"""Full model: embed -> recursion -> classify, plus the training objective."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import backbone, routing
from .backbone import (
    BlockParams,
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
from .tensor import (
    Tensor,
    add,
    cross_entropy,
    gather_rows,
    mean,
    mul,
    softmax_rows,
    split_heads,
    sub,
    tsum,
)


# Tensor fields of BlockParams in declaration order, which fixes the names
# and the order of block entries in checkpoints.
_BLOCK_TENSORS = tuple(f.name for f in fields(BlockParams) if f.name != "heads")


@dataclass
class ModelParams:
    embed: EmbedParams
    blocks: list            # length 1 when shared, else one per step
    router: RouterParams
    head: HeadParams

    def named(self):
        """Deterministically ordered name -> Tensor map of every parameter."""
        out = {
            "embed.w_e": self.embed.w_e,
            "embed.b_e": self.embed.b_e,
            "embed.x_cls": self.embed.x_cls,
            "embed.e_pos": self.embed.e_pos,
        }
        for i, blk in enumerate(self.blocks):
            for fname in _BLOCK_TENSORS:
                out[f"block{i}.{fname}"] = getattr(blk, fname)
        if self.router.mode == "expert_choice":
            for r, step in enumerate(self.router.steps):
                out[f"router.step{r}.w"] = step.w
                out[f"router.step{r}.b"] = step.b
        elif self.router.mode == "token_choice":
            out["router.choice_w"] = self.router.choice_w
            out["router.choice_b"] = self.router.choice_b
        out["head.w"] = self.head.w
        out["head.b"] = self.head.b
        return out

    def total_params(self):
        return sum(t.size for t in self.named().values())

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


def forward(images, params: ModelParams, cfg, hooks=None):
    """The whole batch through one step-synchronous recursion.

    Returns one (1, C) logits tensor and one trace per image, in order.
    """
    if not images:
        return [], []
    patches = Tensor(np.concatenate([patchify(img, cfg.patch_size).data for img in images]))
    z0 = embed(patches, params.embed)
    hidden, traces = run_recursion(z0, params.blocks, params.router, cfg, hooks=hooks)
    logits = classify(gather_rows(hidden, np.arange(len(images)) * cfg.tokens), params.head)
    if len(images) == 1:
        return [logits], traces
    return [gather_rows(logits, [b]) for b in range(len(images))], traces


def forward_sample(image, params: ModelParams, cfg, hooks=None):
    """One image through the network; returns ((1, C) logits, trace)."""
    (logits,), (trace,) = forward([image], params, cfg, hooks=hooks)
    return logits, trace


def task_loss(logits_list, labels):
    """Mean softmax cross-entropy over the batch."""
    losses = [cross_entropy(lg, int(lb)) for lg, lb in zip(logits_list, labels)]
    total = losses[0]
    for l in losses[1:]:
        total = add(total, l)
    return mul(total, 1.0 / len(losses))


def _routing_terms(batch, mode, kappa):
    """(B, 1) routing terms of the images of one batch."""
    if mode == "expert_choice":
        # mean over steps of (mean gate - kappa)^2, each mean over the image's
        # scored tokens; every image of a batch runs every step
        total = None
        for s in batch.step_scores:
            gates = split_heads(s, 1, batch.images)                # (B, A, 1)
            dev = sub(mean(gates, axis=1), kappa)
            sq = mul(dev, dev)
            total = sq if total is None else add(total, sq)
        return mul(total, 1.0 / len(batch.step_scores))
    # token_choice budget alignment: expected normalized depth should sit at kappa
    logits = batch.depth_logits                                    # (B*N, R)
    r = logits.shape[1]
    levels = Tensor(np.arange(1, r + 1, dtype=np.float64).reshape(r, 1) / r)
    exp_depth = mean(split_heads(softmax_rows(logits) @ levels, 1, batch.images), axis=1)
    dev = sub(exp_depth, kappa)  # exp_depth is (B, 1), each in (0, 1]
    return mul(dev, dev)


def routing_loss(traces, kappa):
    """Mean over images of the routing term: the squared deviation of the
    per-step mean gate (expert-choice) or of the expected normalized depth
    (token-choice) from the keep target."""
    if not 0.0 < kappa <= 1.0:
        raise ValueError(f"target keep fraction must be in (0, 1], got {kappa}")
    if traces[0].mode == "static":
        return Tensor(np.asarray(0.0))
    images = {}  # batch -> positions of the given traces in it
    for t in traces:
        images.setdefault(t.batch, []).append(t.index)
    total = None
    for batch, idx in images.items():
        part = tsum(gather_rows(_routing_terms(batch, traces[0].mode, kappa), idx))
        total = part if total is None else add(total, part)
    return mul(total, 1.0 / len(traces))


def total_loss(logits_list, labels, traces, cfg):
    """task loss + routing_lambda * routing loss."""
    lt = task_loss(logits_list, labels)
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
