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
from .tensor import Tensor, add, cross_entropy, gather_rows, mean, mul, softmax_rows, sub, tsum


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


def forward_sample(image, params: ModelParams, cfg, hooks=None):
    """One image through the network; returns ((1, C) logits, trace)."""
    patches = patchify(image, cfg.patch_size)
    z0 = embed(patches, params.embed)
    hidden, trace = run_recursion(z0, params.blocks, params.router, cfg, hooks=hooks)
    logits = classify(gather_rows(hidden, [0]), params.head)
    return logits, trace


def forward(images, params: ModelParams, cfg, hooks=None):
    """Batch forward as a per-sample loop; traces come back per sample."""
    results = [forward_sample(img, params, cfg, hooks=hooks) for img in images]
    return [r[0] for r in results], [r[1] for r in results]


def task_loss(logits_list, labels):
    """Mean softmax cross-entropy over the batch."""
    losses = [cross_entropy(lg, int(lb)) for lg, lb in zip(logits_list, labels)]
    total = losses[0]
    for l in losses[1:]:
        total = add(total, l)
    return mul(total, 1.0 / len(losses))


def _routing_term(trace, kappa):
    if trace.mode == "expert_choice":
        # mean over steps of (mean gate - kappa)^2, over the scored tokens
        terms = []
        for s in trace.step_scores:
            dev = sub(mean(s), kappa)
            terms.append(mul(dev, dev))
        total = terms[0]
        for t in terms[1:]:
            total = add(total, t)
        return mul(total, 1.0 / len(terms))
    if trace.mode == "token_choice":
        # budget alignment: expected normalized depth should sit at kappa
        logits = trace.depth_logits                      # (N, R)
        r = logits.shape[1]
        levels = Tensor(np.arange(1, r + 1, dtype=np.float64).reshape(r, 1) / r)
        probs = softmax_rows(logits)
        exp_depth = mean(probs @ levels)                 # scalar in (0, 1]
        dev = sub(exp_depth, kappa)
        return mul(dev, dev)
    return Tensor(np.asarray(0.0))


def routing_loss(traces, kappa):
    """Squared deviation of the per-step mean gate from the keep target."""
    if not 0.0 < kappa <= 1.0:
        raise ValueError(f"target keep fraction must be in (0, 1], got {kappa}")
    terms = [_routing_term(t, kappa) for t in traces]
    total = terms[0]
    for t in terms[1:]:
        total = add(total, t)
    return mul(total, 1.0 / len(terms))


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
