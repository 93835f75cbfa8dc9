"""Per-token recursion routing, run for a whole batch of images at once.

At every recursion step a lightweight router scores each still-active patch
token; the top share of scorers (set by ``beta``) continues, everyone else
exits and keeps its hidden state frozen from that point on. Survivors are
updated as ``h <- g * block(h) + h`` where ``g`` is the token's own gate, and
the block attends only over its own image's surviving rows plus that image's
class token. The class token never exits, is never counted against the keep
budget, and is updated ungated.

Three modes:

* ``expert_choice`` - fresh scores and top-K selection at every step.
* ``token_choice``  - a depth predictor fixes each token's total step count
  up front from its initial embedding; updates are ungated.
* ``static``        - no router at all; every token runs all steps (the
  ablation baseline).

The batch is one step-synchronous computation. Its hidden state is a
(B*(N+1), D) row matrix in which image b owns rows [b*(N+1), (b+1)*(N+1)).
At each step the rows that take part are packed into one matrix per group of
images with the same number of participants, and each group goes through the
block once. Expert-choice keeps the same count in every image and static
keeps all tokens, so those modes always form a single group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backbone import encoder_block, trunc_normal
from .errors import ShapeError
from .tensor import (
    Tensor,
    add,
    concat_rows,
    gather_rows,
    matmul,
    mul,
    scatter_rows,
    sigmoid,
)


@dataclass
class StepRouter:
    w: Tensor  # (D, 1)
    b: Tensor  # (1,)


@dataclass
class RouterParams:
    mode: str
    steps: list = None        # expert_choice: one StepRouter per step
    choice_w: Tensor = None   # token_choice: (D, R) depth-logit weights
    choice_b: Tensor = None   # token_choice: (R,)


def init_router_params(cfg, gen) -> RouterParams:
    if cfg.routing_mode == "expert_choice":
        steps = [
            StepRouter(
                w=Tensor(trunc_normal(gen, (cfg.hidden, 1)), requires_grad=True),
                b=Tensor(np.zeros(1), requires_grad=True),
            )
            for _ in range(cfg.max_recursion)
        ]
        return RouterParams(mode=cfg.routing_mode, steps=steps)
    if cfg.routing_mode == "token_choice":
        return RouterParams(
            mode=cfg.routing_mode,
            choice_w=Tensor(trunc_normal(gen, (cfg.hidden, cfg.max_recursion)), requires_grad=True),
            choice_b=Tensor(np.zeros(cfg.max_recursion), requires_grad=True),
        )
    return RouterParams(mode="static")


def router_param_count(cfg):
    if cfg.routing_mode == "expert_choice":
        return cfg.max_recursion * (cfg.hidden + 1)
    if cfg.routing_mode == "token_choice":
        return cfg.hidden * cfg.max_recursion + cfg.max_recursion
    return 0


@dataclass
class RoutingHooks:
    """Test-only overrides; never reachable from the CLI.

    force_gate replaces every gate value (including the class token's) with a
    constant; force_keep replaces the selected set with fixed token indices.
    """

    force_gate: float = None
    force_keep: np.ndarray = None


@dataclass(eq=False)
class BatchRouting:
    """Graph tensors of one batch's routing decisions, shared by its traces."""

    images: int
    step_scores: list = field(default_factory=list)   # per step: (B*A_r, 1), A_r rows per image
    depth_logits: Tensor = None                       # token_choice only: (B*N, R)


@dataclass
class RoutingTrace:
    """Everything the profiler and exporter need from one image's forward pass."""

    mode: str
    beta: float
    max_steps: int
    num_patches: int
    step_scored: list = field(default_factory=list)       # active patch count at step start
    step_selected: list = field(default_factory=list)     # K kept
    step_attended: list = field(default_factory=list)     # rows fed to the block (kept + class)
    exit_depth: np.ndarray = None                         # (N+1,)
    exit_hidden: dict = field(default_factory=dict)       # token -> frozen row
    batch: BatchRouting = None                            # routing tensors of the image's batch
    index: int = 0                                        # the image's position in that batch

    def depth_histogram(self):
        """Patch exit-depth counts over 1..max_steps (class token excluded)."""
        hist = {r: 0 for r in range(1, self.max_steps + 1)}
        for d in self.exit_depth[1:]:
            hist[int(d)] += 1
        return hist

    def patch_depths(self):
        return self.exit_depth[1:].copy()


def routing_score(h_rows, step: StepRouter):
    """Sigmoid gate per row: sigmoid(h . w + b), shape (rows, 1)."""
    return sigmoid(add(matmul(h_rows, step.w), step.b))


def select_active(scores, beta):
    """Keep the top K = max(1, round((1-beta)*A)) of A scores.

    ``scores`` is one vector of A scores, or a (B, A) matrix with one image's
    scores per row. Ordering is (score desc, index asc), which makes ties
    deterministic and the kept count exact. ``round`` is Python's
    round-half-even. Returns (threshold, kept_indices) where the threshold is
    the K-th largest score and kept indices are sorted ascending; for a
    matrix both are per row, of shapes (B,) and (B, K).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim not in (1, 2):
        raise ShapeError(f"select_active expects a vector or a matrix, got shape {scores.shape}")
    if scores.size == 0:
        raise ShapeError("select_active on an empty active set")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    k = max(1, round((1.0 - beta) * scores.shape[-1]))
    order = np.argsort(-scores, axis=-1, kind="stable")[..., :k]
    threshold = np.take_along_axis(scores, order[..., k - 1 :], axis=-1)[..., 0]
    kept = np.sort(order, axis=-1)
    return (float(threshold), kept) if scores.ndim == 1 else (threshold, kept)


def token_choice_assign(z0, router: RouterParams, images=1):
    """Assign each patch token a fixed depth from its initial embedding.

    ``z0`` holds ``images`` equal blocks of rows, each a class token and then
    that image's patches. Depth is the argmax over per-depth logits; ties
    break toward the smaller depth. Returns (depths over the patches of every
    image in order, (patches, R) logits graph tensor).
    """
    tokens = z0.shape[0] // images
    patches = gather_rows(z0, np.flatnonzero(np.arange(z0.shape[0]) % tokens))
    logits = add(matmul(patches, router.choice_w), router.choice_b)  # (B*N, R)
    depths = np.argmax(logits.data, axis=1) + 1  # first max wins = smaller depth
    return depths.astype(np.int64), logits


def _expert_choice_take(h, active, step_router, beta, batch, hooks):
    """Score every active patch and keep each image's top K.

    Returns the (B, N+1) mask of the rows that take part, the gates as
    (source tensor, (B, N+1) map from a row to its source row) and the
    number of patches each image scored. Row 0 of the source is the class
    token's gate of 1, row 1 + j is the j-th score.
    """
    images, tokens = active.shape
    live = active.copy()
    live[:, 0] = False
    rows = np.flatnonzero(live)                 # image-major, A per image
    scores = routing_score(gather_rows(h, rows), step_router)  # (B*A, 1)
    batch.step_scores.append(scores)
    a = rows.size // images

    if hooks is not None and hooks.force_keep is not None:
        pick = np.flatnonzero(np.isin(rows % tokens, hooks.force_keep))
    else:
        _, kept = select_active(scores.data.reshape(images, a), beta)
        pick = (kept + a * np.arange(images)[:, None]).ravel()
    take = np.zeros(images * tokens, dtype=bool)
    take[::tokens] = True
    take[rows[pick]] = True
    slot = np.zeros(images * tokens, dtype=np.intp)
    if hooks is not None and hooks.force_gate is not None:
        source = Tensor(np.full((1, 1), float(hooks.force_gate)))
    else:
        slot[rows[pick]] = pick + 1
        source = concat_rows([Tensor(np.ones((1, 1))), scores])
    return take.reshape(images, tokens), (source, slot.reshape(images, tokens)), a


def _apply_block(h, block, take, counts, gates):
    """Update every taken row as g * block(rows) + rows.

    ``counts`` holds each image's number of taken rows. Images with the same
    count form one group and go through the block together, each image's
    rows attending only to each other. ``gates`` is None for an ungated
    update, else as ``_expert_choice_take`` returns it.
    """
    sizes = sorted(set(counts) - {0})
    for m in sizes:
        members = counts.count(m)
        group = take if len(sizes) == 1 else take & (np.asarray(counts) == m)[:, None]
        whole = members * m == take.size  # every row of the batch, in order
        if not whole:
            rows = np.flatnonzero(group)
        sub = h if whole else gather_rows(h, rows)
        out = encoder_block(sub, block, members)
        if gates is not None:
            source, slot = gates
            out = mul(gather_rows(source, slot[group]), out)
        out = add(out, sub)
        h = out if whole else scatter_rows(h, rows, out)
    return h


def run_recursion(z0, blocks, router: RouterParams, cfg, hooks=None):
    """Drive the recursion of a batch for up to max_recursion steps.

    ``z0`` holds each image's N+1 rows in turn, as ``embed`` returns them.
    ``blocks`` holds one block when parameters are shared, else one per
    step. An image stops taking part once none of its patches is active.
    Exited rows are carried through scatter copies, so they stay
    bit-identical to the step they exited at. Returns the aggregated
    (B*(N+1), D) hidden tensor and one trace per image.
    """
    tokens = cfg.tokens
    images, extra = divmod(z0.shape[0], tokens)
    if extra or not images:
        raise ShapeError(f"{z0.shape[0]} rows are not a whole number of {tokens}-token images")
    r_max = cfg.max_recursion
    batch = BatchRouting(images=images)
    traces = [
        RoutingTrace(mode=router.mode, beta=cfg.beta, max_steps=r_max,
                     num_patches=tokens - 1, batch=batch, index=b)
        for b in range(images)
    ]
    active = np.ones((images, tokens), dtype=bool)  # column 0 is the class token
    # survivors, and always the class token, carry the full depth
    exit_depth = np.full((images, tokens), r_max, dtype=np.int64)

    if router.mode == "token_choice":
        depths, batch.depth_logits = token_choice_assign(z0, router, images)
        depths = depths.reshape(images, tokens - 1)
        # each token's last step; the class token runs while its image has patches
        last = np.concatenate([depths.max(axis=1, keepdims=True), depths], axis=1)

    h = z0
    for r in range(1, r_max + 1):
        block = blocks[0] if len(blocks) == 1 else blocks[r - 1]
        if router.mode == "expert_choice":
            take, gates, scored = _expert_choice_take(
                h, active, router.steps[r - 1], cfg.beta, batch, hooks)
        elif router.mode == "token_choice":
            # every live patch continues, so an image scores what it keeps
            take, gates, scored = last >= r, None, None
        else:
            take, gates, scored = active, None, 0
        counts = take.sum(axis=1).tolist()
        if not any(counts):
            break  # only class tokens left; nothing to route
        for trace, m in zip(traces, counts):
            if m:
                trace.step_scored.append(m - 1 if scored is None else scored)
                trace.step_selected.append(m - 1)
                trace.step_attended.append(m)

        h = _apply_block(h, block, take, counts, gates)

        if router.mode == "expert_choice":
            leaving = active & ~take
            active = take
        elif router.mode == "token_choice":
            leaving = last == r
            leaving[:, 0] = False
        else:
            continue
        flat = np.flatnonzero(leaving)
        exit_depth.reshape(-1)[flat] = r
        frozen = h.data[flat]
        for row, g in zip(frozen, flat.tolist()):
            b, t = divmod(g, tokens)
            traces[b].exit_hidden[t] = row

    for trace, depth in zip(traces, exit_depth):
        trace.exit_depth = depth
    return h, traces
