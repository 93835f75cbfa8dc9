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
An expert-choice step records two tape nodes, every other step one: the
router score (``routing_score``: gather, product, bias and sigmoid) and the
step itself (``_apply_block``), which gathers the taken rows, runs them
through one raw ``encoder_block`` call, applies the gate and the residual in
place and writes the rows into a copy of the hidden state, with a
hand-written backward. The rows that take part are packed image by image,
and the block gets each image's number of rows (its run) and attends within
runs only. Under token-choice the images of a step take different numbers of
rows, so they are packed in order of that number, and the block attends over
each stretch of equal runs as one stack. Expert-choice keeps the same count
in every image and static keeps all tokens, so their rows keep batch order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .backbone import block_tensors, encoder_block, trunc_normal
from .errors import ShapeError
from .tensor import Tensor, _mm, _record, _recording, add, gather_rows, matmul

# The benchmark's tracer wraps ``routing.gather_rows`` and
# ``routing.scatter_rows`` by these names (benchmark/run.py, LAYER_SPANS).
# Since a step is one op nothing here scatters, but the name stays.
from .tensor import scatter_rows  # noqa: F401


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
    batch: BatchRouting = None                            # routing tensors of the image's batch

    def depth_histogram(self):
        """Patch exit-depth counts over 1..max_steps (class token excluded)."""
        hist = {r: 0 for r in range(1, self.max_steps + 1)}
        for d in self.exit_depth[1:]:
            hist[int(d)] += 1
        return hist

    def patch_depths(self):
        return self.exit_depth[1:].copy()


def routing_score(h, rows, step: StepRouter):
    """Gates sigmoid(h[rows] . w + b) of the given rows of h, shape (rows, 1).

    One tape node for the gather, the router's product and bias and the
    sigmoid; ``expit`` saturates to 0 or 1 where exp would overflow. The
    backward scatters the rows' gradient back into h's gathered rows.
    """
    x = h.data[rows]
    w = step.w.data
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"router of width {w.shape[0]} on rows of shape {x.shape}")
    z = _mm(x, w)
    z += step.b.data
    y = expit(z, out=z)

    def back(g):
        dz = g * y * (1.0 - y)
        dh = None
        if h.requires_grad:
            dh = np.zeros_like(h.data)
            dh[rows] = dz @ w.T
        return (dh, x.T @ dz if step.w.requires_grad else None,
                dz.sum(axis=0) if step.b.requires_grad else None)

    return _record(Tensor(y), (h, step.w, step.b), back)


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
    kept = np.sort(order, axis=-1)
    if scores.ndim == 1:
        return float(scores[order[-1]]), kept
    return scores[np.arange(scores.shape[0]), order[:, -1]], kept


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


def _expert_choice_take(h, active, step_router, beta, batch):
    """Score every active patch and keep each image's top K.

    Returns the (B, N+1) mask of the rows that take part, the gates as
    (scores tensor, each row of the batch's index into the scores, or -1
    for an ungated row such as the class token) and the number of patches
    each image scored.
    """
    images, tokens = active.shape
    live = active.copy()
    live[:, 0] = False
    rows = np.flatnonzero(live)                 # image-major, A per image
    scores = routing_score(h, rows, step_router)  # (B*A, 1)
    batch.step_scores.append(scores)
    a = rows.size // images
    _, kept = select_active(scores.data.reshape(images, a), beta)
    pick = (kept + a * np.arange(images)[:, None]).ravel()
    take = np.zeros(images * tokens, dtype=bool)
    take[::tokens] = True
    take[rows[pick]] = True
    slot = np.full(images * tokens, -1, dtype=np.intp)
    slot[rows[pick]] = pick
    return take.reshape(images, tokens), (scores, slot), a


def _apply_block(h, block, take, counts, gates):
    """Update every taken row as g * block(rows) + rows, as one tape node.

    ``counts`` holds each image's number of taken rows. The taken rows are
    gathered image by image, the images ordered by their count (stably, so
    equal counts keep image order), and go through one ``encoder_block``
    call as one run per image: each image's rows attend only to each other,
    and the images of equal count form one contiguous stretch. With one
    count the order is the batch's own. ``gates`` is None for an ungated
    update, else as ``_expert_choice_take`` returns it. The gate and the
    residual are applied in place and the rows written into a copy of h;
    the block's backward state is kept only when the node is recorded.
    """
    runs = [m for m in counts if m]
    whole = sum(runs) == take.size  # every row of the batch, in order
    if not whole:
        rows = np.flatnonzero(take)
        if runs.count(runs[0]) < len(runs):
            rows = rows[np.argsort(np.asarray(counts)[rows // take.shape[1]], kind="stable")]
            runs.sort()
    part = h.data if whole else h.data[rows]
    inputs = (h, *block_tensors(block))
    if gates is not None:
        scores, slot = gates
        inputs += (scores,)
        slot = slot if whole else slot[rows]
        gated = np.flatnonzero(slot >= 0)   # the taken rows that have a gate
        slot = slot[gated]                  # and their gates' rows in scores
        gate = np.ones((part.shape[0], 1), dtype=part.dtype)
        gate[gated] = scores.data[slot]
    keep = _recording(inputs)
    y, block_back = encoder_block(part, block, runs, keep)
    if gates is None:
        new = y  # the backward reads no y when ungated
    else:
        new = y * gate if keep else np.multiply(y, gate, out=y)
    new += part
    if whole:
        out = new
    else:
        out = h.data.copy()
        out[rows] = new
    if not keep:
        return _record(Tensor(out), inputs, None)

    def back(g):
        g_rows = g if whole else g[rows]
        dpart, *grads = block_back(g_rows if gates is None else g_rows * gate)
        dpart += g_rows
        if whole:
            dh = dpart
        else:
            dh = g.copy()
            dh[rows] = dpart
        if gates is None:
            return (dh, *grads)
        dscores = None
        if scores.requires_grad:
            dscores = np.zeros_like(scores.data)
            dscores[slot] = (g_rows[gated] * y[gated]).sum(axis=1, keepdims=True)
        return (dh, *grads, dscores)

    return _record(Tensor(out), inputs, back)


def run_recursion(z0, blocks, router: RouterParams, cfg):
    """Drive the recursion of a batch for up to max_recursion steps.

    ``z0`` holds each image's N+1 rows in turn, as ``embed`` returns them.
    ``blocks`` holds one block when parameters are shared, else one per
    step. An image stops taking part once none of its patches is active.
    Each step writes its rows into a copy of the hidden state, so exited
    rows stay bit-identical to the step they exited at. Returns the
    aggregated (B*(N+1), D) hidden tensor and one trace per image.
    """
    tokens = cfg.tokens
    images, extra = divmod(z0.shape[0], tokens)
    if extra or not images:
        raise ShapeError(f"{z0.shape[0]} rows are not a whole number of {tokens}-token images")
    r_max = cfg.max_recursion
    batch = BatchRouting(images=images)
    traces = [
        RoutingTrace(mode=router.mode, beta=cfg.beta, max_steps=r_max,
                     num_patches=tokens - 1, batch=batch)
        for _ in range(images)
    ]
    active = np.ones((images, tokens), dtype=bool)  # column 0 is the class token
    # survivors, and always the class token, carry the full depth
    exit_depth = np.full((images, tokens), r_max, dtype=np.int64)

    if router.mode == "token_choice":
        depths, batch.depth_logits = token_choice_assign(z0, router, images)
        exit_depth[:, 1:] = depths.reshape(images, tokens - 1)
        # each token's last step; the class token runs while its image has patches
        last = exit_depth.copy()
        last[:, 0] = last[:, 1:].max(axis=1)

    h = z0
    for r in range(1, r_max + 1):
        block = blocks[0] if len(blocks) == 1 else blocks[r - 1]
        if router.mode == "expert_choice":
            take, gates, scored = _expert_choice_take(
                h, active, router.steps[r - 1], cfg.beta, batch)
            exit_depth[active & ~take] = r
            active = take
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

    for trace, depth in zip(traces, exit_depth):
        trace.exit_depth = depth
    return h, traces
