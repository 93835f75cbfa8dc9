"""Per-token recursion routing.

At every recursion step a lightweight router scores each still-active patch
token; the top share of scorers (set by ``beta``) continues, everyone else
exits and keeps its hidden state frozen from that point on. Survivors are
updated as ``h <- g * block(h) + h`` where ``g`` is the token's own gate, and
the block attends only over the surviving rows plus the class token. The
class token never exits, is never counted against the keep budget, and is
updated ungated.

Three modes:

* ``expert_choice`` - fresh scores and top-K selection at every step.
* ``token_choice``  - a depth predictor fixes each token's total step count
  up front from its initial embedding; updates are ungated.
* ``static``        - no router at all; every token runs all steps (the
  ablation baseline).
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


@dataclass
class TokenState:
    hidden: Tensor                 # (N+1, D)
    active: np.ndarray             # (N+1,) bool; row 0 is the class token
    exit_depth: np.ndarray         # (N+1,) int, filled in as tokens exit


@dataclass
class RoutingTrace:
    """Everything the profiler and exporter need from one forward pass."""

    mode: str
    beta: float
    max_steps: int
    num_patches: int
    step_scores: list = field(default_factory=list)       # graph tensors (A_r, 1)
    step_scored: list = field(default_factory=list)       # active patch count at step start
    step_selected: list = field(default_factory=list)     # K kept
    step_attended: list = field(default_factory=list)     # rows fed to the block (kept + class)
    exit_depth: np.ndarray = None                         # (N+1,)
    exit_hidden: dict = field(default_factory=dict)       # token -> frozen row copy
    depth_logits: Tensor = None                           # token_choice only

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

    Ordering is (score desc, index asc), which makes ties deterministic and
    the kept count exact. ``round`` is Python's round-half-even. Returns
    (threshold, kept_indices) where the threshold is the K-th largest score
    and kept indices are sorted ascending.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    a = scores.size
    if a == 0:
        raise ShapeError("select_active on an empty active set")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    k = max(1, round((1.0 - beta) * a))
    order = np.lexsort((np.arange(a), -scores))
    kept = order[:k]
    threshold = float(scores[order[k - 1]])
    return threshold, np.sort(kept)


def token_choice_assign(z0, router: RouterParams):
    """Assign each patch token a fixed depth from its initial embedding.

    Depth is the argmax over per-depth logits; ties break toward the
    smaller depth. Returns (depths over patches, logits graph tensor).
    """
    n_total = z0.shape[0]
    patches = gather_rows(z0, np.arange(1, n_total))
    logits = add(matmul(patches, router.choice_w), router.choice_b)  # (N, R)
    depths = np.argmax(logits.data, axis=1) + 1  # first max wins = smaller depth
    return depths.astype(np.int64), logits


def _expert_choice_step(state, block, step_router, r, beta, trace, hooks):
    h = state.hidden
    active_patches = np.flatnonzero(state.active[1:]) + 1
    a = active_patches.size
    scores = routing_score(gather_rows(h, active_patches), step_router)
    trace.step_scores.append(scores)
    trace.step_scored.append(int(a))

    _, kept_local = select_active(scores.data[:, 0], beta)
    if hooks is not None and hooks.force_keep is not None:
        kept_global = np.asarray(hooks.force_keep, dtype=np.intp)
        kept_local = np.searchsorted(active_patches, kept_global)
    else:
        kept_global = active_patches[kept_local]
    trace.step_selected.append(int(kept_global.size))

    participants = np.concatenate(([0], kept_global))
    trace.step_attended.append(int(participants.size))
    sub = gather_rows(h, participants)
    f_out = encoder_block(sub, block)

    if hooks is not None and hooks.force_gate is not None:
        gates = Tensor(np.full((participants.size, 1), float(hooks.force_gate)))
    else:
        kept_scores = gather_rows(scores, kept_local)          # (K, 1)
        gates = concat_rows([Tensor(np.ones((1, 1))), kept_scores])
    updated = add(mul(gates, f_out), sub)
    state.hidden = scatter_rows(h, participants, updated)

    dropped = np.setdiff1d(active_patches, kept_global, assume_unique=True)
    for t in dropped:
        state.active[t] = False
        state.exit_depth[t] = r
        trace.exit_hidden[int(t)] = state.hidden.data[t].copy()
    return state


def _token_choice_step(state, block, depths, r, trace):
    h = state.hidden
    active_patches = np.flatnonzero(state.active[1:]) + 1
    participants = np.concatenate(([0], active_patches))
    trace.step_scored.append(int(active_patches.size))
    trace.step_selected.append(int(active_patches.size))
    trace.step_attended.append(int(participants.size))

    sub = gather_rows(h, participants)
    f_out = encoder_block(sub, block)
    state.hidden = scatter_rows(h, participants, add(f_out, sub))

    leaving = active_patches[depths[active_patches - 1] == r]
    for t in leaving:
        state.active[t] = False
        state.exit_depth[t] = r
        trace.exit_hidden[int(t)] = state.hidden.data[t].copy()
    return state


def _static_step(state, block, trace):
    h = state.hidden
    trace.step_scored.append(0)
    trace.step_selected.append(int(state.active[1:].sum()))
    trace.step_attended.append(int(h.shape[0]))
    state.hidden = add(encoder_block(h, block), h)
    return state


def recursion_step(state, block, step_router, r, beta, trace, hooks=None):
    """One expert-choice step: score, select, gated update, freeze exits."""
    if not state.active[0]:
        raise ShapeError("class token must stay active")
    return _expert_choice_step(state, block, step_router, r, beta, trace, hooks)


def run_recursion(z0, blocks, router: RouterParams, cfg, hooks=None):
    """Drive the recursion for up to max_recursion steps.

    ``blocks`` holds one block when parameters are shared, else one per
    step. Exited rows are carried through scatter copies, so they stay
    bit-identical to the step they exited at. Returns the aggregated
    (N+1) x D hidden tensor and the populated trace.
    """
    n_total = z0.shape[0]
    state = TokenState(
        hidden=z0,
        active=np.ones(n_total, dtype=bool),
        exit_depth=np.zeros(n_total, dtype=np.int64),
    )
    r_max = cfg.max_recursion
    trace = RoutingTrace(
        mode=router.mode, beta=cfg.beta, max_steps=r_max, num_patches=n_total - 1
    )

    depths = None
    if router.mode == "token_choice":
        depths, logits = token_choice_assign(z0, router)
        trace.depth_logits = logits

    for r in range(1, r_max + 1):
        if not state.active[1:].any():
            break  # only the class token left; nothing to route
        block = blocks[0] if len(blocks) == 1 else blocks[r - 1]
        if router.mode == "expert_choice":
            state = _expert_choice_step(state, block, router.steps[r - 1], r, cfg.beta, trace, hooks)
        elif router.mode == "token_choice":
            state = _token_choice_step(state, block, depths, r, trace)
        else:
            state = _static_step(state, block, trace)

    # survivors (and always the class token) carry the full depth
    state.exit_depth[state.active] = r_max
    state.exit_depth[0] = r_max
    trace.exit_depth = state.exit_depth.copy()
    return state.hidden, trace
