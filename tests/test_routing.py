import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morvit.routing as routing
from morvit.backbone import encoder_block, patchify, embed
from morvit.config import PRESETS
from morvit.errors import ShapeError
from morvit.model import init_params, forward_sample, total_loss
from morvit.routing import (
    RoutingHooks,
    StepRouter,
    routing_score,
    run_recursion,
    select_active,
    token_choice_assign,
)
from morvit.tensor import Tape, Tensor, add, backward, gather_rows


def gen(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def tiny_cfg(**kw):
    return PRESETS["tiny-desk"].replace(**kw).validate()


def random_z0(cfg, seed=0):
    params = init_params(cfg.replace(seed=seed))
    img = gen(seed + 50).random((cfg.image_h, cfg.image_w, cfg.channels))
    return embed(patchify(img, cfg.patch_size), params.embed), params


# ---------------------------------------------------------------- routing_score

def test_score_zero_router_is_half():
    step = StepRouter(w=Tensor(np.zeros((8, 1))), b=Tensor(np.zeros(1)))
    h = Tensor(gen(1).normal(size=(5, 8)))
    out = routing_score(h, step)
    assert np.array_equal(out.data, np.full((5, 1), 0.5))


def test_score_saturated_bias():
    step = StepRouter(w=Tensor(np.zeros((8, 1))), b=Tensor(np.array([-50.0])))
    out = routing_score(Tensor(gen(2).normal(size=(3, 8))), step)
    assert np.all(out.data < 1e-20)


def test_score_matches_dot_product_oracle():
    g = gen(3)
    w = g.normal(size=(8, 1))
    b = g.normal(size=(1,))
    h = g.normal(size=(6, 8))
    step = StepRouter(w=Tensor(w), b=Tensor(b))
    out = routing_score(Tensor(h), step)
    for i in range(6):
        z = sum(h[i, j] * w[j, 0] for j in range(8)) + b[0]
        assert abs(out.data[i, 0] - 1.0 / (1.0 + np.exp(-z))) < 1e-12


# ---------------------------------------------------------------- select_active

def test_select_beta_zero_keeps_all():
    thr, kept = select_active(gen(4).random(7), 0.0)
    assert np.array_equal(kept, np.arange(7))


def test_select_all_tied_keeps_lowest_indices():
    thr, kept = select_active(np.full(8, 0.42), 0.5)
    assert np.array_equal(kept, [0, 1, 2, 3])
    assert thr == 0.42


def test_select_hand_case():
    thr, kept = select_active(np.array([0.9, 0.1, 0.8, 0.2]), 0.5)
    assert np.array_equal(kept, [0, 2])
    assert thr == 0.8


def test_select_empty_errors():
    with pytest.raises(ShapeError):
        select_active(np.array([]), 0.5)


@pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.75, 0.9])
def test_select_cardinality_small_sweep(beta):
    for a in range(1, 65):
        for scores in (gen(a).random(a), np.full(a, 0.3)):
            _, kept = select_active(scores, beta)
            assert kept.size == max(1, round((1.0 - beta) * a))


@given(st.integers(1, 40), st.floats(0.0, 0.99), st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_select_keeps_top_scores(a, beta, seed):
    scores = np.random.Generator(np.random.Philox(seed)).random(a)
    thr, kept = select_active(scores, beta)
    k = max(1, round((1.0 - beta) * a))
    assert kept.size == k
    # every kept score is >= every dropped score
    dropped = np.setdiff1d(np.arange(a), kept)
    if dropped.size:
        assert scores[kept].min() >= scores[dropped].max()
    assert thr == sorted(scores, reverse=True)[k - 1]


@pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.9])
def test_select_matrix_matches_row_by_row(beta):
    scores = np.round(gen(5).random((6, 11)), 1)  # one decimal, so rows hold ties
    scores[2] = 0.5
    thr, kept = select_active(scores, beta)
    assert kept.shape == (6, max(1, round((1.0 - beta) * 11)))
    for b in range(6):
        row_thr, row_kept = select_active(scores[b], beta)
        assert thr[b] == row_thr
        assert np.array_equal(kept[b], row_kept)


# ---------------------------------------------------------------- one step

def test_step_gate_zero_limit():
    cfg = tiny_cfg(max_recursion=1)
    z0, params = random_z0(cfg, seed=5)
    params.router.steps[0].b.data[:] = -50.0
    hidden, (trace,) = run_recursion(z0, params.blocks, params.router, cfg)
    survivors = [t for t in range(1, cfg.tokens) if t not in trace.exit_hidden]
    assert len(survivors) == trace.step_selected[0] == 2
    assert np.abs(hidden.data[survivors] - z0.data[survivors]).max() < 1e-15


def test_step_gates_hooked_one_matches_block_composition():
    cfg = tiny_cfg(beta=0.0, max_recursion=1)
    z0, params = random_z0(cfg, seed=6)
    hooks = RoutingHooks(force_gate=1.0)
    hidden, _ = run_recursion(z0, params.blocks, params.router, cfg, hooks=hooks)
    oracle = add(z0, encoder_block(z0, params.blocks[0]))
    assert np.abs(hidden.data - oracle.data).max() == 0.0


def test_step_hand_set_scores():
    cfg = tiny_cfg(max_recursion=1)
    z0, params = random_z0(cfg, seed=7)
    # router reads only coordinate 0; plant known values there
    z0 = Tensor(z0.data.copy())
    z0.data[1:, 0] = [3.0, -1.0, 2.0, -2.0]
    params.router.steps[0].w.data[:] = 0.0
    params.router.steps[0].w.data[0, 0] = 1.0
    params.router.steps[0].b.data[:] = 0.0
    hidden, (trace,) = run_recursion(z0, params.blocks, params.router, cfg)
    # scores rank tokens 1 and 3 highest; beta=0.5 keeps K=2
    assert sorted(trace.exit_hidden) == [2, 4]
    assert trace.step_selected == [2] and trace.step_attended == [3]
    exited = [2, 4]
    assert hidden.data[exited].tobytes() == z0.data[exited].tobytes()
    assert np.abs(hidden.data[[1, 3]] - z0.data[[1, 3]]).max() > 0.0


# ---------------------------------------------------------------- run_recursion

def test_run_r1_every_token_depth_one():
    cfg = tiny_cfg(max_recursion=1)
    z0, params = random_z0(cfg, seed=8)
    _, (trace,) = run_recursion(z0, params.blocks, params.router, cfg)
    assert np.array_equal(trace.exit_depth[1:], np.ones(cfg.num_patches))
    assert trace.exit_depth[0] == 1


def test_run_weight_tied_oracle():
    cfg = tiny_cfg(max_recursion=3, beta=0.0)
    z0, params = random_z0(cfg, seed=9)
    hooks = RoutingHooks(force_gate=1.0)
    hidden, _ = run_recursion(z0, params.blocks, params.router, cfg, hooks=hooks)
    h = z0
    for _ in range(3):
        h = add(h, encoder_block(h, params.blocks[0]))
    assert np.abs(hidden.data - h.data).max() < 1e-10


def test_run_counting_invariants():
    cfg = tiny_cfg(max_recursion=4, beta=0.25)
    for seed in range(5):
        z0, params = random_z0(cfg, seed=20 + seed)
        _, (trace,) = run_recursion(z0, params.blocks, params.router, cfg)
        scored = trace.step_scored
        assert all(scored[i + 1] <= scored[i] for i in range(len(scored) - 1))
        assert sum(trace.depth_histogram().values()) == cfg.num_patches


def test_run_frozen_exits_bit_identical():
    cfg = tiny_cfg(max_recursion=3, beta=0.5)
    for seed in range(10):
        z0, params = random_z0(cfg, seed=40 + seed)
        hidden, (trace,) = run_recursion(z0, params.blocks, params.router, cfg)
        for tok, frozen in trace.exit_hidden.items():
            assert hidden.data[tok].tobytes() == frozen.tobytes()


def test_run_force_keep_hook():
    cfg = tiny_cfg(max_recursion=1)
    z0, params = random_z0(cfg, seed=60)
    hooks = RoutingHooks(force_keep=np.array([2, 4]))
    _, (trace,) = run_recursion(z0, params.blocks, params.router, cfg, hooks=hooks)
    assert sorted(trace.exit_hidden) == [1, 3]
    assert trace.step_attended == [3]


def test_gradient_reaches_step_routers():
    # Task gradient reaches theta_r whenever a step-r survivor is read again
    # later (so every r < R). A final-step gate only scales its own token's
    # unread output row, so theta_R needs the routing loss to learn.
    cfg = tiny_cfg(max_recursion=3, routing_lambda=0.0)
    params = init_params(cfg)
    img = gen(61).random((cfg.image_h, cfg.image_w, cfg.channels))
    with Tape():
        logits, trace = forward_sample(img, params, cfg)
        loss = total_loss([logits], [1], [trace], cfg)
    backward(loss)
    for r in range(cfg.max_recursion - 1):
        w = params.router.steps[r].w
        assert w.grad is not None and np.abs(w.grad).sum() > 0, f"step {r}"
    last = params.router.steps[-1].w
    assert last.grad is None or np.abs(last.grad).sum() == 0.0

    # with the routing loss on, every step router is reachable
    cfg2 = tiny_cfg(max_recursion=3, routing_lambda=0.01)
    params2 = init_params(cfg2)
    with Tape():
        logits, trace = forward_sample(img, params2, cfg2)
        loss = total_loss([logits], [1], [trace], cfg2)
    backward(loss)
    for r, step in enumerate(params2.router.steps):
        assert step.w.grad is not None and np.abs(step.w.grad).sum() > 0, f"step {r}"


def test_permutation_equivariance_of_exit_depths():
    cfg = tiny_cfg(max_recursion=3)
    params = init_params(cfg)
    g = gen(62)
    img = g.random((cfg.image_h, cfg.image_w, cfg.channels))
    patches = patchify(img, cfg.patch_size)
    z0 = embed(patches, params.embed)
    _, (trace,) = run_recursion(z0, params.blocks, params.router, cfg)

    perm = g.permutation(cfg.num_patches)
    params.embed.e_pos.data[1:] = params.embed.e_pos.data[1:][perm]
    z0p = embed(Tensor(patches.data[perm]), params.embed)
    _, (trace_p,) = run_recursion(z0p, params.blocks, params.router, cfg)
    assert np.array_equal(trace_p.exit_depth[1:], trace.exit_depth[1:][perm])


# ---------------------------------------------------------------- token_choice

def tc_cfg(**kw):
    return tiny_cfg(routing_mode="token_choice", max_recursion=3, **kw)


def test_token_choice_zero_weights_all_depth_one():
    cfg = tc_cfg()
    z0, params = random_z0(cfg, seed=70)
    params.router.choice_w.data[:] = 0.0
    params.router.choice_b.data[:] = 0.0
    depths, _ = token_choice_assign(z0, params.router)
    assert np.array_equal(depths, np.ones(cfg.num_patches))


def test_token_choice_bias_one_hot_depth_three():
    cfg = tc_cfg()
    z0, params = random_z0(cfg, seed=71)
    params.router.choice_w.data[:] = 0.0
    params.router.choice_b.data[:] = [0.0, 0.0, 5.0]
    depths, _ = token_choice_assign(z0, params.router)
    assert np.array_equal(depths, np.full(cfg.num_patches, 3))


def test_token_choice_matches_independent_argmax():
    cfg = tc_cfg()
    z0, params = random_z0(cfg, seed=72)
    depths, logits = token_choice_assign(z0, params.router)
    for t in range(cfg.num_patches):
        row = z0.data[t + 1] @ params.router.choice_w.data + params.router.choice_b.data
        best, best_v = 0, row[0]
        for d in range(1, cfg.max_recursion):
            if row[d] > best_v:
                best, best_v = d, row[d]
        assert depths[t] == best + 1


def test_token_choice_run_depths_respected():
    cfg = tc_cfg()
    z0, params = random_z0(cfg, seed=73)
    depths, _ = token_choice_assign(z0, params.router)
    _, (trace,) = run_recursion(z0, params.blocks, params.router, cfg)
    assert np.array_equal(trace.exit_depth[1:], depths)
    assert trace.exit_depth[0] == cfg.max_recursion


def test_token_choice_batch_groups_by_participant_count(monkeypatch):
    cfg = tc_cfg()
    params = init_params(cfg)
    # depth logits read coordinate 0 only: +1 -> depth 3, 0 -> depth 2, -1 -> depth 1
    params.router.choice_w.data[:] = 0.0
    params.router.choice_w.data[0] = [-10.0, 0.0, 10.0]
    params.router.choice_b.data[:] = [0.0, 1.0, 0.0]
    planted = ([1.0, 1.0, 1.0, 1.0], [-1.0, -1.0, -1.0, -1.0], [1.0, -1.0, 0.0, -1.0])
    z0s = []
    for b, values in enumerate(planted):
        z = random_z0(cfg, seed=80 + b)[0].data.copy()
        z[1:, 0] = values
        z0s.append(z)

    calls = []
    block = routing.encoder_block

    def counted(h, blk, images=1):
        calls.append((h.shape[0], images))
        return block(h, blk, images)

    monkeypatch.setattr(routing, "encoder_block", counted)
    hidden, traces = run_recursion(Tensor(np.concatenate(z0s)), params.blocks, params.router, cfg)
    # step 1: all three images; step 2: 5 rows of image 0 and 3 of image 2;
    # step 3: 5 rows of image 0 and 2 of image 2; image 1 stopped after step 1
    assert calls == [(15, 3), (3, 1), (5, 1), (2, 1), (5, 1)]
    assert [t.step_attended for t in traces] == [[5, 5, 5], [5], [5, 3, 2]]
    assert [t.exit_depth.tolist() for t in traces] == \
        [[3, 3, 3, 3, 3], [3, 1, 1, 1, 1], [3, 3, 1, 2, 1]]

    monkeypatch.setattr(routing, "encoder_block", block)
    for b, (z, trace) in enumerate(zip(z0s, traces)):
        alone, (solo,) = run_recursion(Tensor(z), params.blocks, params.router, cfg)
        assert np.abs(hidden.data[5 * b : 5 * (b + 1)] - alone.data).max() < 1e-12
        assert solo.step_attended == trace.step_attended
        assert solo.exit_depth.tolist() == trace.exit_depth.tolist()
