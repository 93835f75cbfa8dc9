import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morvit.routing as routing
from morvit.backbone import patchify, embed
from morvit.config import PRESETS
from morvit.errors import ShapeError
from morvit.model import forward, init_params, total_loss
from morvit.routing import (
    StepRouter,
    routing_score,
    run_recursion,
    select_active,
    token_choice_assign,
)
from morvit.tensor import Tape, Tensor, add, backward, mul
from oracles import block_op, composed_score, grad_check, tsum


def gen(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def tiny_cfg(**kw):
    return PRESETS["tiny-desk"].replace(**kw).validate()


def random_z0(cfg, seed=0):
    params = init_params(cfg.replace(seed=seed))
    img = gen(seed + 50).random((cfg.image_h, cfg.image_w, cfg.channels))
    return embed(patchify(img, cfg.patch_size), params.embed), params


def unit_gates(monkeypatch):
    """Make every router score 1, so every kept token's gate is 1."""
    monkeypatch.setattr(routing, "routing_score",
                        lambda h, rows, step: Tensor(np.ones((rows.size, 1))))


def record_kept(monkeypatch):
    """Record the tokens each expert-choice step keeps, for one image."""
    kept_tokens = []
    select = routing.select_active

    def spy(scores, beta):
        threshold, kept = select(scores, beta)
        kept_tokens.append((kept[0] + 1).tolist())  # patch j is token j + 1
        return threshold, kept

    monkeypatch.setattr(routing, "select_active", spy)
    return kept_tokens


def record_steps(monkeypatch):
    """Record the hidden rows after every recursion step."""
    after_step = []
    apply_block = routing._apply_block

    def spy(h, *args):
        out = apply_block(h, *args)
        after_step.append(out.data)
        return out

    monkeypatch.setattr(routing, "_apply_block", spy)
    return after_step


# ---------------------------------------------------------------- routing_score

def test_score_zero_router_is_half():
    step = StepRouter(w=Tensor(np.zeros((8, 1))), b=Tensor(np.zeros(1)))
    h = Tensor(gen(1).normal(size=(5, 8)))
    out = routing_score(h, np.arange(5), step)
    assert np.array_equal(out.data, np.full((5, 1), 0.5))


def test_score_saturated_bias():
    step = StepRouter(w=Tensor(np.zeros((8, 1))), b=Tensor(np.array([-50.0])))
    out = routing_score(Tensor(gen(2).normal(size=(3, 8))), np.arange(3), step)
    assert np.all(out.data < 1e-20)


def test_score_saturates_without_overflow():
    step = StepRouter(w=Tensor(np.zeros((8, 1))), b=Tensor(np.zeros(1)))
    h = Tensor(np.zeros((2, 8)))
    with np.errstate(all="raise"):
        for bias, gate in ((-1000.0, 0.0), (1000.0, 1.0)):
            step.b.data[:] = bias
            assert np.array_equal(routing_score(h, np.arange(2), step).data, [[gate], [gate]])


def test_score_scores_only_the_given_rows_and_matches_composed_oracle():
    g = gen(4)
    h = Tensor(g.normal(size=(7, 8)), requires_grad=True)
    step = StepRouter(w=Tensor(g.normal(size=(8, 1)), requires_grad=True),
                      b=Tensor(g.normal(size=(1,)), requires_grad=True))
    rows = np.array([1, 2, 4, 6])
    weights = Tensor(g.normal(size=(4, 1)))
    with Tape() as tape:
        loss = tsum(mul(routing_score(h, rows, step), weights))
        assert len(tape.nodes) == 3  # the score, then mul and tsum
    backward(loss)
    ours = [t.grad for t in (h, step.w, step.b)]
    assert not ours[0][[0, 3, 5]].any()  # rows not scored get no gradient
    for t in (h, step.w, step.b):
        t.grad = None
    with Tape():
        ref_out = composed_score(h, rows, step)
        loss = tsum(mul(ref_out, weights))
    backward(loss)
    assert np.abs(routing_score(h, rows, step).data - ref_out.data).max() < 1e-15
    for mine, t in zip(ours, (h, step.w, step.b)):
        assert np.abs(mine - t.grad).max() < 1e-15
    assert grad_check(lambda: tsum(mul(routing_score(h, rows, step), weights)),
                      [h, step.w, step.b]) < 1e-6


def test_score_matches_dot_product_oracle():
    g = gen(3)
    w = g.normal(size=(8, 1))
    b = g.normal(size=(1,))
    h = g.normal(size=(6, 8))
    step = StepRouter(w=Tensor(w), b=Tensor(b))
    out = routing_score(Tensor(h), np.arange(6), step)
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

def test_step_gate_zero_limit(monkeypatch):
    cfg = tiny_cfg(max_recursion=1)
    z0, params = random_z0(cfg, seed=5)
    params.router.steps[0].b.data[:] = -50.0
    kept = record_kept(monkeypatch)
    hidden, (trace,) = run_recursion(z0, params.blocks, params.router, cfg)
    (survivors,) = kept
    assert len(survivors) == trace.step_selected[0] == 2
    assert np.abs(hidden.data[survivors] - z0.data[survivors]).max() < 1e-15


def test_step_unit_gates_match_block_composition(monkeypatch):
    cfg = tiny_cfg(beta=0.0, max_recursion=1)
    z0, params = random_z0(cfg, seed=6)
    unit_gates(monkeypatch)
    hidden, _ = run_recursion(z0, params.blocks, params.router, cfg)
    oracle = add(z0, block_op(z0, params.blocks[0]))
    assert np.abs(hidden.data - oracle.data).max() == 0.0


def test_step_hand_set_scores(monkeypatch):
    cfg = tiny_cfg(max_recursion=1)
    z0, params = random_z0(cfg, seed=7)
    # router reads only coordinate 0; plant known values there
    z0 = Tensor(z0.data.copy())
    z0.data[1:, 0] = [3.0, -1.0, 2.0, -2.0]
    params.router.steps[0].w.data[:] = 0.0
    params.router.steps[0].w.data[0, 0] = 1.0
    params.router.steps[0].b.data[:] = 0.0
    kept = record_kept(monkeypatch)
    hidden, (trace,) = run_recursion(z0, params.blocks, params.router, cfg)
    # scores rank tokens 1 and 3 highest; beta=0.5 keeps K=2
    assert kept == [[1, 3]]
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


def test_run_weight_tied_oracle(monkeypatch):
    cfg = tiny_cfg(max_recursion=3, beta=0.0)
    z0, params = random_z0(cfg, seed=9)
    unit_gates(monkeypatch)
    hidden, _ = run_recursion(z0, params.blocks, params.router, cfg)
    h = z0
    for _ in range(3):
        h = add(h, block_op(h, params.blocks[0]))
    assert np.abs(hidden.data - h.data).max() < 1e-10


def test_run_counting_invariants():
    cfg = tiny_cfg(max_recursion=4, beta=0.25)
    for seed in range(5):
        z0, params = random_z0(cfg, seed=20 + seed)
        _, (trace,) = run_recursion(z0, params.blocks, params.router, cfg)
        scored = trace.step_scored
        assert all(scored[i + 1] <= scored[i] for i in range(len(scored) - 1))
        assert sum(trace.depth_histogram().values()) == cfg.num_patches


def test_run_frozen_exits_bit_identical(monkeypatch):
    cfg = tiny_cfg(max_recursion=3, beta=0.5)
    after_step = record_steps(monkeypatch)
    for seed in range(10):
        z0, params = random_z0(cfg, seed=40 + seed)
        after_step.clear()
        hidden, (trace,) = run_recursion(z0, params.blocks, params.router, cfg)
        assert len(after_step) == cfg.max_recursion
        assert (trace.exit_depth < cfg.max_recursion).any()  # beta = 0.5 drops half
        for tok, depth in enumerate(trace.exit_depth):
            assert hidden.data[tok].tobytes() == after_step[depth - 1][tok].tobytes()


def test_run_fixed_kept_set(monkeypatch):
    cfg = tiny_cfg(max_recursion=1)
    z0, params = random_z0(cfg, seed=60)
    # keep tokens 2 and 4, whatever the scores
    monkeypatch.setattr(routing, "select_active",
                        lambda scores, beta: (None, np.array([[1, 3]])))
    hidden, (trace,) = run_recursion(z0, params.blocks, params.router, cfg)
    assert trace.step_selected == [2] and trace.step_attended == [3]
    assert hidden.data[[1, 3]].tobytes() == z0.data[[1, 3]].tobytes()
    assert np.abs(hidden.data[[0, 2, 4]] - z0.data[[0, 2, 4]]).max(axis=1).min() > 0.0


def test_gradient_reaches_step_routers():
    # Task gradient reaches theta_r whenever a step-r survivor is read again
    # later (so every r < R). A final-step gate only scales its own token's
    # unread output row, so theta_R needs the routing loss to learn.
    cfg = tiny_cfg(max_recursion=3, routing_lambda=0.0)
    params = init_params(cfg)
    img = gen(61).random((cfg.image_h, cfg.image_w, cfg.channels))
    with Tape():
        (logits,), (trace,) = forward([img], params, cfg)
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
        (logits,), (trace,) = forward([img], params2, cfg2)
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

    def counted(x, blk, runs=None, keep=False):
        calls.append((x.shape[0], runs))
        return block(x, blk, runs, keep)

    monkeypatch.setattr(routing, "encoder_block", counted)
    hidden, traces = run_recursion(Tensor(np.concatenate(z0s)), params.blocks, params.router, cfg)
    # one block call per step, with one run per image grouped by its count:
    # step 1: all three images; step 2: 3 rows of image 2, then 5 of image 0
    # (shorter runs first); step 3: 2 rows of image 2, then 5 of image 0;
    # image 1 stopped after step 1
    assert calls == [(15, [5, 5, 5]), (8, [3, 5]), (7, [2, 5])]
    assert [t.step_attended for t in traces] == [[5, 5, 5], [5], [5, 3, 2]]
    assert [t.exit_depth.tolist() for t in traces] == \
        [[3, 3, 3, 3, 3], [3, 1, 1, 1, 1], [3, 3, 1, 2, 1]]

    monkeypatch.setattr(routing, "encoder_block", block)
    for b, (z, trace) in enumerate(zip(z0s, traces)):
        alone, (solo,) = run_recursion(Tensor(z), params.blocks, params.router, cfg)
        assert np.abs(hidden.data[5 * b : 5 * (b + 1)] - alone.data).max() < 1e-12
        assert solo.step_attended == trace.step_attended
        assert solo.exit_depth.tolist() == trace.exit_depth.tolist()
