import gc
import sys

import numpy as np
import pytest

from morvit.backbone import block_param_count, classify, encoder_block, embed, patchify
from morvit.config import PRESETS
from morvit.data import synth_mixed_difficulty
from morvit.model import (
    forward,
    forward_sample,
    init_params,
    param_count,
    routing_loss,
    task_loss,
    total_loss,
)
from morvit.profiler import count_flops
from morvit.tensor import Tape, Tensor, add, backward, count_macs, gather_rows
from oracles import grad_check, reference_backward


def gen(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def tiny_cfg(**kw):
    return PRESETS["tiny-desk"].replace(**kw).validate()


# ---------------------------------------------------------------- forward

def test_forward_finite_and_counts():
    cfg = tiny_cfg()
    params = init_params(cfg)
    recs, _ = synth_mixed_difficulty(2, 3, cfg)
    logits_list, traces = forward([r.image for r in recs], params, cfg)
    for logits, trace in zip(logits_list, traces):
        assert np.isfinite(logits.data).all()
        assert sum(trace.depth_histogram().values()) == cfg.num_patches


def test_forward_static_matches_weight_tied_oracle():
    cfg = tiny_cfg(routing_mode="static", max_recursion=3)
    params = init_params(cfg)
    img = gen(4).random((cfg.image_h, cfg.image_w, cfg.channels))
    logits, _ = forward_sample(img, params, cfg)

    h = embed(patchify(img, cfg.patch_size), params.embed)
    for _ in range(3):
        h = add(h, encoder_block(h, params.blocks[0]))
    oracle = classify(gather_rows(h, [0]), params.head)
    assert np.abs(logits.data - oracle.data).max() < 1e-10


def test_forward_identical_images_identical_outputs():
    cfg = tiny_cfg()
    params = init_params(cfg)
    img = gen(5).random((cfg.image_h, cfg.image_w, cfg.channels))
    logits_list, traces = forward([img, img.copy()], params, cfg)
    assert logits_list[0].data.tobytes() == logits_list[1].data.tobytes()
    assert np.array_equal(traces[0].exit_depth, traces[1].exit_depth)


def test_forward_deterministic_across_runs():
    cfg = tiny_cfg()
    params = init_params(cfg)
    img = gen(6).random((cfg.image_h, cfg.image_w, cfg.channels))
    a, _ = forward_sample(img, params, cfg)
    b, _ = forward_sample(img, params, cfg)
    assert a.data.tobytes() == b.data.tobytes()


# ---------------------------------------------------------------- batch

MODES = ("expert_choice", "token_choice", "static")


def mixed_batch(cfg, seed):
    recs, _ = synth_mixed_difficulty(3, seed, cfg)
    return [r.image for r in recs], [r.label for r in recs]


@pytest.mark.parametrize("mode", MODES)
def test_forward_batch_matches_each_image_alone(mode):
    cfg = PRESETS["desk-synth"].replace(routing_mode=mode).validate()
    params = init_params(cfg)
    images, _ = mixed_batch(cfg, 14)
    logits_list, traces = forward(images, params, cfg)
    for img, logits, trace in zip(images, logits_list, traces):
        alone, solo = forward_sample(img, params, cfg)
        assert np.abs(logits.data - alone.data).max() < 1e-12
        assert np.array_equal(trace.exit_depth, solo.exit_depth)
        assert trace.step_scored == solo.step_scored
        assert trace.step_selected == solo.step_selected
        assert trace.step_attended == solo.step_attended


@pytest.mark.parametrize("mode", MODES)
def test_forward_batch_macs_match_counted_flops(mode):
    cfg = PRESETS["desk-synth"].replace(routing_mode=mode).validate()
    params = init_params(cfg)
    images, _ = mixed_batch(cfg, 15)
    with count_macs() as counter:
        _, traces = forward(images, params, cfg)
    assert 2 * counter.macs == sum(count_flops(cfg, t).total_flops for t in traces)


@pytest.mark.parametrize("mode", ("expert_choice", "token_choice"))
def test_batch_total_loss_gradcheck(mode):
    cfg = tiny_cfg(routing_mode=mode, routing_lambda=0.5)
    params = init_params(cfg)
    images, labels = mixed_batch(cfg, 16)

    def loss():
        logits_list, traces = forward(images, params, cfg)
        return total_loss(logits_list, labels, traces, cfg)

    router = ([params.router.steps[0].w, params.router.steps[1].b] if mode == "expert_choice"
              else [params.router.choice_w, params.router.choice_b])
    probes = [params.embed.e_pos, params.blocks[0].wq, params.head.w] + router
    assert grad_check(loss, probes) < 1e-4


# ---------------------------------------------------------------- losses

def test_task_loss_uniform_logits():
    out = task_loss([Tensor(np.zeros((1, 7)))], [2])
    assert abs(float(out.data) - np.log(7)) < 1e-12


def test_task_loss_sharp_logits_vanish():
    hot = np.zeros((1, 10))
    hot[0, 3] = 50.0
    assert float(task_loss([Tensor(hot)], [3]).data) < 1e-20


def test_task_loss_gradcheck():
    x = Tensor(gen(7).normal(size=(1, 5)), requires_grad=True)
    y = Tensor(gen(8).normal(size=(1, 5)), requires_grad=True)
    err = grad_check(lambda: task_loss([x, y], [1, 3]), [x, y])
    assert err < 1e-6


def constant_gate_traces(cfg, gate_logit):
    """Run the tiny model with router weights pinned so every gate is fixed."""
    params = init_params(cfg)
    for step in params.router.steps:
        step.w.data[:] = 0.0
        step.b.data[:] = gate_logit
    recs, _ = synth_mixed_difficulty(1, 9, cfg)
    _, traces = forward([recs[0].image], params, cfg)
    return params, traces


def test_routing_loss_zero_when_gates_hit_target():
    cfg = tiny_cfg()
    _, traces = constant_gate_traces(cfg, 0.0)  # sigmoid(0) = 0.5 everywhere
    assert float(routing_loss(traces, 0.5).data) == 0.0


def test_routing_loss_quarter_when_gates_saturate():
    for r in (1, 2, 3):
        cfg = tiny_cfg(max_recursion=r)
        _, traces = constant_gate_traces(cfg, 1000.0)  # gates exactly 1.0
        assert abs(float(routing_loss(traces, 0.5).data) - 0.25) < 1e-15


def test_routing_loss_gradcheck_through_router():
    cfg = tiny_cfg()
    params = init_params(cfg)
    recs, _ = synth_mixed_difficulty(1, 10, cfg)

    def loss():
        _, traces = forward([recs[0].image], params, cfg)
        return routing_loss(traces, 0.5)

    router_tensors = [params.router.steps[0].w, params.router.steps[0].b,
                      params.router.steps[1].w, params.router.steps[1].b]
    assert grad_check(loss, router_tensors) < 1e-4


def test_routing_loss_rejects_bad_kappa():
    with pytest.raises(ValueError):
        routing_loss([], 0.0)


def test_total_loss_lambda_zero_equals_task():
    cfg = tiny_cfg(routing_lambda=0.0)
    params = init_params(cfg)
    recs, _ = synth_mixed_difficulty(2, 11, cfg)
    logits_list, traces = forward([r.image for r in recs], params, cfg)
    labels = [r.label for r in recs]
    lt = task_loss(logits_list, labels)
    tot = total_loss(logits_list, labels, traces, cfg)
    assert float(tot.data) == float(lt.data)


def test_total_loss_additivity():
    cfg = tiny_cfg(routing_lambda=1.0)
    params = init_params(cfg)
    recs, _ = synth_mixed_difficulty(2, 12, cfg)
    logits_list, traces = forward([r.image for r in recs], params, cfg)
    labels = [r.label for r in recs]
    lt = float(task_loss(logits_list, labels).data)
    lr = float(routing_loss(traces, 1.0 - cfg.beta).data)
    tot = float(total_loss(logits_list, labels, traces, cfg).data)
    assert abs(tot - (lt + lr)) < 1e-12


def test_total_loss_gradient_is_sum_of_parts():
    cfg = tiny_cfg(routing_lambda=0.7)
    params = init_params(cfg)
    recs, _ = synth_mixed_difficulty(1, 13, cfg)
    img, label = recs[0].image, recs[0].label
    probes = [params.router.steps[0].w, params.blocks[0].wq, params.embed.w_e]

    def run(loss_kind):
        params.zero_grads()
        with Tape():
            logits, trace = forward_sample(img, params, cfg)
            if loss_kind == "task":
                loss = task_loss([logits], [label])
            elif loss_kind == "routing":
                loss = Tensor(np.asarray(0.0))
                loss = add(loss, routing_loss([trace], 1.0 - cfg.beta) * cfg.routing_lambda)
            else:
                loss = total_loss([logits], [label], [trace], cfg)
        backward(loss)
        return [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in probes]

    g_task = run("task")
    g_rout = run("routing")
    g_tot = run("total")
    for gt, gr, go in zip(g_task, g_rout, g_tot):
        assert np.abs(go - (gt + gr)).max() < 1e-12


@pytest.mark.parametrize("preset,over", [
    ("desk-synth", {"routing_mode": "expert_choice"}),
    ("desk-synth", {"routing_mode": "token_choice"}),
    ("desk-synth", {"routing_mode": "static", "share_params": False}),
    ("tiny-desk", {}),
])
def test_total_loss_gradients_match_reference_replay_bytewise(preset, over):
    cfg = PRESETS[preset].replace(routing_lambda=0.5, **over).validate()
    params = init_params(cfg)
    images, labels = mixed_batch(cfg, 17)
    named = params.named()

    def grads(replay):
        params.zero_grads()
        with Tape() as tape:
            logits_list, traces = forward(images, params, cfg)
            loss = total_loss(logits_list, labels, traces, cfg)
        replay(tape, loss)
        return {n: t.grad for n, t in named.items()}

    ours = grads(Tape.backward)
    ref = grads(reference_backward)
    assert ours.keys() == ref.keys()
    for name in named:
        assert (ours[name] is None) == (ref[name] is None), name
        if ref[name] is not None:
            assert ours[name].shape == ref[name].shape, name
            assert ours[name].tobytes() == ref[name].tobytes(), name


def test_backward_leaves_no_reference_cycles():
    cfg = tiny_cfg()
    recs, _ = synth_mixed_difficulty(2, 8, cfg)
    gc.collect()
    gc.disable()
    try:
        params = init_params(cfg)
        with Tape():
            logits_list, traces = forward([r.image for r in recs], params, cfg)
            loss = total_loss(logits_list, [r.label for r in recs], traces, cfg)
        backward(loss)
        del params, logits_list, traces, loss
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc thresholds")
def test_batch_forward_reuses_heap_blocks():
    # a desk-bench batch of 8 allocates 0.5-2 MB arrays every step; with
    # glibc's dynamic mmap threshold each forward page-faulted ~1,000 times
    resource = pytest.importorskip("resource")
    cfg = PRESETS["desk-bench"]
    recs, _ = synth_mixed_difficulty(8, 3, cfg)
    images = [r.image for r in recs]
    params = init_params(cfg)
    for _ in range(2):
        forward(images, params, cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        forward(images, params, cfg)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


# ---------------------------------------------------------------- param_count

def test_param_count_vit_b16_near_86m():
    count = param_count(PRESETS["vit-b16"])
    assert abs(count - 86_000_000) / 86_000_000 < 0.02


def test_param_count_tiny_hand_enumeration():
    cfg = tiny_cfg()
    # patch projection 48*8 + 8, class token 8, positions 5*8,
    # one shared block 600 (4*64+32 attention, 2*8*16+8+16 mlp, 4*8 norms),
    # two step routers (8+1 each), head 8*3+3
    assert param_count(cfg) == 384 + 8 + 8 + 40 + 600 + 18 + 27 == 1085


def test_param_count_matches_walked_tensors():
    for name in ("tiny-desk", "desk-synth", "mor-b16"):
        cfg = PRESETS[name].validate()
        params = init_params(cfg)
        assert params.total_params() == param_count(cfg)


def test_param_count_unshared_adds_blocks():
    cfg = tiny_cfg(max_recursion=4)
    shared = param_count(cfg)
    unshared = param_count(cfg.replace(share_params=False))
    assert unshared == shared + 3 * block_param_count(cfg.hidden, cfg.mlp_size)
    assert shared < unshared
