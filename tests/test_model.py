import gc
import sys
import tracemalloc

import numpy as np
import pytest

from morvit import model, routing
from morvit.backbone import block_param_count, classify, embed, patchify
from morvit.config import PRESETS
from morvit.data import synth_mixed_difficulty, synth_train_set
from morvit.errors import ShapeError
from morvit.model import (
    forward,
    init_params,
    param_count,
    routing_loss,
    total_loss,
)
from morvit.profiler import count_flops
from morvit.tensor import Tape, Tensor, add, backward, count_macs, cross_entropy, gather_rows, mul
from oracles import (
    block_op,
    composed_routing_loss,
    composed_score,
    composed_step,
    grad_check,
    reference_backward,
)


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
    (logits,), _ = forward([img], params, cfg)

    h = embed(patchify(img, cfg.patch_size), params.embed)
    for _ in range(3):
        h = add(h, block_op(h, params.blocks[0]))
    oracle = classify(gather_rows(h, [0]), params.head)
    assert np.abs(logits.data - oracle.data).max() < 1e-10


def test_forward_identical_images_identical_outputs():
    cfg = tiny_cfg()
    params = init_params(cfg)
    img = gen(5).random((cfg.image_h, cfg.image_w, cfg.channels))
    logits_list, traces = forward([img, img.copy()], params, cfg)
    assert logits_list[0].data.tobytes() == logits_list[1].data.tobytes()
    assert np.array_equal(traces[0].exit_depth, traces[1].exit_depth)


def test_forward_images_of_different_shapes_raise_shape_error():
    cfg = PRESETS["desk-synth"]
    params = init_params(cfg)
    with pytest.raises(ShapeError, match=r"\(8, 8, 3\), \(16, 16, 3\)"):
        forward([np.zeros((16, 16, 3)), np.zeros((8, 8, 3))], params, cfg)


def test_forward_deterministic_across_runs():
    cfg = tiny_cfg()
    params = init_params(cfg)
    img = gen(6).random((cfg.image_h, cfg.image_w, cfg.channels))
    (a,), _ = forward([img], params, cfg)
    (b,), _ = forward([img], params, cfg)
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
        (alone,), (solo,) = forward([img], params, cfg)
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


@pytest.mark.parametrize("mode", MODES)
def test_each_step_is_one_block_call(mode, monkeypatch):
    cfg = PRESETS["desk-synth"].replace(routing_mode=mode).validate()
    params = init_params(cfg)
    images, _ = mixed_batch(cfg, 14)
    calls = []
    block = routing.encoder_block

    def counted(x, blk, runs=None, keep=False):
        calls.append(runs)
        return block(x, blk, runs, keep)

    monkeypatch.setattr(routing, "encoder_block", counted)
    _, traces = forward(images, params, cfg)
    # one call per step, with one run per image still taking part, shortest first
    assert len(calls) == max(len(t.step_attended) for t in traces)
    for r, runs in enumerate(calls):
        assert runs == sorted(t.step_attended[r] for t in traces if r < len(t.step_attended))
    if mode == "token_choice":
        assert any(len(set(runs)) > 1 for runs in calls)  # the batch is mixed


def routed_batch(cfg, params, images, labels):
    """Logits, traces, MACs of the forward and every gradient of total_loss."""
    params.zero_grads()
    with Tape():
        with count_macs() as counter:
            logits_list, traces = forward(images, params, cfg)
        loss = total_loss(logits_list, labels, traces, cfg)
    backward(loss)
    grads = {n: t.grad for n, t in params.named().items()}
    return [l.data for l in logits_list], traces, counter.macs, grads


def assert_matches_oracle(ours, ref):
    (logits, traces, macs, grads), (ref_logits, ref_traces, ref_macs, ref_grads) = ours, ref
    for mine, theirs in zip(logits, ref_logits):
        assert np.abs(mine - theirs).max() < 1e-12
    for mine, theirs in zip(traces, ref_traces):
        assert np.array_equal(mine.exit_depth, theirs.exit_depth)
        assert mine.step_scored == theirs.step_scored
        assert mine.step_attended == theirs.step_attended
    assert macs == ref_macs
    assert grads.keys() == ref_grads.keys()
    for name, theirs in ref_grads.items():
        assert (grads[name] is None) == (theirs is None), name
        if theirs is not None:
            assert np.abs(grads[name] - theirs).max() < 1e-12, name


@pytest.mark.parametrize("mode", MODES)
def test_fused_block_in_the_model_matches_composed_oracle(mode, monkeypatch):
    # the fused step against gather, the composed block, gate mul, add, scatter
    cfg = PRESETS["desk-synth"].replace(routing_mode=mode, routing_lambda=0.5).validate()
    params = init_params(cfg)
    images, labels = mixed_batch(cfg, 18)
    ours = routed_batch(cfg, params, images, labels)
    monkeypatch.setattr(routing, "_apply_block", composed_step)
    assert_matches_oracle(ours, routed_batch(cfg, params, images, labels))


@pytest.mark.parametrize("mode", MODES)
def test_fused_routing_matches_composed_oracle(mode, monkeypatch):
    # the fused score, step and routing loss together against the composed
    # routing, over mixed batches of every depth mix
    cfg = PRESETS["desk-synth"].replace(routing_mode=mode, routing_lambda=0.5).validate()
    params = init_params(cfg)
    for seed in (30, 31):
        images, labels = mixed_batch(cfg, seed)
        ours = routed_batch(cfg, params, images, labels)
        with monkeypatch.context() as patched:
            patched.setattr(routing, "routing_score", composed_score)
            patched.setattr(routing, "_apply_block", composed_step)
            patched.setattr(model, "routing_loss", composed_routing_loss)
            ref = routed_batch(cfg, params, images, labels)
        assert_matches_oracle(ours, ref)


def test_inference_keeps_no_backward_state():
    # one no-tape desk-bench forward of 8 images, static routing with four
    # blocks; 6.92 MB before the step was one op, 11.0 MB when the block
    # kept its backward closures through a forward without a tape
    cfg = PRESETS["desk-bench"].replace(routing_mode="static", share_params=False).validate()
    recs, _ = synth_mixed_difficulty(8, 3, cfg)
    images = [r.image for r in recs]
    params = init_params(cfg)
    forward(images, params, cfg)
    tracemalloc.start()
    try:
        forward(images, params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 6.92 * 2**20


# ---------------------------------------------------------------- losses

def test_task_loss_uniform_logits():
    out = cross_entropy([Tensor(np.zeros((1, 7)))], [2])
    assert abs(float(out.data) - np.log(7)) < 1e-12


def test_task_loss_sharp_logits_vanish():
    hot = np.zeros((1, 10))
    hot[0, 3] = 50.0
    assert float(cross_entropy([Tensor(hot)], [3]).data) < 1e-20


def test_task_loss_gradcheck():
    x = Tensor(gen(7).normal(size=(1, 5)), requires_grad=True)
    y = Tensor(gen(8).normal(size=(1, 5)), requires_grad=True)
    err = grad_check(lambda: cross_entropy([x, y], [1, 3]), [x, y])
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


@pytest.mark.parametrize("mode", ("expert_choice", "token_choice"))
def test_routing_loss_rejects_traces_that_are_not_one_whole_batch(mode):
    cfg = tiny_cfg(routing_mode=mode)
    params = init_params(cfg)
    images, _ = mixed_batch(cfg, 17)
    _, traces = forward(images, params, cfg)
    _, other = forward(images, params, cfg)
    whole = float(routing_loss(traces, 0.5).data)
    assert float(routing_loss(traces[::-1], 0.5).data) == whole
    # a part, a mix of two batches, a repeat, and every trace plus a repeat
    for bad in (traces[:2], traces[:2] + other[2:], traces[:2] + traces[:1],
                traces + traces[:1]):
        with pytest.raises(ValueError, match="one whole batch"):
            routing_loss(bad, 0.5)


def test_total_loss_lambda_zero_equals_task():
    cfg = tiny_cfg(routing_lambda=0.0)
    params = init_params(cfg)
    recs, _ = synth_mixed_difficulty(2, 11, cfg)
    logits_list, traces = forward([r.image for r in recs], params, cfg)
    labels = [r.label for r in recs]
    lt = cross_entropy(logits_list, labels)
    tot = total_loss(logits_list, labels, traces, cfg)
    assert float(tot.data) == float(lt.data)


def test_total_loss_additivity():
    cfg = tiny_cfg(routing_lambda=1.0)
    params = init_params(cfg)
    recs, _ = synth_mixed_difficulty(2, 12, cfg)
    logits_list, traces = forward([r.image for r in recs], params, cfg)
    labels = [r.label for r in recs]
    lt = float(cross_entropy(logits_list, labels).data)
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
            (logits,), (trace,) = forward([img], params, cfg)
            if loss_kind == "task":
                loss = cross_entropy([logits], [label])
            elif loss_kind == "routing":
                loss = Tensor(np.asarray(0.0))
                loss = add(loss, mul(routing_loss([trace], 1.0 - cfg.beta), cfg.routing_lambda))
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


@pytest.mark.parametrize("mode,share,nodes", [
    ("expert_choice", True, {8: 24, 1: 17}),
    ("token_choice", True, {8: 23, 1: 16}),
    ("static", False, {8: 17, 1: 10}),
], ids=["expert_choice", "token_choice", "static_unshared"])
def test_training_step_tape_nodes_are_pinned(mode, share, nodes):
    # embed, each router score, each recursion step, the batch's
    # cross-entropy and its routing loss are one node each; a change to
    # these counts is a change to the graph's design
    cfg = PRESETS["desk-synth"].replace(routing_mode=mode, share_params=share).validate()
    params = init_params(cfg)
    recs = synth_train_set(cfg)[0][:8]
    for batch, expected in nodes.items():
        with Tape() as tape:
            logits_list, traces = forward([r.image for r in recs[:batch]], params, cfg)
            total_loss(logits_list, [r.label for r in recs[:batch]], traces, cfg)
            assert len(tape.nodes) == expected, batch


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
        assert sum(t.size for t in params.named().values()) == param_count(cfg)


def test_param_count_unshared_adds_blocks():
    cfg = tiny_cfg(max_recursion=4)
    shared = param_count(cfg)
    unshared = param_count(cfg.replace(share_params=False))
    assert unshared == shared + 3 * block_param_count(cfg.hidden, cfg.mlp_size)
    assert shared < unshared
