from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morvit.backbone import (
    BlockParams,
    EmbedParams,
    attention_sublayer,
    block_param_count,
    classify,
    embed,
    encoder_block,
    init_block_params,
    init_embed_params,
    init_head_params,
    mlp_sublayer,
    patchify,
)
from morvit.config import PRESETS
from morvit.errors import ShapeError
from morvit.model import forward, init_params
from morvit.tensor import Tape, Tensor, backward, gather_rows, mul, tsum
from oracles import (
    attention_block_reference,
    composed_embed,
    composed_encoder_block,
    grad_check,
    patchify_reference,
)


def gen(seed=0):
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------- patchify

def test_patchify_vit_geometry():
    img = np.zeros((224, 224, 3))
    out = patchify(img, 16)
    assert out.shape == (196, 768)


def test_patchify_cifar_geometry():
    out = patchify(np.zeros((32, 32, 3)), 16)
    assert out.shape == (4, 768)


def test_patchify_matches_hand_enumeration():
    img = np.arange(16, dtype=np.float64).reshape(4, 4, 1)
    out = patchify(img, 2)
    assert np.array_equal(out.data, patchify_reference(img, 2))
    # explicit: patch (0,0) holds pixels (0,0) (0,1) (1,0) (1,1)
    assert np.array_equal(out.data[0], [0.0, 1.0, 4.0, 5.0])
    assert np.array_equal(out.data[1], [2.0, 3.0, 6.0, 7.0])


def test_patchify_indivisible():
    with pytest.raises(ShapeError):
        patchify(np.zeros((10, 10, 3)), 4)


# ---------------------------------------------------------------- embed

def tiny_cfg():
    return PRESETS["tiny-desk"].validate()


def test_embed_zero_image_gives_positional_table():
    cfg = tiny_cfg()
    ep = init_embed_params(cfg, gen(1))
    ep.b_e.data[:] = 0.0
    ep.x_cls.data[:] = 0.0
    patches = patchify(np.zeros((cfg.image_h, cfg.image_w, cfg.channels)), cfg.patch_size)
    out = embed(patches, ep)
    assert np.array_equal(out.data, ep.e_pos.data)


def test_embed_identity_projection_single_patch():
    cfg = PRESETS["tiny-desk"].replace(
        image_h=2, image_w=2, patch_size=2, channels=1, hidden=4, mlp_size=8,
        heads=2,
    ).validate()
    ep = init_embed_params(cfg, gen(2))
    ep.w_e.data = np.eye(4)
    ep.b_e.data[:] = 0.0
    ep.e_pos.data[:] = 0.0
    img = np.array([[[0.1], [0.2]], [[0.3], [0.4]]])
    out = embed(patchify(img, 2), ep)
    assert np.allclose(out.data[1], [0.1, 0.2, 0.3, 0.4], atol=1e-15)


def test_embed_matches_independent_matrix_product():
    cfg = tiny_cfg()
    ep = init_embed_params(cfg, gen(3))
    g = gen(4)
    img = g.random((cfg.image_h, cfg.image_w, cfg.channels))
    patches = patchify(img, cfg.patch_size)
    out = embed(patches, ep)
    expected = np.vstack([ep.x_cls.data, patches.data @ ep.w_e.data + ep.b_e.data])
    expected += ep.e_pos.data
    assert np.abs(out.data - expected).max() < 1e-12


def test_embed_shape_errors():
    cfg = tiny_cfg()
    ep = init_embed_params(cfg, gen(5))
    with pytest.raises(ShapeError):
        embed(Tensor(np.zeros((4, 7))), ep)
    with pytest.raises(ShapeError):
        embed(Tensor(np.zeros((9, cfg.patch_dim))), ep)


EMBED_TENSORS = [f.name for f in fields(EmbedParams)]


def embed_grads(embed_fn, patches, ep, weights):
    """Output and the gradients of sum(weights * embed(patches)) w.r.t. ep."""
    tensors = [getattr(ep, name) for name in EMBED_TENSORS]
    for t in tensors:
        t.grad = None
    with Tape():
        out = embed_fn(patches, ep)
        loss = tsum(mul(out, Tensor(weights)))
    backward(loss)
    return out.data, [t.grad for t in tensors]


@given(images=st.integers(1, 4), grid=st.integers(1, 3), width=st.sampled_from([1, 3, 8]),
       seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_fused_embed_matches_composed_oracle(images, grid, width, seed):
    cfg = PRESETS["tiny-desk"].replace(
        image_h=2 * grid, image_w=2 * grid, patch_size=2, hidden=width, heads=1).validate()
    g = gen(seed)
    ep = init_embed_params(cfg, g)
    for name in EMBED_TENSORS:
        getattr(ep, name).data += g.normal(0.0, 0.3, size=getattr(ep, name).shape)
    patches = Tensor(g.normal(size=(images * cfg.num_patches, cfg.patch_dim)))
    weights = g.normal(size=(images * cfg.tokens, width))
    out, grads = embed_grads(embed, patches, ep, weights)
    ref_out, ref_grads = embed_grads(composed_embed, patches, ep, weights)
    assert out.tobytes() == ref_out.tobytes()
    for name, ours, ref in zip(EMBED_TENSORS, grads, ref_grads):
        assert ours.shape == ref.shape, name
        assert np.abs(ours - ref).max() <= 1e-13 * np.abs(ref).max(), name


def test_embed_gradcheck_every_input():
    cfg = tiny_cfg()
    g = gen(6)
    ep = init_embed_params(cfg, g)
    patches = Tensor(g.normal(size=(2 * cfg.num_patches, cfg.patch_dim)))
    weights = Tensor(g.normal(size=(2 * cfg.tokens, cfg.hidden)))
    inputs = [getattr(ep, name) for name in EMBED_TENSORS]
    assert grad_check(lambda: tsum(mul(embed(patches, ep), weights)), inputs) < 1e-6


@pytest.mark.parametrize("images", [1, 3])
def test_embed_records_one_tape_node(images):
    cfg = tiny_cfg()
    ep = init_embed_params(cfg, gen(7))
    with Tape() as tape:
        embed(Tensor(np.zeros((images * cfg.num_patches, cfg.patch_dim))), ep)
    assert len(tape.nodes) == 1


# ---------------------------------------------------------------- encoder block

def test_block_single_token_attention():
    cfg = tiny_cfg()
    blk = init_block_params(cfg, gen(6))
    h = Tensor(gen(7).normal(size=(1, cfg.hidden)))
    out = encoder_block(h, blk)
    ref = attention_block_reference(h.data, blk)
    assert np.abs(out.data - ref).max() < 1e-12


def test_block_zero_weights_is_identity():
    cfg = tiny_cfg()
    blk = init_block_params(cfg, gen(8))
    for name in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
                 "w1", "b1", "w2", "b2", "ln1_g", "ln1_b", "ln2_g", "ln2_b"):
        getattr(blk, name).data[:] = 0.0
    h = Tensor(gen(9).normal(size=(4, cfg.hidden)))
    out = encoder_block(h, blk)
    assert np.array_equal(out.data, h.data)


def test_block_matches_brute_force_attention():
    cfg = PRESETS["tiny-desk"].replace(hidden=4, mlp_size=8, heads=2).validate()
    blk = init_block_params(cfg, gen(10))
    h = Tensor(gen(11).normal(size=(3, 4)))
    out = encoder_block(h, blk)
    ref = attention_block_reference(h.data, blk)
    assert np.abs(out.data - ref).max() < 1e-12


def test_block_param_count_closed_form():
    for name in ("tiny-desk", "desk-synth", "vit-b16"):
        cfg = PRESETS[name]
        blk = init_block_params(cfg, gen(12))
        walked = sum(
            getattr(blk, f).size
            for f in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
                      "w1", "b1", "w2", "b2", "ln1_g", "ln1_b", "ln2_g", "ln2_b")
        )
        assert walked == block_param_count(cfg.hidden, cfg.mlp_size)


BLOCK_TENSORS = [f.name for f in fields(BlockParams) if f.name != "heads"]


def perturbed_block(cfg, seed):
    """Block params with every tensor, biases and norms too, moved off init."""
    blk = init_block_params(cfg, gen(seed))
    g = gen(seed + 1)
    for name in BLOCK_TENSORS:
        t = getattr(blk, name)
        t.data += g.normal(0.0, 0.3, size=t.shape)
    return blk


def block_grads(block_fn, h, blk, weights, runs):
    """Output and the gradients of sum(weights * block(h)) w.r.t. h and blk."""
    tensors = [h] + [getattr(blk, name) for name in BLOCK_TENSORS]
    for t in tensors:
        t.grad = None
    with Tape():
        out = block_fn(h, blk, runs)
        loss = tsum(mul(out, Tensor(weights)))
    backward(loss)
    return out.data, [t.grad for t in tensors]


@given(segments=st.integers(1, 3), rows=st.integers(1, 6), heads=st.sampled_from([1, 2, 4]),
       seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_fused_block_matches_composed_oracle(segments, rows, heads, seed):
    cfg = PRESETS["tiny-desk"].replace(heads=heads).validate()
    blk = perturbed_block(cfg, seed)
    g = gen(seed + 2)
    h = Tensor(g.normal(size=(segments * rows, cfg.hidden)), requires_grad=True)
    weights = g.normal(size=h.shape)
    out, grads = block_grads(encoder_block, h, blk, weights, [rows] * segments)
    ref_out, ref_grads = block_grads(composed_encoder_block, h, blk, weights, [rows] * segments)
    assert np.abs(out - ref_out).max() < 1e-13
    for name, ours, ref in zip(["h"] + BLOCK_TENSORS, grads, ref_grads):
        assert ours.shape == ref.shape, name
        # relative to the tensor's largest gradient; bk's true gradient is 0
        # (softmax ignores a shift shared by a row), so both sides are noise
        # and the floor of 1 makes its bound absolute
        bound = 1e-12 * max(1.0, np.abs(ref).max())
        assert np.abs(ours - ref).max() < bound, name


@given(runs=st.lists(st.integers(1, 5), min_size=1, max_size=5),
       heads=st.sampled_from([1, 2, 4]), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_fused_block_ragged_runs_match_composed_oracle(runs, heads, seed):
    # runs of any lengths in any order: equal runs that are not next to each
    # other fall in different stretches
    cfg = PRESETS["tiny-desk"].replace(heads=heads).validate()
    blk = perturbed_block(cfg, seed)
    g = gen(seed + 3)
    h = Tensor(g.normal(size=(sum(runs), cfg.hidden)), requires_grad=True)
    weights = g.normal(size=h.shape)
    out, grads = block_grads(encoder_block, h, blk, weights, runs)
    ref_out, ref_grads = block_grads(composed_encoder_block, h, blk, weights, runs)
    assert np.abs(out - ref_out).max() < 1e-12 * max(1.0, np.abs(ref_out).max())
    assert len(grads) == 17
    for name, ours, ref in zip(["h"] + BLOCK_TENSORS, grads, ref_grads):
        assert ours.shape == ref.shape, name
        assert np.abs(ours - ref).max() < 1e-12 * max(1.0, np.abs(ref).max()), name


def test_fused_block_gradcheck_every_input():
    cfg = tiny_cfg()
    blk = perturbed_block(cfg, 21)
    g = gen(23)
    h = Tensor(g.normal(size=(6, cfg.hidden)), requires_grad=True)
    weights = Tensor(g.normal(size=h.shape))
    inputs = [h] + [getattr(blk, name) for name in BLOCK_TENSORS if name != "bk"]
    for runs in ([3, 3], [2, 1, 3]):
        assert grad_check(lambda: tsum(mul(encoder_block(h, blk, runs), weights)), inputs) < 1e-6
        # bk's gradient is exactly 0 in exact arithmetic: compare absolutely
        assert grad_check(lambda: tsum(mul(encoder_block(h, blk, runs), weights)), [blk.bk],
                          floor=np.inf) < 1e-8


def test_encoder_block_records_two_tape_nodes():
    cfg = tiny_cfg()
    blk = init_block_params(cfg, gen(24))
    h = Tensor(gen(25).normal(size=(6, cfg.hidden)), requires_grad=True)
    with Tape() as tape:
        encoder_block(h, blk, [1, 2, 2, 1])
    assert len(tape.nodes) == 2


def test_sublayers_reject_bad_shapes():
    cfg = tiny_cfg()
    blk = init_block_params(cfg, gen(26))
    with pytest.raises(ShapeError):
        attention_sublayer(Tensor(np.zeros((4, cfg.hidden + 1))), blk)
    with pytest.raises(ShapeError):
        attention_sublayer(Tensor(np.zeros((5, cfg.hidden))), blk, [2, 2])
    with pytest.raises(ShapeError):
        attention_sublayer(Tensor(np.zeros((5, cfg.hidden))), blk, [5, 0])
    with pytest.raises(ShapeError):
        mlp_sublayer(Tensor(np.zeros(cfg.hidden)), blk)


# ---------------------------------------------------------------- classify

def test_classify_zero_weights_gives_bias():
    cfg = tiny_cfg()
    head = init_head_params(cfg, gen(13))
    head.w.data[:] = 0.0
    head.b.data[:] = [1.0, 2.0, 3.0]
    out = classify(Tensor(gen(14).normal(size=(1, cfg.hidden))), head)
    assert np.array_equal(out.data, [[1.0, 2.0, 3.0]])


def test_classify_one_hot_rows_copy_coordinates():
    cfg = tiny_cfg()
    head = init_head_params(cfg, gen(15))
    head.w.data[:] = 0.0
    head.b.data[:] = 0.0
    head.w.data[2, 0] = 1.0
    head.w.data[5, 1] = 1.0
    h = Tensor(gen(16).normal(size=(1, cfg.hidden)))
    out = classify(h, head)
    assert out.data[0, 0] == h.data[0, 2]
    assert out.data[0, 1] == h.data[0, 5]


def test_gradcheck_through_classify_and_block():
    cfg = tiny_cfg()
    blk = init_block_params(cfg, gen(17))
    head = init_head_params(cfg, gen(18))
    h = Tensor(gen(19).normal(size=(3, cfg.hidden)), requires_grad=True)
    params = [h, blk.wq, blk.w1, blk.ln1_g, head.w, head.b]

    def loss():
        out = encoder_block(h, blk)
        return tsum(classify(gather_rows(out, [0]), head))

    # composition-level tolerance (single-op checks hold the tighter 1e-6)
    assert grad_check(loss, params) < 1e-4


# ---------------------------------------------------------------- invariants

def test_permutation_equivariance_of_logits():
    cfg = tiny_cfg()
    params = init_params(cfg)
    g = gen(20)
    img = g.random((cfg.image_h, cfg.image_w, cfg.channels))
    (logits,), _ = forward([img], params, cfg)

    perm = g.permutation(cfg.num_patches)
    patches = patchify(img, cfg.patch_size)
    permuted_patches = Tensor(patches.data[perm])
    params.embed.e_pos.data[1:] = params.embed.e_pos.data[1:][perm]
    z0 = embed(permuted_patches, params.embed)
    from morvit.routing import run_recursion

    hidden, _ = run_recursion(z0, params.blocks, params.router, cfg)
    permuted_logits = classify(gather_rows(hidden, [0]), params.head)
    assert np.abs(logits.data - permuted_logits.data).max() < 1e-10
