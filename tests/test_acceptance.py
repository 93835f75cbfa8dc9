"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The desk training run
(criterion A6) is shared by A6/A7 through a session fixture; everything is
seeded, so every number here reproduces bit-for-bit.
"""

import json
import os
import time

import numpy as np
import pytest

from morvit.backbone import classify, embed, patchify
from morvit.checkpoint import load_checkpoint, params_from_checkpoint, save_checkpoint
from morvit.config import PRESETS
from morvit.data import load_cifar10_binary, synth_holdout_set, synth_mixed_difficulty
from morvit.model import (
    forward,
    init_params,
    param_count,
    total_loss,
)
from morvit.optim import init_optimizer
from morvit.profiler import (
    bench_throughput,
    count_flops,
    detect_degenerate,
    export_depth_map,
)
from morvit.routing import run_recursion, select_active
from morvit.tensor import Tape, add, backward, count_macs, gather_rows
from morvit.train import evaluate, run_ablation, train
from oracles import block_op
from test_routing import record_steps, unit_gates

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
BETAS = (0.0, 0.25, 0.5, 0.75, 0.9)


def report(criterion, ok, detail):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------- A1

def test_a1_gradient_fidelity():
    cfg = PRESETS["tiny-desk"].validate()
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        params = init_params(cfg.replace(seed=seed))
        rec = synth_mixed_difficulty(1, 1000 + seed, cfg)[0][0]

        def loss_value():
            (logits,), (trace,) = forward([rec.image], params, cfg)
            return float(total_loss([logits], [rec.label], [trace], cfg).data)

        params.zero_grads()
        with Tape():
            (logits,), (trace,) = forward([rec.image], params, cfg)
            loss = total_loss([logits], [rec.label], [trace], cfg)
        backward(loss)

        h = 1e-5
        for name, t in params.named().items():
            analytic = np.zeros_like(t.data) if t.grad is None else t.grad
            flat = t.data.reshape(-1)
            aflat = analytic.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp = loss_value()
                flat[i] = orig - h
                lm = loss_value()
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                denom = max(abs(aflat[i]), abs(fd))
                err = abs(aflat[i] - fd) / denom if denom > 1e-6 else abs(aflat[i] - fd)
                worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    report("A1", worst < 1e-4 and elapsed < 60.0,
           f"max rel err {worst:.3e} over 20 seeds, {elapsed:.1f}s")


# ---------------------------------------------------------------- A2

def test_a2_weight_tied_equivalence(monkeypatch):
    cfg = PRESETS["tiny-desk"].replace(max_recursion=3, beta=0.0).validate()
    assert cfg.share_params
    params = init_params(cfg)
    rec = synth_mixed_difficulty(1, 7, cfg)[0][0]
    unit_gates(monkeypatch)  # with beta = 0 every token takes every step as h + block(h)
    (logits,), _ = forward([rec.image], params, cfg)

    h = embed(patchify(rec.image, cfg.patch_size), params.embed)
    for _ in range(3):
        h = add(h, block_op(h, params.blocks[0]))
    oracle = classify(gather_rows(h, [0]), params.head)
    diff = float(np.abs(logits.data - oracle.data).max())
    report("A2", diff < 1e-10, f"max |logit diff| {diff:.3e} vs backbone-only stack")


# ---------------------------------------------------------------- A3

def test_a3_routing_cardinality():
    checked = 0
    for beta in BETAS:
        for a in range(1, 257):
            expected = max(1, round((1.0 - beta) * a))
            gen = np.random.Generator(np.random.Philox(a * 7 + int(beta * 100)))
            for scores in (gen.random(a), np.full(a, 0.5)):
                _, kept = select_active(scores, beta)
                assert kept.size == expected, (a, beta, kept.size, expected)
                checked += 1
    report("A3", True, f"exact K = max(1, round((1-beta)*A)) on {checked} cases incl. ties")


# ---------------------------------------------------------------- A4

def test_a4_frozen_exits(monkeypatch):
    cfg = PRESETS["tiny-desk"].replace(max_recursion=3).validate()
    after_step = record_steps(monkeypatch)
    frozen_ok = monotone_ok = hist_ok = True
    for seed in range(50):
        params = init_params(cfg.replace(seed=seed))
        rec = synth_mixed_difficulty(1, 2000 + seed, cfg)[0][0]
        z0 = embed(patchify(rec.image, cfg.patch_size), params.embed)
        after_step.clear()
        hidden, (trace,) = run_recursion(z0, params.blocks, params.router, cfg)
        frozen_ok &= len(after_step) == cfg.max_recursion
        for tok, depth in enumerate(trace.exit_depth):
            frozen_ok &= hidden.data[tok].tobytes() == after_step[depth - 1][tok].tobytes()
        scored = trace.step_scored
        monotone_ok &= all(scored[i + 1] <= scored[i] for i in range(len(scored) - 1))
        hist_ok &= sum(trace.depth_histogram().values()) == cfg.num_patches
    report("A4", frozen_ok and monotone_ok and hist_ok,
           "50 forwards: every row bit-identical to its row after its exit step, "
           "actives non-increasing, histograms sum to N")


# ---------------------------------------------------------------- A5

def test_a5_flops_accounting():
    static_cfg = PRESETS["tiny-desk"].replace(routing_mode="static").validate()
    params = init_params(static_cfg)
    rec = synth_mixed_difficulty(1, 11, static_cfg)[0][0]
    with count_macs() as counter:
        _, (trace,) = forward([rec.image], params, static_cfg)
    formula = count_flops(static_cfg, trace).total_flops
    instrumented = 2 * counter.macs
    exact = instrumented == formula

    cfg0 = PRESETS["desk-synth"].validate()
    rec2 = synth_mixed_difficulty(1, 12, cfg0)[0][0]
    totals = []
    for beta in BETAS:
        cfg = cfg0.replace(beta=beta)
        bparams = init_params(cfg)
        _, (t,) = forward([rec2.image], bparams, cfg)
        totals.append(count_flops(cfg, t).total_flops)
    monotone = all(totals[i + 1] <= totals[i] for i in range(len(totals) - 1))
    report("A5", exact and monotone,
           f"instrumented {instrumented} == formula {formula}; beta sweep {totals} non-increasing")


# ---------------------------------------------------------------- A6 / A7 shared run

@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("desk")
    cfg = PRESETS["desk-synth"].validate()
    assert (cfg.routing_mode, cfg.beta, cfg.max_recursion, cfg.routing_lambda, cfg.seed) == \
        ("expert_choice", 0.5, 4, 0.01, 0)
    records = synth_mixed_difficulty(cfg.synth_samples, cfg.seed, cfg)[0]
    holdout, hold_masks = synth_holdout_set(cfg)

    main_ckpt = str(tmp / "main.ckpt")
    t0 = time.perf_counter()
    result = train(cfg, records, main_ckpt)
    train_seconds = time.perf_counter() - t0

    rerun_ckpt = str(tmp / "rerun.ckpt")
    train(cfg, records, rerun_ckpt)

    split_ckpt = str(tmp / "split.ckpt")
    train(cfg.replace(epochs=15), records, split_ckpt)
    train(cfg, records, split_ckpt, resume_from=split_ckpt)

    params = params_from_checkpoint(load_checkpoint(main_ckpt))
    holdout_eval = evaluate(params, holdout, cfg)
    return {
        "cfg": cfg,
        "tmp": tmp,
        "result": result,
        "train_seconds": train_seconds,
        "main_ckpt": main_ckpt,
        "rerun_ckpt": rerun_ckpt,
        "split_ckpt": split_ckpt,
        "records": records,
        "holdout": holdout,
        "hold_masks": hold_masks,
        "holdout_eval": holdout_eval,
    }


def test_a6_desk_training(desk_run):
    train_acc = desk_run["result"].rows[-1].train_acc
    holdout_acc = desk_run["holdout_eval"].accuracy
    seconds = desk_run["train_seconds"]
    with open(desk_run["main_ckpt"], "rb") as fa, open(desk_run["rerun_ckpt"], "rb") as fb:
        reproducible = fa.read() == fb.read()
    with open(desk_run["main_ckpt"], "rb") as fa, open(desk_run["split_ckpt"], "rb") as fb:
        resumable = fa.read() == fb.read()
    ok = train_acc >= 0.95 and holdout_acc >= 0.85 and reproducible and resumable and seconds <= 600
    report("A6", ok,
           f"train acc {train_acc:.4f} (>=0.95), holdout {holdout_acc:.4f} (>=0.85), "
           f"bit-reproducible={reproducible}, resume-identical={resumable}, {seconds:.0f}s (<=600)")


def test_a7_adaptivity_and_degeneracy(desk_run):
    cfg = desk_run["cfg"]
    hard, easy = [], []
    for trace, mask in zip(desk_run["holdout_eval"].traces, desk_run["hold_masks"]):
        depths = trace.patch_depths()
        hard.extend(depths[mask])
        easy.extend(depths[~mask])
    hard_mean, easy_mean = float(np.mean(hard)), float(np.mean(easy))

    healthy_fired, _ = detect_degenerate(desk_run["holdout_eval"].traces)

    # collapsed router: depth predictor with no signal and bias -50 sends
    # every token to depth 1 via the smaller-depth tie rule
    ccfg = cfg.replace(routing_mode="token_choice")
    cparams = init_params(ccfg)
    cparams.router.choice_w.data[:] = 0.0
    cparams.router.choice_b.data[:] = -50.0
    collapsed_traces = []
    for rec in desk_run["holdout"][:32]:
        _, (t,) = forward([rec.image], cparams, ccfg)
        collapsed_traces.append(t)
    collapsed_fired, stats = detect_degenerate(collapsed_traces)

    ok = hard_mean > easy_mean and not healthy_fired and collapsed_fired
    report("A7", ok,
           f"hard depth {hard_mean:.3f} > easy {easy_mean:.3f}; healthy run not degenerate; "
           f"collapsed router degenerate (fraction {stats['fraction_depth_one']:.2f})")


# ---------------------------------------------------------------- A8

def test_a8_ablation_structure():
    cfg = PRESETS["desk-bench"].validate()
    records = synth_mixed_difficulty(cfg.synth_samples, cfg.seed, cfg)[0]
    holdout = synth_holdout_set(cfg)[0]
    rows = run_ablation(cfg, records, holdout, bench_batch=16, bench_repeats=5)
    by_name = {r["variant"]: r for r in rows}

    from morvit.backbone import block_param_count

    shared = param_count(cfg)
    unshared = param_count(cfg.replace(share_params=False))
    delta_exact = unshared == shared + (cfg.max_recursion - 1) * block_param_count(cfg.hidden, cfg.mlp_size)
    table_delta = by_name["dynamic-unshared"]["params"] - by_name["mor"]["params"]
    table_exact = table_delta == (cfg.max_recursion - 1) * block_param_count(cfg.hidden, cfg.mlp_size)

    mor_ips = by_name["mor"]["images_per_second"]
    vit_ips = by_name["vit"]["images_per_second"]
    margin = mor_ips / vit_ips
    ok = len(rows) == 4 and delta_exact and table_exact and margin >= 1.10
    report("A8", ok,
           f"4 variants; unshared-shared delta exact; mor {mor_ips:.0f} img/s vs "
           f"static-unshared {vit_ips:.0f} img/s (x{margin:.2f} >= 1.10)")


# ---------------------------------------------------------------- A9

def test_a9_format_roundtrips(tmp_path):
    cfg = PRESETS["tiny-desk"].validate()
    params = init_params(cfg)
    named = params.named()
    opt = init_optimizer(named, lr=cfg.lr)
    gen = np.random.Generator(np.random.Philox(5))
    gen.random(9)
    ck_path = str(tmp_path / "m.ckpt")
    save_checkpoint(ck_path, cfg, named, optimizer=opt, rng_state=gen.bit_generator.state)
    ck = load_checkpoint(ck_path)
    ckpt_ok = all(ck.tensors[n].tobytes() == t.data.tobytes() for n, t in named.items())
    resaved = str(tmp_path / "m2.ckpt")
    save_checkpoint(resaved, ck.config, ck.tensors, optimizer=ck.optimizer, rng_state=ck.rng_state)
    ckpt_ok &= open(ck_path, "rb").read() == open(resaved, "rb").read()

    g = np.random.Generator(np.random.Philox(6))
    raw = bytearray()
    images = []
    for label in (3, 9):
        img = g.integers(0, 256, size=(32, 32, 3)).astype(np.uint8)
        raw.append(label)
        for ch in range(3):
            raw.extend(img[:, :, ch].tobytes())
        images.append((label, img))
    cifar_path = tmp_path / "two.bin"
    cifar_path.write_bytes(bytes(raw))
    recs = load_cifar10_binary(cifar_path)
    cifar_ok = len(recs) == 2 and all(
        r.label == lb and np.array_equal(np.round(r.image * 255).astype(np.uint8), im)
        for r, (lb, im) in zip(recs, images)
    )

    from morvit.routing import RoutingTrace

    trace = RoutingTrace(mode="expert_choice", beta=0.5, max_steps=3, num_patches=4)
    trace.step_attended = [3, 2]
    trace.step_scored = [4, 2]
    trace.step_selected = [2, 1]
    trace.exit_depth = np.array([3, 1, 2, 2, 3])
    csv_path = str(tmp_path / "map.csv")
    export_depth_map(trace, 2, 2, csv_path, fmt="csv")
    golden = open(os.path.join(GOLDEN, "depthmap_2x2.csv"), "rb").read()
    csv_ok = open(csv_path, "rb").read() == golden

    report("A9", ckpt_ok and cifar_ok and csv_ok,
           f"checkpoint bit-exact={ckpt_ok}, cifar 2-record roundtrip={cifar_ok}, csv golden={csv_ok}")


# ---------------------------------------------------------------- A10

def test_a10_vit_b16_parameter_sanity():
    count = param_count(PRESETS["vit-b16"])
    rel = abs(count - 86_000_000) / 86_000_000
    report("A10", rel < 0.02, f"vit-b16 params {count:,} within {rel:.2%} of 86M (< 2%)")
