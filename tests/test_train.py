import gc
import tracemalloc

import numpy as np
import pytest

import morvit.train as train_mod
from morvit.checkpoint import load_checkpoint
from morvit.config import PRESETS
from morvit.data import DatasetRecord, synth_mixed_difficulty
from morvit.errors import ConfigError, DataError
from morvit.model import forward, init_params, total_loss
from morvit.tensor import Tape, backward
from morvit.train import (
    eval_chunk,
    evaluate,
    evaluate_checkpoint,
    format_ablation_table,
    metrics_path_for,
    run_ablation,
    train,
)
from oracles import reference_backward


def micro_cfg(**kw):
    base = PRESETS["tiny-desk"].replace(
        num_classes=4, max_recursion=3, epochs=3, batch_size=8,
        synth_samples=48, synth_holdout=24, lr=1e-3,
        synth_hard_fraction=0.75,
    )
    return base.replace(**kw).validate()


def micro_data(cfg, seed=None):
    return synth_mixed_difficulty(cfg.synth_samples, cfg.seed if seed is None else seed, cfg)[0]


def test_one_epoch_checkpoint_roundtrips(tmp_path):
    cfg = micro_cfg(epochs=1)
    records = micro_data(cfg)
    out = tmp_path / "m.ckpt"
    result = train(cfg, records, str(out))
    assert out.exists()
    ck = load_checkpoint(out)
    assert ck.config.completed_epochs == 1
    assert ck.optimizer is not None and ck.rng_state is not None
    assert len(result.rows) == 1
    # metrics line format: epoch, train_loss, train_acc, depth, flops
    lines = (tmp_path / "m.ckpt.metrics.tsv").read_text().splitlines()
    assert len(lines) == 1
    fields = lines[0].split("\t")
    assert len(fields) == 5 and fields[0] == "1"
    float(fields[1]), float(fields[2]), float(fields[3]), float(fields[4])


def test_loss_decreases_over_window(tmp_path):
    cfg = micro_cfg(epochs=26, synth_samples=64)
    records = micro_data(cfg)
    step_losses = []
    train(cfg, records, str(tmp_path / "m.ckpt"), step_losses=step_losses)
    assert len(step_losses) >= 200
    start = np.mean(step_losses[:10])
    window = np.mean(step_losses[190:210])
    assert window < start


def test_training_is_bit_reproducible(tmp_path):
    cfg = micro_cfg()
    records = micro_data(cfg)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    train(cfg, records, str(a))
    train(cfg, records, str(b))
    assert a.read_bytes() == b.read_bytes()
    assert metrics_path_for(str(a)) != metrics_path_for(str(b))
    assert (tmp_path / "a.ckpt.metrics.tsv").read_text() == (tmp_path / "b.ckpt.metrics.tsv").read_text()


def test_training_matches_reference_replay_bytewise(tmp_path, monkeypatch):
    cfg = micro_cfg(epochs=2, routing_lambda=0.5)
    records = micro_data(cfg)
    ours, ref = tmp_path / "ours.ckpt", tmp_path / "ref.ckpt"
    train(cfg, records, str(ours))
    monkeypatch.setattr(Tape, "backward", reference_backward)
    train(cfg, records, str(ref))
    assert ours.read_bytes() == ref.read_bytes()
    assert (tmp_path / "ours.ckpt.metrics.tsv").read_text() == \
        (tmp_path / "ref.ckpt.metrics.tsv").read_text()


def test_resume_matches_uninterrupted_run(tmp_path):
    cfg = micro_cfg(epochs=4)
    records = micro_data(cfg)
    straight = tmp_path / "straight.ckpt"
    train(cfg, records, str(straight))

    split = tmp_path / "split.ckpt"
    train(cfg.replace(epochs=2), records, str(split))
    train(cfg, records, str(split), resume_from=str(split))

    assert straight.read_bytes() == split.read_bytes()
    assert (tmp_path / "straight.ckpt.metrics.tsv").read_text() == \
        (tmp_path / "split.ckpt.metrics.tsv").read_text()


@pytest.mark.parametrize("change", [{"beta": 0.25}, {"routing_mode": "token_choice"}])
def test_resume_rejects_a_different_config(tmp_path, change):
    cfg = micro_cfg(epochs=1)
    records = micro_data(cfg)
    first = tmp_path / "first.ckpt"
    train(cfg, records, str(first))
    with pytest.raises(ConfigError):
        train(cfg.replace(epochs=2, **change), records, str(tmp_path / "more.ckpt"),
              resume_from=str(first))


def test_resume_requires_state(tmp_path):
    cfg = micro_cfg(epochs=1)
    records = micro_data(cfg)
    from morvit.checkpoint import save_checkpoint

    bare = tmp_path / "bare.ckpt"
    save_checkpoint(bare, cfg, init_params(cfg).named())
    with pytest.raises(DataError):
        train(cfg, records, str(tmp_path / "out.ckpt"), resume_from=str(bare))


def test_train_rejects_empty_dataset(tmp_path):
    with pytest.raises(DataError):
        train(micro_cfg(), [], str(tmp_path / "x.ckpt"))


def test_train_rejects_wrong_geometry(tmp_path):
    cfg = micro_cfg()
    bad = [DatasetRecord(image=np.zeros((7, 7, 3)), label=0)]
    with pytest.raises(DataError):
        train(cfg, bad, str(tmp_path / "x.ckpt"))


# ---------------------------------------------------------------- evaluate

def test_evaluate_tie_rule_on_zero_head():
    cfg = micro_cfg(num_classes=2, synth_samples=8)
    params = init_params(cfg)
    params.head.w.data[:] = 0.0
    params.head.b.data[:] = 0.0
    # balanced two-class set
    g = np.random.Generator(np.random.Philox(3))
    records = [
        DatasetRecord(image=g.random((cfg.image_h, cfg.image_w, cfg.channels)), label=i % 2)
        for i in range(8)
    ]
    ev = evaluate(params, records, cfg)
    assert ev.accuracy == 0.5            # argmax of all-zero logits picks class 0
    assert all(p == 0 for p in ev.predictions)


def test_evaluate_deterministic():
    cfg = micro_cfg()
    params = init_params(cfg)
    records = micro_data(cfg)[:8]
    a = evaluate(params, records, cfg)
    b = evaluate(params, records, cfg)
    assert a.accuracy == b.accuracy
    assert a.mean_exit_depth == b.mean_exit_depth
    assert a.predictions == b.predictions


def test_evaluate_accuracy_matches_prediction_recount():
    cfg = micro_cfg()
    params = init_params(cfg)
    records = micro_data(cfg)[:16]
    ev = evaluate(params, records, cfg)
    recount = sum(p == r.label for p, r in zip(ev.predictions, records)) / len(records)
    assert ev.accuracy == recount
    per_class = {}
    for p, r in zip(ev.predictions, records):
        hit, n = per_class.get(r.label, (0, 0))
        per_class[r.label] = (hit + (p == r.label), n + 1)
    for cls, (hit, n) in per_class.items():
        assert ev.per_class_accuracy[cls] == hit / n


def test_final_epoch_log_matches_eval_on_train_set(tmp_path):
    cfg = micro_cfg(epochs=2)
    records = micro_data(cfg)
    out = tmp_path / "m.ckpt"
    result = train(cfg, records, str(out))
    ev, _ = evaluate_checkpoint(str(out), records)
    assert ev.accuracy == result.rows[-1].train_acc
    assert ev.mean_exit_depth == result.rows[-1].mean_exit_depth


def test_loops_run_each_chunk_through_forward_sample(tmp_path, monkeypatch):
    # a wrapper of train.forward_sample sees every minibatch and eval chunk;
    # tiny-desk's eval chunk is 409 images, so 20 records are one chunk
    sizes = []
    inner = train_mod.forward_sample

    def counting(images, params, cfg):
        sizes.append(len(images))
        return inner(images, params, cfg)

    monkeypatch.setattr(train_mod, "forward_sample", counting)
    cfg = micro_cfg(epochs=1)
    records = micro_data(cfg)[:20]
    evaluate(init_params(cfg), records, cfg)
    assert sizes == [20]
    sizes.clear()
    train(cfg, records, str(tmp_path / "m.ckpt"))
    assert sizes == [8, 8, 4, 20]  # the minibatches, then the epoch's evaluation


def test_eval_chunk_follows_the_working_set():
    assert eval_chunk(PRESETS["desk-synth"]) == 30
    assert eval_chunk(PRESETS["desk-bench"]) == PRESETS["desk-bench"].batch_size == 8
    assert eval_chunk(PRESETS["desk-synth"].replace(batch_size=64)) == 64


@pytest.mark.parametrize("mode", ("expert_choice", "token_choice", "static"))
def test_evaluation_is_chunk_invariant(monkeypatch, mode):
    # chunks of 8 (the minibatch) and of 30 (eval_chunk) give the same bytes;
    # every chunk holds two images or more, since a 1-image forward differs
    # from a batched one at the ulp level
    cfg = PRESETS["desk-synth"].replace(routing_mode=mode).validate()
    records = synth_mixed_difficulty(64, 5, cfg)[0]
    params = init_params(cfg)
    inner = train_mod.forward_sample

    def run(chunk):
        logits = []

        def keeping(images, params, cfg):
            out = inner(images, params, cfg)
            logits.extend(t.data for t in out[0])
            return out

        monkeypatch.setattr(train_mod, "forward_sample", keeping)
        monkeypatch.setattr(train_mod, "eval_chunk", lambda cfg: chunk)
        ev = evaluate(params, records, cfg)
        return (np.concatenate(logits).tobytes(), ev.predictions,
                np.stack([t.exit_depth for t in ev.traces]).tobytes(), ev.accuracy,
                ev.mean_exit_depth, ev.per_class_accuracy)

    assert run(cfg.batch_size) == run(eval_chunk(cfg))


def _peak(fn):
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("preset,overrides", [
    ("desk-synth", {"routing_mode": "token_choice"}),
    ("desk-synth", {}),
    ("desk-bench", {}),
    ("desk-bench", {"routing_mode": "static", "share_params": False}),
])
def test_eval_chunk_forward_peaks_below_a_training_step(preset, overrides):
    cfg = PRESETS[preset].replace(**overrides).validate()
    recs = synth_mixed_difficulty(eval_chunk(cfg), 3, cfg)[0]
    images = [r.image for r in recs]
    params = init_params(cfg)

    def step():
        params.zero_grads()
        batch = recs[:cfg.batch_size]
        with Tape():
            logits, traces = forward([r.image for r in batch], params, cfg)
            loss = total_loss(logits, [r.label for r in batch], traces, cfg)
        backward(loss)

    forward(images, params, cfg)
    step()
    assert _peak(lambda: forward(images, params, cfg)) <= _peak(step)


# ---------------------------------------------------------------- ablation

def test_ablation_emits_four_reproducible_rows():
    cfg = micro_cfg(epochs=1, synth_samples=16, synth_holdout=8)
    records = micro_data(cfg)
    holdout = synth_mixed_difficulty(cfg.synth_holdout, cfg.seed + 1, cfg)[0]
    rows = run_ablation(cfg, records, holdout, bench_batch=4, bench_repeats=3)
    assert [r["variant"] for r in rows] == ["mor", "static-shared", "dynamic-unshared", "vit"]
    by_name = {r["variant"]: r for r in rows}
    assert by_name["dynamic-unshared"]["params"] > by_name["mor"]["params"]
    assert by_name["vit"]["params"] == by_name["dynamic-unshared"]["params"] - \
        (cfg.max_recursion * (cfg.hidden + 1))  # router params absent in static
    rows2 = run_ablation(cfg, records, holdout, bench_batch=4, bench_repeats=3)
    for r1, r2 in zip(rows, rows2):
        assert r1["top1"] == r2["top1"]
        assert r1["params"] == r2["params"]
    table = format_ablation_table(rows)
    assert len(table.splitlines()) == 5
