"""Training and evaluation loops, metrics logging, and the ablation runner.

Everything here is deterministic for a fixed seed: one Philox stream covers
parameter init, epoch shuffles and augmentation coin flips, and its exact
state rides along in every checkpoint so a resumed run continues the same
stream bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import checkpoint as ckpt_io
from .config import RunConfig
from .data import check_geometry
from .errors import ConfigError, DataError, NumericError
from .model import (
    ModelParams,
    check_finite,
    forward,
    init_params,
    param_count,
    total_loss,
)
from .optim import adam_step, init_optimizer
from .profiler import bench_throughput, count_flops
from .tensor import Tape, backward


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    train_acc: float
    mean_exit_depth: float
    flops_per_image: float

    def line(self):
        # full-precision floats so downstream comparisons can be exact
        return (
            f"{self.epoch}\t{self.train_loss!r}\t{self.train_acc!r}"
            f"\t{self.mean_exit_depth!r}\t{self.flops_per_image!r}\n"
        )


@dataclass
class TrainResult:
    checkpoint_path: str
    metrics_path: str
    rows: list = field(default_factory=list)


@dataclass
class EvalResult:
    accuracy: float
    mean_exit_depth: float
    per_class_accuracy: dict
    predictions: list          # per-sample argmax labels
    traces: list


def metrics_path_for(out_path):
    return out_path + ".metrics.tsv"


def _maybe_flip(image, gen, enabled):
    if not enabled:
        return image
    if gen.random() < 0.5:
        return np.ascontiguousarray(image[:, ::-1, :])
    return image


# Evaluation runs in chunks whose widest block activation, tokens x
# max(hidden, mlp_size) f64 values per image, fills about 2**15 values
# (256 KiB, within a core's L2), and never fewer images than a training
# minibatch. Sweeps on a 2-core x86-64 host (64 holdout images, 1 BLAS
# thread) with chunks of 8 / 16 / 32 / 64 images: desk-synth token-choice
# evaluated 2,816 / 3,745 / 4,244 / 4,274 img/s; desk-bench, whose
# activations leave L2 past 8 images, 581 / 590 / 550 / 532 (expert-choice)
# and 176 / 169 / 154 / 153 (static, four blocks).
EVAL_WORKING_SET = 2**15


def eval_chunk(cfg):
    """Images per evaluation forward: 30 on desk-synth, 8 on desk-bench."""
    return max(cfg.batch_size, EVAL_WORKING_SET // (cfg.tokens * max(cfg.hidden, cfg.mlp_size)))


def forward_sample(images, params: ModelParams, cfg):
    """One sample of images through ``forward``; returns (list of (1, C)
    logits, list of traces).

    A sample is a training minibatch of ``cfg.batch_size`` images or an
    evaluation chunk of ``eval_chunk(cfg)``. A chunk holds as many images as
    keep the block's widest activation within about 256 KiB, so it stays in
    a core's L2, and never fewer than a minibatch, because a training step
    of a minibatch (forward, loss, backward) already peaks several times
    higher in memory than an inference forward of the same images.
    ``evaluate`` and ``train`` run every sample through this module-level
    name, so a wrapper of ``train.forward_sample`` sees each one start; the
    benchmark's speed gauge closes its timed stretches there.
    """
    return forward(images, params, cfg)


def evaluate(params: ModelParams, records, cfg) -> EvalResult:
    """Top-1 accuracy (argmax, first index wins ties) plus routing stats.

    The records go through ``forward_sample`` in chunks of
    ``eval_chunk(cfg)`` images: as many as keep the block's widest
    activation within a core's L2 (about 256 KiB), but no fewer than
    ``cfg.batch_size``, since a training step of that many images already
    peaks higher in memory than the chunk's forward. Logits, predictions
    and depths are the same bytes for any chunk of two images or more.
    """
    if not records:
        raise DataError("evaluation needs a non-empty dataset")
    check_geometry(records, cfg, where="eval data")
    chunk = eval_chunk(cfg)
    logits, traces = [], []
    for lo in range(0, len(records), chunk):
        out, chunk_traces = forward_sample([rec.image for rec in records[lo : lo + chunk]],
                                           params, cfg)
        logits += [t.data for t in out]
        traces += chunk_traces
    predictions = check_finite(np.concatenate(logits), "eval logits").argmax(axis=1)
    labels = np.array([rec.label for rec in records])
    seen = np.bincount(labels, minlength=cfg.num_classes)
    hits = np.bincount(labels[predictions == labels], minlength=cfg.num_classes)
    depths = np.stack([t.exit_depth for t in traces])[:, 1:]
    return EvalResult(
        accuracy=int(hits.sum()) / len(records),
        mean_exit_depth=int(depths.sum()) / depths.size,
        per_class_accuracy={c: int(hits[c]) / int(seen[c]) for c in np.flatnonzero(seen).tolist()},
        predictions=predictions.tolist(),
        traces=traces,
    )


def evaluate_checkpoint(ckpt_path, records) -> tuple:
    """(EvalResult, config) of a checkpoint on records; ``benchmark/run.py`` calls it."""
    ck = ckpt_io.load_checkpoint(ckpt_path)
    params = ckpt_io.params_from_checkpoint(ck)
    return evaluate(params, records, ck.config), ck.config


# The run length may grow on resume; every other field shapes the model,
# its data or its update, so a resumed run must keep it.
_RESUMABLE_FIELDS = ("epochs", "completed_epochs")


def _check_resume_config(cfg, saved, path):
    differ = [
        f.name for f in fields(RunConfig)
        if f.name not in _RESUMABLE_FIELDS and getattr(cfg, f.name) != getattr(saved, f.name)
    ]
    if differ:
        detail = ", ".join(f"{n}={getattr(cfg, n)!r} (checkpoint {getattr(saved, n)!r})"
                           for n in differ)
        raise ConfigError(f"{path}: cannot resume with a different config: {detail}")


def train(cfg: RunConfig, records, out_path, resume_from=None, step_losses=None):
    """Run cfg.epochs of Adam over the records, checkpointing every epoch.

    The per-epoch metrics row reports the running training loss and a full
    deterministic evaluation pass over the training set (accuracy, mean
    exit depth, mean per-image FLOPs). Pass ``resume_from`` to continue a
    run; continuation is bit-identical to never having stopped.
    """
    if not records:
        raise DataError("training needs a non-empty dataset")
    check_geometry(records, cfg, where="train data")

    if resume_from is not None:
        ck = ckpt_io.load_checkpoint(resume_from)
        _check_resume_config(cfg, ck.config, resume_from)
        if cfg.epochs <= ck.config.completed_epochs:
            raise ConfigError(f"{resume_from}: nothing left to train: {cfg.epochs} epochs "
                              f"requested, {ck.config.completed_epochs} completed")
        params = ckpt_io.params_from_checkpoint(ck)
        if ck.optimizer is None or ck.rng_state is None:
            raise DataError(f"{resume_from}: checkpoint lacks optimizer/rng state, cannot resume")
        opt = ck.optimizer
        gen = np.random.Generator(np.random.Philox(0))
        gen.bit_generator.state = ck.rng_state
        start_epoch = ck.config.completed_epochs
    else:
        gen = np.random.Generator(np.random.Philox(cfg.seed))
        params = init_params(cfg, gen)
        opt = init_optimizer(params.named(), lr=cfg.lr)
        start_epoch = 0

    metrics_path = metrics_path_for(out_path)
    mode = "a" if resume_from is not None else "w"
    result = TrainResult(checkpoint_path=out_path, metrics_path=metrics_path)
    named = params.named()

    try:
        metrics = open(metrics_path, mode, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write metrics {metrics_path}: {exc}")
    with metrics:
        for epoch in range(start_epoch, cfg.epochs):
            order = gen.permutation(len(records))
            loss_sum = 0.0
            batches = 0
            for lo in range(0, len(order), cfg.batch_size):
                batch = order[lo : lo + cfg.batch_size]
                params.zero_grads()
                images = [_maybe_flip(records[i].image, gen, cfg.augment_flip) for i in batch]
                labels = [records[i].label for i in batch]
                with Tape():
                    logits_list, traces = forward_sample(images, params, cfg)
                    loss = total_loss(logits_list, labels, traces, cfg)
                if not np.isfinite(loss.data):
                    raise NumericError(f"non-finite loss at epoch {epoch + 1}")
                backward(loss)
                grads = {n: t.grad for n, t in named.items()}
                adam_step(named, grads, opt)
                loss_sum += float(loss.data)
                batches += 1
                if step_losses is not None:
                    step_losses.append(float(loss.data))

            ev = evaluate(params, records, cfg)
            flops = float(
                np.mean([count_flops(cfg, t).total_flops for t in ev.traces])
            )
            row = EpochRow(
                epoch=epoch + 1,
                train_loss=loss_sum / batches,
                train_acc=ev.accuracy,
                mean_exit_depth=ev.mean_exit_depth,
                flops_per_image=flops,
            )
            result.rows.append(row)
            metrics.write(row.line())
            metrics.flush()

            snap_cfg = cfg.replace(completed_epochs=epoch + 1)
            ckpt_io.save_checkpoint(
                out_path,
                snap_cfg,
                named,
                optimizer=opt,
                rng_state=gen.bit_generator.state,
            )
    return result


ABLATION_VARIANTS = (
    # (name, routing_mode, share_params) at the base config's max_recursion
    ("mor", "expert_choice", True),
    ("static-shared", "static", True),
    ("dynamic-unshared", "expert_choice", False),
    ("vit", "static", False),
)


def run_ablation(cfg, records, holdout, epochs=None, bench_batch=16, bench_repeats=5):
    """Train and measure the four routing/sharing variants on one dataset.

    Returns one row per variant: name, top-1 on the holdout, exact param
    count, and median images/second at inference.
    """
    import tempfile, os

    rows = []
    for name, mode, share in ABLATION_VARIANTS:
        vcfg = cfg.replace(routing_mode=mode, share_params=share)
        if epochs is not None:
            vcfg = vcfg.replace(epochs=epochs)
        vcfg.validate()
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, f"{name}.ckpt")
            train(vcfg, records, out)
            ck = ckpt_io.load_checkpoint(out)
        params = ckpt_io.params_from_checkpoint(ck)
        ev = evaluate(params, holdout, ck.config)
        bench_images = [holdout[i % len(holdout)].image for i in range(bench_batch)]
        bench = bench_throughput(params, vcfg, bench_images, repeats=bench_repeats)
        rows.append({
            "variant": name,
            "routing_mode": mode,
            "share_params": share,
            "top1": ev.accuracy,
            "params": param_count(vcfg),
            "images_per_second": bench["images_per_second"],
        })
    return rows


def format_ablation_table(rows):
    header = "variant\trouting_mode\tshare_params\ttop1\tparams\timages_per_second\n"
    lines = [
        f"{r['variant']}\t{r['routing_mode']}\t{r['share_params']}"
        f"\t{r['top1']!r}\t{r['params']}\t{r['images_per_second']!r}\n"
        for r in rows
    ]
    return header + "".join(lines)
