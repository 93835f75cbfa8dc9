"""Command-line entry point: train / eval / profile / depthmap / ablate.

Exit codes: 0 success, 1 usage error, 2 data or format error, 3 numeric
failure (NaN/Inf detected). The MORVIT_THREADS environment variable caps
BLAS worker threads (default 1) and is applied before numpy loads, so it
only takes effect when this process starts here.
"""

from __future__ import annotations

import argparse
import os
import sys


def _apply_thread_cap():
    threads = os.environ.get("MORVIT_THREADS", "1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, threads)


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser():
    parser = _Parser(
        prog="morvit",
        description="Train, evaluate and profile a dynamic-recursion vision transformer.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_train = sub.add_parser(
        "train", help="train a model and write a checkpoint", parents=[], prog="morvit train"
    )
    p_train.add_argument("--config", required=True,
                         help="config file path or preset name")
    p_train.add_argument("--data", required=True,
                         help="CIFAR-10 binary file, or 'synth' / 'synth-holdout'")
    p_train.add_argument("--out", required=True, help="checkpoint output path")
    p_train.add_argument("--epochs", type=int, default=None,
                         help="override the config epoch count")
    p_train.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
    p_train.add_argument("--resume", default=None,
                         help="checkpoint to resume from")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint", prog="morvit eval")
    p_eval.add_argument("--ckpt", required=True, help="checkpoint path")
    p_eval.add_argument("--data", required=True,
                        help="CIFAR-10 binary file, or 'synth' / 'synth-holdout'")

    p_prof = sub.add_parser("profile", help="report parameters and FLOPs",
                            prog="morvit profile")
    p_prof.add_argument("--ckpt", required=True, help="checkpoint path")
    p_prof.add_argument("--beta-sweep", action="store_true",
                        help="sweep beta over {0, 0.25, 0.5, 0.75, 0.9}")
    p_prof.add_argument("--bench", action="store_true",
                        help="also measure images/second")
    p_prof.add_argument("--batch", type=int, default=16,
                        help="benchmark batch size")
    p_prof.add_argument("--repeats", type=int, default=5,
                        help="benchmark timing repeats (>= 3)")

    p_dm = sub.add_parser("depthmap", help="export a per-patch exit-depth map",
                          prog="morvit depthmap")
    p_dm.add_argument("--ckpt", required=True, help="checkpoint path")
    p_dm.add_argument("--input", required=True,
                      help=".npy image (H,W,C in [0,1]) or 'synth:K' for holdout sample K")
    p_dm.add_argument("--out", required=True, help="output file path")
    p_dm.add_argument("--format", choices=("csv", "json"), default="csv",
                      help="output format")

    p_ab = sub.add_parser("ablate", help="run the four-variant ablation table",
                          prog="morvit ablate")
    p_ab.add_argument("--config", required=True, help="config file path or preset name")
    p_ab.add_argument("--data", required=True,
                      help="CIFAR-10 binary file, or 'synth'")
    p_ab.add_argument("--out", required=True, help="table output path (TSV)")
    p_ab.add_argument("--epochs", type=int, default=None,
                      help="override the config epoch count per variant")

    return parser


def _load_records(spec, cfg):
    from .data import load_cifar10_binary, synth_holdout_set, synth_train_set

    if spec == "synth":
        return synth_train_set(cfg)[0]
    if spec == "synth-holdout":
        return synth_holdout_set(cfg)[0]
    if not os.path.exists(spec):
        from .errors import DataError

        raise DataError(f"--data {spec}: no such file (and not 'synth'/'synth-holdout')")
    return load_cifar10_binary(spec)


def _cmd_train(args):
    from .config import resolve_config
    from .train import train

    cfg = resolve_config(args.config)
    if args.epochs is not None:
        cfg = cfg.replace(epochs=args.epochs)
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    cfg.validate()
    records = _load_records(args.data, cfg)
    result = train(cfg, records, args.out, resume_from=args.resume)
    last = result.rows[-1]
    print(f"trained {last.epoch} epochs; final train_loss={last.train_loss:.6f} "
          f"train_acc={last.train_acc:.4f} mean_exit_depth={last.mean_exit_depth:.3f}")
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"metrics:    {result.metrics_path}")
    return 0


def _cmd_eval(args):
    from .checkpoint import load_checkpoint
    from .train import evaluate_checkpoint

    cfg = load_checkpoint(args.ckpt).config
    records = _load_records(args.data, cfg)
    ev, _ = evaluate_checkpoint(args.ckpt, records)
    print(f"accuracy={ev.accuracy!r}")
    print(f"mean_exit_depth={ev.mean_exit_depth!r}")
    for cls, acc in ev.per_class_accuracy.items():
        print(f"class[{cls}]_accuracy={acc!r}")
    return 0


_BETA_SWEEP = (0.0, 0.25, 0.5, 0.75, 0.9)


def _cmd_profile(args):
    import numpy as np

    from .checkpoint import load_checkpoint, params_from_checkpoint
    from .data import synth_holdout_set
    from .model import forward_sample, param_count
    from .profiler import bench_throughput, count_flops

    ck = load_checkpoint(args.ckpt)
    cfg = ck.config
    params = params_from_checkpoint(ck)
    sample = synth_holdout_set(cfg)[0][0].image
    print(f"params={param_count(cfg)}")
    if args.beta_sweep:
        print("beta\ttotal_flops")
        for beta in _BETA_SWEEP:
            bcfg = cfg.replace(beta=beta)
            _, trace = forward_sample(sample, params, bcfg)
            report = count_flops(bcfg, trace)
            print(f"{beta}\t{report.total_flops}")
    else:
        _, trace = forward_sample(sample, params, cfg)
        report = count_flops(cfg, trace)
        print(f"total_flops={report.total_flops}")
        for part, val in report.breakdown().items():
            print(f"flops[{part}]={val}")
        print(f"aux_flops={report.aux_flops}")
    if args.bench:
        records = synth_holdout_set(cfg)[0]
        images = [records[i % len(records)].image for i in range(args.batch)]
        bench = bench_throughput(params, cfg, images, repeats=args.repeats)
        print(f"images_per_second={bench['images_per_second']!r} "
              f"(threads={bench['threads']}, precision={bench['precision']})")
    return 0


def _cmd_depthmap(args):
    import numpy as np

    from .checkpoint import load_checkpoint, params_from_checkpoint
    from .data import synth_holdout_set
    from .errors import DataError
    from .model import forward_sample
    from .profiler import export_depth_map

    ck = load_checkpoint(args.ckpt)
    cfg = ck.config
    params = params_from_checkpoint(ck)
    if args.input.startswith("synth:"):
        try:
            k = int(args.input.split(":", 1)[1])
        except ValueError:
            raise DataError(f"--input {args.input}: expected synth:K with integer K")
        records = synth_holdout_set(cfg)[0]
        if not 0 <= k < len(records):
            raise DataError(f"--input {args.input}: index out of range (holdout has {len(records)})")
        image = records[k].image
    else:
        if not os.path.exists(args.input):
            raise DataError(f"--input {args.input}: no such file")
        image = np.load(args.input)
        if image.shape != (cfg.image_h, cfg.image_w, cfg.channels):
            raise DataError(
                f"--input {args.input}: shape {image.shape} does not match config "
                f"({cfg.image_h}, {cfg.image_w}, {cfg.channels})"
            )
    _, trace = forward_sample(image, params, cfg)
    export_depth_map(trace, cfg.grid_h, cfg.grid_w, args.out, fmt=args.format)
    print(f"wrote {args.format} depth map: {args.out}")
    return 0


def _cmd_ablate(args):
    from .config import resolve_config
    from .errors import DataError
    from .train import format_ablation_table, run_ablation

    cfg = resolve_config(args.config)
    records = _load_records(args.data, cfg)
    if args.data == "synth":
        from .data import synth_holdout_set

        holdout = synth_holdout_set(cfg)[0]
    else:
        # any other data scores top-1 on its own last n // 8 records, which
        # training never sees
        if len(records) < 2:
            raise DataError(f"--data {args.data}: ablate needs at least 2 records, "
                            f"got {len(records)}")
        cut = len(records) - max(1, len(records) // 8)
        records, holdout = records[:cut], records[cut:]
    rows = run_ablation(cfg, records, holdout, epochs=args.epochs)
    table = format_ablation_table(rows)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table)
    except OSError as exc:
        raise DataError(f"cannot write table {args.out}: {exc}")
    print(table, end="")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "profile": _cmd_profile,
    "depthmap": _cmd_depthmap,
    "ablate": _cmd_ablate,
}


def main(argv=None):
    _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("morvit: error: a command is required", file=sys.stderr)
        return 1

    from .errors import ConfigError, DataError, NumericError, ShapeError

    try:
        return _COMMANDS[args.command](args)
    except NumericError as exc:
        print(f"morvit: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, DataError, ShapeError) as exc:
        print(f"morvit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
