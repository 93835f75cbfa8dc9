"""Whole-program benchmark of morvit: inference, training and memory.

Run from the repository root:

    python3 benchmark/run.py --workload mor-bench --seed 1 --seconds 10 --trace 0

One run builds one workload's model and data (``--seed`` draws the images
inference runs on), checks the program's outputs against computations made
apart from it, times inference for ``--seconds`` and a fixed two-epoch
training run, and prints
each metric by name and unit. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the run
records spans around the program's layers and reports per-layer metrics.
Results and spans are also written under ``benchmark/out/``. See README.md.
"""

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import sys
import tempfile
import time

# One BLAS thread, fixed before numpy loads. The program measured is the
# checkout's own source tree, never an installed copy.
for _var in ("MORVIT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
if not os.path.isfile(os.path.join(SRC, "morvit", "__init__.py")):
    sys.exit(f"benchmark: no morvit sources under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from morvit import checkpoint, config, data, model, profiler, routing, tensor, train  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = {
    # name: (preset, overrides, gauge probe images, probe's nominal seconds);
    # a nominal time is the probe's median on the 2-core x86-64 machine the
    # benchmark was calibrated on, so scaled figures read like its wall times
    "mor-bench": ("desk-bench", {}, 4, 0.0155),
    "vit-bench": ("desk-bench", {"routing_mode": "static", "share_params": False}, 2, 0.0151),
    "tc-synth": ("desk-synth", {"routing_mode": "token_choice"}, 12, 0.0134),
}
# The model's init, its training set and its shuffles come from this seed in
# every run; --seed draws the holdout images that inference runs on. Under
# token-choice the initial router decides how much work each image gets, and
# across init seeds that moves the work per image by a third.
MODEL_SEED = 0
EPOCHS = 2           # at least two, so the first and last epoch loss compare
SAMPLED = 4          # holdout images checked against the reference forward
GRAD_BATCH = 2       # sampled images in the central-difference loss
LATENCY_CHUNK = 16   # batch-1 forwards timed in one gauge stretch
FD_PARAMS = ("embed.w_e", "block0.wq", "router.step0.w", "router.choice_w", "head.w")
FD_STEP = 1e-5

# Wrapped where the program looks the name up, so each call leaves a span.
LAYER_SPANS = (
    (model, "patchify", "backbone.patchify"),
    (model, "embed", "backbone.embed"),
    (model, "run_recursion", "routing.run_recursion"),
    (routing, "encoder_block", "backbone.encoder_block"),
    (routing, "routing_score", "routing.routing_score"),
    (routing, "select_active", "routing.select_active"),
    (routing, "gather_rows", "routing.gather_rows"),
    (routing, "scatter_rows", "routing.scatter_rows"),
    (routing, "token_choice_assign", "routing.token_choice_assign"),
    (train, "total_loss", "model.total_loss"),
    (train, "backward", "tensor.backward"),
    (train, "adam_step", "optim.adam_step"),
    (train, "evaluate", "train.evaluate"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (checkpoint, "params_from_checkpoint", "checkpoint.params"),
)


def process_age():
    """Seconds since this process started, from /proc (Linux)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


class Tally:
    """Operations attempted and failed: images inferred, training steps, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def done(self, n):
        self.attempted += n

    def check(self, fn, *args):
        self.attempted += 1
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.failed += 1
            self.problems.append(f"{fn.__name__}: {exc}")


class Gauge:
    """Rescales wall time to a nominal speed of this machine's cores.

    On a shared host a core's speed drifts (by up to 1.7x, in phases of 5 to
    20 s, on a shared 2-core x86-64 host), and CPU time drifts with it. A
    probe times a fixed plain-numpy computation, the reference forward on
    fixed images. Timed work is cut into stretches of about ``STRETCH_S``,
    with a probe between stretches, and each stretch is scaled by nominal /
    (mean of the probes on either side of it). Probes that read their nominal
    time leave a stretch as measured; the probes' own time is left out.
    """

    STRETCH_S = 0.1

    def __init__(self, workload, cfg, params, train_set):
        _, _, images, self.nominal_s = WORKLOADS[workload]
        named = {name: t.data.copy() for name, t in params.named().items()}
        self._images = [(r.image, named, cfg) for r in train_set[:images]]
        self.readings = []
        self.scaled_s = 0.0      # scaled seconds of every stretch closed so far
        self._before = self.probe()
        self._mark = time.perf_counter()

    def probe(self):
        t0 = time.perf_counter()
        for args in self._images:
            reference.forward(*args)
        self.readings.append(time.perf_counter() - t0)
        return self.readings[-1]

    def restart(self):
        """Open a stretch now, leaving out the time since the last one closed."""
        self._mark = time.perf_counter()

    def tick(self):
        """Close the open stretch and open the next; the stretch's scale factor."""
        raw = time.perf_counter() - self._mark
        after = self.probe()
        factor = 2.0 * self.nominal_s / (self._before + after)
        self.scaled_s += raw * factor
        self._before = after
        self._mark = time.perf_counter()
        return factor

    def measure(self, fn):
        """(scaled seconds, result) of fn(), closing a stretch at the first
        per-image ``forward_sample`` call of ``train`` after ``STRETCH_S``."""
        forward_sample = train.forward_sample

        def ticking(*args, **kwargs):
            if time.perf_counter() - self._mark >= self.STRETCH_S:
                self.tick()
            return forward_sample(*args, **kwargs)

        train.forward_sample = ticking
        try:
            self.restart()
            start = self.scaled_s
            out = fn()
            self.tick()
        finally:
            train.forward_sample = forward_sample
        return self.scaled_s - start, out


def setup(workload, seed, tracer):
    """Config, data and parameters; returns them with the process's age."""
    preset, overrides, _, _ = WORKLOADS[workload]
    cfg = config.resolve_config(preset).replace(seed=MODEL_SEED, epochs=EPOCHS, **overrides)
    cfg.validate()
    if tracer:
        tracer.wrap(data, "synth_mixed_difficulty", "data.synth")
    train_set = data.synth_train_set(cfg)[0]
    holdout = data.synth_holdout_set(cfg.replace(seed=seed))[0]
    if tracer:
        tracer.restore()
    params = model.init_params(cfg)
    return cfg, train_set, holdout, params, process_age()


def latencies(params, cfg, holdout, seconds, gauge):
    """Batch-1 ``model.forward`` latencies, cycling through the holdout.

    Calls are timed in chunks, one gauge stretch each, until ``seconds`` pass.
    """
    images = [r.image for r in holdout]
    chunks = itertools.cycle(range(0, len(images), LATENCY_CHUNK))
    out = []
    deadline = time.perf_counter() + seconds
    while not out or time.perf_counter() < deadline:
        raw = []
        gauge.restart()
        for image in images[next(chunks):][:LATENCY_CHUNK]:
            t0 = time.perf_counter()
            model.forward([image], params, cfg)
            raw.append(time.perf_counter() - t0)
        factor = gauge.tick()
        out += [dt * factor for dt in raw]
    return out


def check_outputs(tally, cfg, params, holdout, seed, tmp):
    """Warm-up evaluation and every check that needs no training.

    Returns the evaluation's traces and the dtype the logits came out in.
    """
    ev = train.evaluate(params, holdout, cfg)
    tally.done(len(holdout))
    for trace in ev.traces:
        if cfg.routing_mode == "expert_choice":
            tally.check(checks.kept_counts, trace, cfg.beta)
        tally.check(checks.depth_histogram, trace, cfg.routing_mode == "static")

    path = os.path.join(tmp, "init.ckpt")
    checkpoint.save_checkpoint(path, cfg, params.named())
    reloaded = checkpoint.params_from_checkpoint(checkpoint.load_checkpoint(path))
    named = {name: t.data for name, t in params.named().items()}
    picks = np.random.Generator(np.random.Philox(seed)).choice(len(holdout), SAMPLED, replace=False)
    for i in picks:
        image = holdout[i].image
        with tensor.count_macs() as counter:
            (logits,), (trace,) = model.forward([image], params, cfg)
        (again,), _ = model.forward([image], reloaded, cfg)
        tally.done(2)
        ref_logits, ref_depths = reference.forward(image, named, cfg)
        tally.check(checks.logits_match, ref_logits, logits.data)
        tally.check(checks.identical, ref_depths, trace.exit_depth, "exit depths")
        tally.check(checks.macs_match, counter.macs, profiler.count_flops(cfg, trace).total_flops)
        tally.check(checks.identical, logits.data, again.data, "reloaded checkpoint's logits")
    check_gradients(tally, cfg, params, [holdout[i] for i in picks[:GRAD_BATCH]])
    return ev.traces, logits.data.dtype


def check_gradients(tally, cfg, params, batch):
    """Backward against central differences at each tensor's largest gradient."""
    images, labels = [r.image for r in batch], [r.label for r in batch]

    def loss_and_routes():
        logits, traces = model.forward(images, params, cfg)
        loss = model.total_loss(logits, labels, traces, cfg)
        return loss, [t.exit_depth.tolist() for t in traces]

    params.zero_grads()
    with tensor.Tape():
        loss, routes = loss_and_routes()
    tensor.backward(loss)

    def loss_at():
        loss, moved = loss_and_routes()
        return float(loss.data), moved

    for name, t in params.named().items():
        if name not in FD_PARAMS:
            continue
        i = int(np.argmax(np.abs(t.grad)))
        h = FD_STEP
        numeric, up, down = reference.central_difference(loss_at, t.data, i, h)
        while (up != routes or down != routes) and h > FD_STEP * 1e-4:
            h /= 10  # the step crossed a routing decision; the loss jumps there
            numeric, up, down = reference.central_difference(loss_at, t.data, i, h)
        tally.check(checks.grad_match, float(t.grad.flat[i]), numeric, f"d loss / d {name}[{i}]")
    params.zero_grads()


def timed_train(tally, gauge, cfg, train_set, ckpt):
    """Two epochs of ``train.train``, as ``morvit train`` runs it; (scaled s, result)."""
    gc.collect()
    seconds, result = gauge.measure(lambda: train.train(cfg, train_set, ckpt))
    tally.done(train_steps(cfg, train_set))
    return seconds, result


def check_trained(tally, train_set, ckpt, result):
    """The loss fell, and the checkpoint reloads to the last epoch's evaluation."""
    tally.check(checks.loss_decreased, [row.train_loss for row in result.rows])
    ev, _ = train.evaluate_checkpoint(ckpt, train_set)
    tally.done(len(train_set))
    last = result.rows[-1]
    tally.check(checks.identical, (last.train_acc, last.mean_exit_depth),
                (ev.accuracy, ev.mean_exit_depth), "reloaded checkpoint's evaluation")


def train_steps(cfg, train_set):
    return EPOCHS * -(-len(train_set) // cfg.batch_size)


def eval_passes(tally, gauge, cfg, params, holdout, seconds):
    """Scaled seconds of ``train.evaluate`` passes over the holdout, the path
    ``morvit eval`` runs, until ``seconds`` have passed."""
    gc.collect()
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(gauge.measure(lambda: train.evaluate(params, holdout, cfg))[0])
    tally.done(len(passes) * len(holdout))
    return passes


def end_to_end(tally, gauge, cfg, params, train_set, holdout, seconds, ckpt, setup_s):
    passes = eval_passes(tally, gauge, cfg, params, holdout, seconds / 2)
    gc.collect()
    lat = latencies(params, cfg, holdout, seconds / 2, gauge)
    tally.done(len(lat))
    train_s, result = timed_train(tally, gauge, cfg, train_set, ckpt)
    check_trained(tally, train_set, ckpt, result)
    return {
        "setup_s": (setup_s, "s"),
        "infer_img_s": (len(holdout) / statistics.median(passes), "img/s"),
        "infer1_ms": (1e3 * statistics.median(lat), "ms"),
        "train_img_s": (EPOCHS * len(train_set) / train_s, "img/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, tally, gauge, cfg, params, train_set, holdout, seconds, ckpt, traces):
    """Untraced then traced evaluation, traced training and reload."""
    setup_spans = tracer.summary()
    plain = eval_passes(tally, gauge, cfg, params, holdout, seconds / 2)

    for module, attr, name in LAYER_SPANS:
        tracer.wrap(module, attr, name)
    tape_nodes = []

    class TracedTape(tensor.Tape):
        def __enter__(self):
            tracer.begin("tensor.tape")
            return super().__enter__()

        def __exit__(self, *exc):
            tape_nodes.append(len(self.nodes))
            tracer.end()
            return super().__exit__(*exc)

    tracer.patch(train, "Tape", TracedTape)
    gc_counts = {"gen2": 0, "collected": 0}

    def on_gc(phase, info):
        if phase == "stop":
            gc_counts["gen2"] += info["generation"] == 2
            gc_counts["collected"] += info["collected"]

    try:
        with tracer.span("infer") as infer_root:
            traced = eval_passes(tally, gauge, cfg, params, holdout, seconds / 2)
        gc.callbacks.append(on_gc)
        try:
            with tracer.span("train") as train_root:
                result = train.train(cfg, train_set, ckpt)
            tally.done(train_steps(cfg, train_set))
        finally:
            gc.callbacks.remove(on_gc)
        with tracer.span("reload") as reload_root:
            check_trained(tally, train_set, ckpt, result)
    finally:
        tracer.restore()

    inf = tracer.summary(infer_root)
    tr = tracer.summary(train_root)
    reload = tracer.summary(reload_root)
    n_inf = len(traced) * len(holdout)
    n_train = EPOCHS * len(train_set)
    steps = train_steps(cfg, train_set)

    def per_image(scale, *names, field=2):  # field 0: calls, 1: inclusive s, 2: self s
        return scale * sum(inf.get(n, (0, 0.0, 0.0))[field] for n in names) / n_inf

    ms, us = 1e3, 1e6
    flops = statistics.fmean(profiler.count_flops(cfg, t).total_flops for t in traces)
    saves, save_s, _ = tr["checkpoint.save"]
    load_s = reload["checkpoint.load"][1] + reload["checkpoint.params"][1]
    return {
        "data.synth_ms_per_img": (
            ms * setup_spans["data.synth"][1] / (len(train_set) + len(holdout)), "ms"),
        "backbone.embed_us_per_img": (per_image(us, "backbone.patchify", "backbone.embed"), "us"),
        "backbone.encoder_block_ms_per_img": (per_image(ms, "backbone.encoder_block"), "ms"),
        "backbone.encoder_block_calls_per_img": (
            per_image(1, "backbone.encoder_block", field=0), "count"),
        "routing.recursion_self_ms_per_img": (per_image(ms, "routing.run_recursion"), "ms"),
        "routing.score_select_us_per_img": (
            per_image(us, "routing.routing_score", "routing.select_active"), "us"),
        "routing.gather_scatter_us_per_img": (
            per_image(us, "routing.gather_rows", "routing.scatter_rows"), "us"),
        "routing.token_choice_assign_us_per_img": (
            per_image(us, "routing.token_choice_assign"), "us"),
        "routing.attended_rows_per_img": (
            statistics.fmean(sum(t.step_attended) for t in traces), "count"),
        "profiler.flops_per_img": (flops, "FLOP"),
        "profiler.us_per_mflop": (
            us * statistics.median(plain) / len(holdout) / (flops / 1e6), "us"),
        "tensor.tape_nodes_per_img": (sum(tape_nodes) / n_train, "count"),
        "model.forward_ms_per_img": (
            ms * (tr["tensor.tape"][1] - tr["model.total_loss"][1]) / n_train, "ms"),
        "tensor.backward_ms_per_img": (ms * tr["tensor.backward"][1] / n_train, "ms"),
        "model.loss_ms_per_step": (ms * tr["model.total_loss"][1] / steps, "ms"),
        "optim.adam_ms_per_step": (ms * tr["optim.adam_step"][1] / steps, "ms"),
        "train.evaluate_ms_per_epoch": (ms * tr["train.evaluate"][1] / EPOCHS, "ms"),
        "checkpoint.save_ms": (ms * save_s / saves, "ms"),
        "checkpoint.load_ms": (ms * load_s, "ms"),
        "checkpoint.bytes": (os.path.getsize(ckpt), "B"),
        "tensor.gc_gen2_per_epoch": (gc_counts["gen2"] / EPOCHS, "count"),
        "tensor.gc_collected_objects_per_step": (gc_counts["collected"] / steps, "count"),
        "trace.overhead_pct": (
            100 * (statistics.median(traced) / statistics.median(plain) - 1), "%"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    tracer = Tracer() if args.trace else None
    cfg, train_set, holdout, params, setup_s = setup(args.workload, args.seed, tracer)
    tally = Tally()
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        ckpt = os.path.join(tmp, "train.ckpt")
        traces, dtype = check_outputs(tally, cfg, params, holdout, args.seed, tmp)
        gauge = Gauge(args.workload, cfg, params, train_set)
        if tracer:
            metrics = per_layer(tracer, tally, gauge, cfg, params, train_set, holdout,
                                args.seconds, ckpt, traces)
        else:
            metrics = end_to_end(tally, gauge, cfg, params, train_set, holdout,
                                 args.seconds, ckpt, setup_s)

    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer:
        tracer.write(stem + ".spans.jsonl")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(stem + ".result.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                       threads=os.environ["MORVIT_THREADS"], dtype=str(dtype),
                       gauge_nominal_s=gauge.nominal_s,
                       gauge_probe_median_s=statistics.median(gauge.readings),
                       problems=tally.problems), fh, indent=1)
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} MORVIT_THREADS=1 logits dtype={dtype} "
          f"train={len(train_set)} holdout={len(holdout)} images")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"attempted={tally.attempted} failed={tally.failed} correct={result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
