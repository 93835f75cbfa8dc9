"""FLOPs accounting, depth-map export, degenerate-routing detection, throughput.

Conventions: one multiply-accumulate = 2 FLOPs, and the headline numbers
count matrix-product MACs only. Softmax, layernorm, activations and the
gate multiplies go into ``aux_flops`` (a documented per-element estimate),
never into the headline total. All headline counters are exact Python
integers.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ShapeError


@dataclass
class FlopsReport:
    per_step_flops: list      # attention + mlp + router share, per step
    attention_flops: int
    mlp_flops: int
    router_flops: int
    embed_flops: int
    head_flops: int
    total_flops: int
    aux_flops: int            # estimate of the excluded elementwise work

    def breakdown(self):
        return {
            "attention": self.attention_flops,
            "mlp": self.mlp_flops,
            "router": self.router_flops,
            "embed": self.embed_flops,
            "head": self.head_flops,
        }


def count_flops(cfg, trace) -> FlopsReport:
    """Exact headline FLOPs for one forward pass described by a trace.

    Per step with M rows in the block: attention 2*(4*M*D^2 + 2*M^2*D),
    MLP 2*(2*M*D*mlp). Router: 2*A*D per expert-choice step over A scored
    tokens; token-choice pays its one-shot 2*N*D*R predictor inside step 1.
    Embed: 2*N*(P^2*C)*D. Head: 2*D*num_classes.
    """
    d, mlp = cfg.hidden, cfg.mlp_size
    steps = len(trace.step_attended)
    if trace.num_patches != cfg.num_patches:
        raise ShapeError(
            f"trace has {trace.num_patches} patches, config expects {cfg.num_patches}"
        )
    attention = mlp_total = router = 0
    per_step = []
    aux = 0
    for i in range(steps):
        m = trace.step_attended[i]
        att = 2 * (4 * m * d * d + 2 * m * m * d)
        ff = 2 * (2 * m * d * mlp)
        ro = 0
        if trace.mode == "expert_choice":
            ro = 2 * trace.step_scored[i] * d
        elif trace.mode == "token_choice" and i == 0:
            ro = 2 * trace.num_patches * d * cfg.max_recursion
        attention += att
        mlp_total += ff
        router += ro
        per_step.append(att + ff + ro)
        # excluded elementwise work, which the fused sublayers do in place
        # and count_macs never sees: two layernorms (~8/elem each), the
        # scaled softmax (~5/elem), GELU's ndtr (~8/elem), and the bias
        # adds, residuals and gate together (~4 per row element)
        aux += 8 * 2 * m * d + 5 * m * m * cfg.heads + 8 * m * mlp + 4 * m * d
    embed_flops = 2 * trace.num_patches * cfg.patch_dim * d
    head_flops = 2 * d * cfg.num_classes
    total = attention + mlp_total + router + embed_flops + head_flops
    return FlopsReport(
        per_step_flops=per_step,
        attention_flops=attention,
        mlp_flops=mlp_total,
        router_flops=router,
        embed_flops=embed_flops,
        head_flops=head_flops,
        total_flops=total,
        aux_flops=aux,
    )


@dataclass
class DepthMap:
    grid: np.ndarray      # (grid_h, grid_w) int exit depths in patch order
    histogram: dict       # depth -> count, depths 1..R


def depth_map_from_trace(trace, grid_h, grid_w) -> DepthMap:
    depths = trace.patch_depths()
    if depths.size != grid_h * grid_w:
        raise ShapeError(
            f"{depths.size} patch depths do not fill a {grid_h}x{grid_w} grid"
        )
    return DepthMap(
        grid=depths.reshape(grid_h, grid_w),
        histogram=trace.depth_histogram(),
    )


def export_depth_map(trace, grid_h, grid_w, path, fmt="csv", config_echo=None):
    """Write the per-patch exit depths as a CSV grid or a JSON document.

    CSV is the bare row-major integer grid. JSON carries the grid, the
    depth histogram and an echo of the run's routing settings.
    """
    dm = depth_map_from_trace(trace, grid_h, grid_w)
    if fmt == "csv":
        text = "\n".join(",".join(str(int(v)) for v in row) for row in dm.grid) + "\n"
    elif fmt == "json":
        doc = {
            "grid_h": int(grid_h),
            "grid_w": int(grid_w),
            "grid": [[int(v) for v in row] for row in dm.grid],
            "histogram": {str(k): int(v) for k, v in dm.histogram.items()},
            "max_recursion": int(trace.max_steps),
            "beta": float(trace.beta),
            "routing_mode": trace.mode,
        }
        if config_echo:
            doc.update(config_echo)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        raise DataError(f"unknown depth-map format {fmt!r} (use csv or json)")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write depth map {path}: {exc}")
    return dm


def detect_degenerate(traces, threshold=0.95):
    """Flag routing collapse: >= threshold of all patch tokens exit at depth 1.

    The threshold is inclusive. Returns (degenerate, stats).
    """
    if not traces:
        raise DataError("detect_degenerate needs at least one trace")
    total = 0
    depth_one = 0
    for t in traces:
        depths = t.patch_depths()
        total += depths.size
        depth_one += int((depths == 1).sum())
    fraction = depth_one / total
    return fraction >= threshold, {
        "fraction_depth_one": fraction,
        "tokens": total,
        "depth_one": depth_one,
        "threshold": threshold,
    }


# OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it, so a later
# change to the environment does not apply. This is the value as it stood
# when this module loaded numpy, after the CLI's thread cap (None: unset, so
# OpenBLAS picks its own count).
_BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS")

# Each timed repeat runs the batch forward again until it has taken at least
# this long, so one repeat holds several forwards and a short stall moves its
# rate little. Longer repeats stretch a call over more of the host's speed
# phases: over 105 pairs of 5-repeat calls on 8 desk-bench images on a shared
# 2-core host, 9 pair ratios fell outside [0.75, 1.25] at 0.2 s and 1 at 0.05 s.
MIN_REPEAT_S = 0.05


def bench_throughput(params, cfg, images, repeats=5):
    """Median images/second over timed repeats, after one warmup pass.

    A repeat loops the batch forward for at least ``MIN_REPEAT_S`` seconds.
    Reports the raw per-repeat rates, their variance, the precision of the
    logits computed (``f64`` for float64) and the BLAS thread setting that
    applied, so numbers are comparable across runs.
    """
    from .model import forward  # local import keeps profiler light

    if repeats < 3:
        raise ValueError("bench_throughput needs repeats >= 3")
    logits, _ = forward(images, params, cfg)  # warmup
    samples = []
    for _ in range(repeats):
        passes = 0
        t0 = time.perf_counter()
        while True:
            forward(images, params, cfg)
            passes += 1
            dt = time.perf_counter() - t0
            if dt >= MIN_REPEAT_S:
                break
        samples.append(passes * len(images) / dt)
    med = float(np.median(samples))
    var = float(np.var(samples))
    return {
        "images_per_second": med,
        "variance": var,
        "samples": samples,
        "repeats": repeats,
        "batch": len(images),
        "precision": f"f{logits[0].dtype.itemsize * 8}",
        "threads": _BLAS_THREADS,
    }
