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
    per_step_attended: list
    per_step_scored: list
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
        # excluded elementwise work: norms (~8/elem), softmax (~5/elem),
        # gelu (~8/elem), residuals/bias adds (~1/elem), gates and scale
        aux += 8 * 2 * m * d + 5 * m * m * cfg.heads + 8 * m * mlp + 4 * m * d
    embed_flops = 2 * trace.num_patches * cfg.patch_dim * d
    head_flops = 2 * d * cfg.num_classes
    total = attention + mlp_total + router + embed_flops + head_flops
    return FlopsReport(
        per_step_attended=list(trace.step_attended),
        per_step_scored=list(trace.step_scored),
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


def bench_throughput(params, cfg, images, repeats=5):
    """Median images/second over timed repeats, after one warmup pass.

    Reports the raw per-repeat samples, their variance, the precision (always
    f64) and the worker-thread cap so numbers are comparable across runs.
    """
    from .model import forward  # local import keeps profiler light

    if repeats < 3:
        raise ValueError("bench_throughput needs repeats >= 3")
    forward(images, params, cfg)  # warmup
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        forward(images, params, cfg)
        dt = time.perf_counter() - t0
        samples.append(len(images) / dt)
    med = float(np.median(samples))
    var = float(np.var(samples))
    return {
        "images_per_second": med,
        "variance": var,
        "samples": samples,
        "repeats": repeats,
        "batch": len(images),
        "precision": "f64",
        "threads": int(os.environ.get("MORVIT_THREADS", "1")),
    }
