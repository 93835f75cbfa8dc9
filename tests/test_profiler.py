import json
import os

import numpy as np
import pytest

from morvit.config import PRESETS
from morvit.data import synth_mixed_difficulty
from morvit.errors import DataError, ShapeError
from morvit.model import forward, init_params
from morvit.profiler import (
    bench_throughput,
    count_flops,
    depth_map_from_trace,
    detect_degenerate,
    export_depth_map,
)
from morvit.routing import RoutingTrace
from morvit.tensor import count_macs

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def tiny_cfg(**kw):
    return PRESETS["tiny-desk"].replace(**kw).validate()


def fake_trace(mode, beta, steps_attended, steps_scored, exit_depth, r_max, n):
    t = RoutingTrace(mode=mode, beta=beta, max_steps=r_max, num_patches=n)
    t.step_attended = list(steps_attended)
    t.step_scored = list(steps_scored)
    t.step_selected = [max(0, a - 1) for a in steps_attended]
    t.exit_depth = np.array(exit_depth)
    return t


# ---------------------------------------------------------------- count_flops

def test_zero_row_step_costs_nothing():
    cfg = tiny_cfg()
    t = fake_trace("expert_choice", 0.5, [0], [0], [cfg.max_recursion] + [1] * 4, 1, 4)
    report = count_flops(cfg, t)
    assert report.per_step_flops == [0]
    assert report.total_flops == report.embed_flops + report.head_flops


def test_static_trace_matches_instrumented_forward_exactly():
    cfg = tiny_cfg(routing_mode="static")
    params = init_params(cfg)
    rec = synth_mixed_difficulty(1, 1, cfg)[0][0]
    with count_macs() as c:
        _, (trace,) = forward([rec.image], params, cfg)
    report = count_flops(cfg, trace)
    assert 2 * c.macs == report.total_flops
    assert report.total_flops == sum(report.breakdown().values())
    assert report.total_flops == sum(report.per_step_flops) + report.embed_flops + report.head_flops


def test_expert_trace_matches_instrumented_forward_exactly():
    cfg = tiny_cfg()
    params = init_params(cfg)
    rec = synth_mixed_difficulty(1, 2, cfg)[0][0]
    with count_macs() as c:
        _, (trace,) = forward([rec.image], params, cfg)
    assert 2 * c.macs == count_flops(cfg, trace).total_flops


def test_token_choice_trace_matches_instrumented_forward_exactly():
    cfg = tiny_cfg(routing_mode="token_choice")
    params = init_params(cfg)
    rec = synth_mixed_difficulty(1, 3, cfg)[0][0]
    with count_macs() as c:
        _, (trace,) = forward([rec.image], params, cfg)
    assert 2 * c.macs == count_flops(cfg, trace).total_flops


def test_halving_active_tokens_strictly_decreases_total():
    cfg = tiny_cfg(max_recursion=2)
    full = fake_trace("expert_choice", 0.0, [5, 5], [4, 4], [2, 2, 2, 2, 2], 2, 4)
    halved = fake_trace("expert_choice", 0.5, [5, 3], [4, 2], [2, 1, 1, 2, 2], 2, 4)
    assert count_flops(cfg, halved).total_flops < count_flops(cfg, full).total_flops


def test_flops_monotone_in_beta():
    cfg0 = PRESETS["desk-synth"].validate()
    rec = synth_mixed_difficulty(1, 4, cfg0)[0][0]
    prev = None
    for beta in (0.0, 0.25, 0.5, 0.75, 0.9):
        cfg = cfg0.replace(beta=beta)
        params = init_params(cfg)
        _, (trace,) = forward([rec.image], params, cfg)
        total = count_flops(cfg, trace).total_flops
        if prev is not None:
            assert total <= prev
        prev = total


def test_count_flops_rejects_mismatched_trace():
    cfg = tiny_cfg()
    t = fake_trace("expert_choice", 0.5, [3], [2], [1] * 10, 1, 9)
    with pytest.raises(ShapeError):
        count_flops(cfg, t)


# ---------------------------------------------------------------- depth maps

def test_depth_map_r1_all_ones(tmp_path):
    cfg = tiny_cfg(max_recursion=1)
    params = init_params(cfg)
    rec = synth_mixed_difficulty(1, 5, cfg)[0][0]
    _, (trace,) = forward([rec.image], params, cfg)
    out = tmp_path / "map.json"
    dm = export_depth_map(trace, cfg.grid_h, cfg.grid_w, str(out), fmt="json")
    assert np.array_equal(dm.grid, np.ones((2, 2)))
    doc = json.loads(out.read_text())
    assert doc["histogram"] == {"1": 4}


def test_depth_map_csv_matches_golden(tmp_path):
    trace = fake_trace("expert_choice", 0.5, [3, 2], [4, 2], [3, 1, 2, 2, 3], 3, 4)
    out = tmp_path / "map.csv"
    export_depth_map(trace, 2, 2, str(out), fmt="csv")
    golden = open(os.path.join(GOLDEN, "depthmap_2x2.csv"), "rb").read()
    assert out.read_bytes() == golden


def test_depth_map_json_histogram_sums_to_n(tmp_path):
    cfg = PRESETS["desk-synth"].validate()
    params = init_params(cfg)
    for seed in range(3):
        rec = synth_mixed_difficulty(1, 10 + seed, cfg)[0][0]
        _, (trace,) = forward([rec.image], params, cfg)
        out = tmp_path / f"m{seed}.json"
        export_depth_map(trace, cfg.grid_h, cfg.grid_w, str(out), fmt="json")
        doc = json.loads(out.read_text())
        assert sum(doc["histogram"].values()) == cfg.num_patches
        flat = [v for row in doc["grid"] for v in row]
        assert sorted(flat) == sorted(int(d) for d in trace.patch_depths())


def test_depth_map_dimension_mismatch():
    trace = fake_trace("expert_choice", 0.5, [3], [4], [1, 1, 1, 1, 1], 1, 4)
    with pytest.raises(ShapeError):
        depth_map_from_trace(trace, 3, 3)


def test_depth_map_unknown_format(tmp_path):
    trace = fake_trace("expert_choice", 0.5, [3], [4], [1, 1, 1, 1, 1], 1, 4)
    with pytest.raises(DataError):
        export_depth_map(trace, 2, 2, str(tmp_path / "x"), fmt="xml")


# ---------------------------------------------------------------- degenerate detection

def collapsed_router_traces(n_traces=4):
    """token_choice with zero predictor signal and bias -50: the tie rule
    sends every token to depth 1."""
    cfg = tiny_cfg(routing_mode="token_choice", max_recursion=4)
    params = init_params(cfg)
    params.router.choice_w.data[:] = 0.0
    params.router.choice_b.data[:] = -50.0
    traces = []
    for seed in range(n_traces):
        rec = synth_mixed_difficulty(1, 20 + seed, cfg)[0][0]
        _, (trace,) = forward([rec.image], params, cfg)
        traces.append(trace)
    return traces


def test_collapsed_router_is_degenerate():
    traces = collapsed_router_traces()
    degenerate, stats = detect_degenerate(traces)
    assert degenerate
    assert stats["fraction_depth_one"] == 1.0


def test_static_full_depth_not_degenerate():
    cfg = tiny_cfg(routing_mode="static", max_recursion=4)
    params = init_params(cfg)
    rec = synth_mixed_difficulty(1, 30, cfg)[0][0]
    _, (trace,) = forward([rec.image], params, cfg)
    degenerate, stats = detect_degenerate([trace])
    assert not degenerate
    assert stats["fraction_depth_one"] == 0.0


def test_threshold_is_inclusive_at_boundary():
    # 19 of 20 patch tokens at depth 1: fraction exactly 0.95
    depths = [4] + [1] * 19 + [2]
    trace = fake_trace("expert_choice", 0.5, [1], [1], depths, 4, 20)
    degenerate, stats = detect_degenerate([trace], threshold=0.95)
    assert stats["fraction_depth_one"] == 0.95
    assert degenerate


def test_detect_needs_traces():
    with pytest.raises(DataError):
        detect_degenerate([])


# ---------------------------------------------------------------- throughput

def test_bench_records_exactly_requested_samples():
    cfg = tiny_cfg()
    params = init_params(cfg)
    images = [r.image for r in synth_mixed_difficulty(4, 40, cfg)[0]]
    bench = bench_throughput(params, cfg, images, repeats=3)
    assert len(bench["samples"]) == 3
    assert bench["precision"] == "f64"
    assert bench["batch"] == 4


def test_bench_rejects_too_few_repeats():
    cfg = tiny_cfg()
    params = init_params(cfg)
    images = [r.image for r in synth_mixed_difficulty(2, 41, cfg)[0]]
    with pytest.raises(ValueError):
        bench_throughput(params, cfg, images, repeats=2)


def test_bench_median_stable_within_bound():
    cfg = PRESETS["desk-bench"].validate()
    params = init_params(cfg)
    images = [r.image for r in synth_mixed_difficulty(8, 42, cfg)[0]]
    a = bench_throughput(params, cfg, images, repeats=5)
    b = bench_throughput(params, cfg, images, repeats=5)
    ratio = a["images_per_second"] / b["images_per_second"]
    assert 0.75 <= ratio <= 1.25

