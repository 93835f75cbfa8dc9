"""Tests of the benchmark's own checks, reference forward and spans.

Run from the repository root: python3 -m pytest -q benchmark
"""

import os
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import reference  # noqa: E402
from checks import CheckFailed  # noqa: E402
from morvit import config, data, model  # noqa: E402
from spans import Tracer  # noqa: E402

VARIANTS = [
    ("expert_choice", True),
    ("expert_choice", False),
    ("token_choice", True),
    ("static", False),
]


def small(mode, share, seed=3):
    cfg = config.resolve_config("desk-synth").replace(
        routing_mode=mode, share_params=share, seed=seed, synth_holdout=4)
    params = model.init_params(cfg)
    images = [r.image for r in data.synth_holdout_set(cfg)[0]]
    return cfg, params, images


def arrays(params):
    return {name: t.data.copy() for name, t in params.named().items()}


@pytest.mark.parametrize("mode,share", VARIANTS)
def test_reference_forward_agrees_with_model(mode, share):
    cfg, params, images = small(mode, share)
    named = arrays(params)
    for image in images:
        (logits,), (trace,) = model.forward([image], params, cfg)
        ref_logits, ref_depths = reference.forward(image, named, cfg)
        checks.logits_match(ref_logits, logits.data)
        checks.identical(ref_depths, trace.exit_depth, "exit depths")
        checks.depth_histogram(trace, mode == "static")
        if mode == "expert_choice":
            checks.kept_counts(trace, cfg.beta)


@pytest.mark.parametrize("mode,share", VARIANTS)
def test_logits_check_fails_on_a_wrong_weight(mode, share):
    cfg, params, images = small(mode, share)
    named = arrays(params)
    named["block0.w1"][0, 0] += 1e-3
    (logits,), _ = model.forward([images[0]], params, cfg)
    with pytest.raises(CheckFailed):
        checks.logits_match(reference.forward(images[0], named, cfg)[0], logits.data)


def test_identical_fails_on_one_changed_depth():
    cfg, params, images = small("expert_choice", True)
    _, (trace,) = model.forward([images[0]], params, cfg)
    wrong = trace.exit_depth.copy()
    wrong[5] = wrong[5] % cfg.max_recursion + 1
    with pytest.raises(CheckFailed):
        checks.identical(trace.exit_depth, wrong, "exit depths")
    with pytest.raises(CheckFailed):
        checks.identical((0.5, 2.25), (0.5, 2.25 + 1e-15), "evaluation")


@pytest.mark.parametrize("field,step", [("step_selected", 1), ("step_attended", 0),
                                        ("step_scored", 2)])
def test_kept_counts_fails_on_a_wrong_count(field, step):
    cfg, params, images = small("expert_choice", True)
    _, (trace,) = model.forward([images[0]], params, cfg)
    getattr(trace, field)[step] += 1
    with pytest.raises(CheckFailed):
        checks.kept_counts(trace, cfg.beta)


def test_kept_counts_fails_on_a_missing_step():
    cfg, params, images = small("expert_choice", True)
    _, (trace,) = model.forward([images[0]], params, cfg)
    trace.step_scored.pop()
    with pytest.raises(CheckFailed):
        checks.kept_counts(trace, cfg.beta)


def test_depth_histogram_fails_on_wrong_depths():
    cfg, params, images = small("static", False)
    _, (trace,) = model.forward([images[0]], params, cfg)
    trace.exit_depth[3] = cfg.max_recursion - 1
    with pytest.raises(CheckFailed):
        checks.depth_histogram(trace, static=True)
    trace.exit_depth[3] = 0
    with pytest.raises(CheckFailed):
        checks.depth_histogram(trace, static=False)
    trace.exit_depth = trace.exit_depth[:-1]
    trace.exit_depth[3] = 1
    with pytest.raises(CheckFailed):
        checks.depth_histogram(trace, static=False)


def test_macs_check():
    checks.macs_match(10, 20)
    with pytest.raises(CheckFailed):
        checks.macs_match(10, 22)


def test_grad_check():
    checks.grad_match(0.25, 0.25 * (1 + 1e-7), "g")
    with pytest.raises(CheckFailed):
        checks.grad_match(0.25, 0.25 * 1.001, "g")
    with pytest.raises(CheckFailed):
        checks.grad_match(0.0, 1e-6, "g")


def test_loss_check():
    checks.loss_decreased([2.0, 1.5, 1.0])
    with pytest.raises(CheckFailed):
        checks.loss_decreased([1.0, 0.5, 1.0])


def test_central_difference_of_a_cubic():
    x = np.array([[1.5, -2.0]])
    grad, up, down = reference.central_difference(
        lambda: (float(x[0, 1] ** 3), x[0, 1] > -3), x, 1, 1e-4)
    assert grad == pytest.approx(12.0, rel=1e-7)
    assert up and down
    assert x[0, 1] == -2.0


def test_spans_self_time_and_restore():
    def inner():
        pass

    def outer():
        mod.inner()
        mod.inner()

    mod = types.SimpleNamespace(inner=inner, outer=outer)
    tracer = Tracer()
    tracer.wrap(mod, "inner", "in")
    tracer.wrap(mod, "outer", "out")
    with tracer.span("phase") as root:
        mod.outer()
    mod.outer()
    tracer.restore()
    assert mod.inner is inner and mod.outer is outer
    assert [s[0] for s in tracer.spans] == ["phase", "out", "in", "in", "out", "in", "in"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1, -1, 4, 4]
    under = tracer.summary(root)
    assert under["in"][0] == 2 and under["out"][0] == 1
    _, total, own = under["out"]
    out_span, in_spans = tracer.spans[1], tracer.spans[2:4]
    assert total == pytest.approx(out_span[2] - out_span[1])
    assert own == pytest.approx(total - sum(end - start for _, start, end, _ in in_spans))
    assert tracer.summary()["in"][0] == 4
