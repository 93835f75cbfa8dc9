"""Output checks of the benchmark. Each raises ``CheckFailed`` on a wrong output."""

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with what it should be."""


# The reference composes the same f64 arithmetic in another order, so logits
# agree to a few ulps of their magnitude; a wrong gate, row or weight is off
# by many orders more.
LOGITS_RTOL = 1e-9
# Central differences with h = 1e-5 in f64 have a truncation error near
# h^2 and a rounding error near eps / h, both far below this.
GRAD_RTOL, GRAD_ATOL = 1e-5, 1e-9


def logits_match(reference, got):
    reference, got = np.asarray(reference).ravel(), np.asarray(got).ravel()
    err = np.max(np.abs(reference - got))
    if not err <= LOGITS_RTOL * max(1.0, np.max(np.abs(reference))):
        raise CheckFailed(f"logits differ from the reference by {err:.3e}")


def identical(expected, got, what):
    if not np.array_equal(np.asarray(expected), np.asarray(got)):
        raise CheckFailed(f"{what}: {got!r} is not bit-identical to {expected!r}")


def kept_counts(trace, beta):
    """Every expert-choice step keeps max(1, round((1-beta)*A)) of A tokens."""
    active = trace.num_patches
    if len(trace.step_scored) != trace.max_steps:
        raise CheckFailed(f"{len(trace.step_scored)} steps, expected {trace.max_steps}")
    for i, (scored, kept, attended) in enumerate(
        zip(trace.step_scored, trace.step_selected, trace.step_attended)
    ):
        want = max(1, round((1.0 - beta) * active))
        if scored != active or kept != want or attended != kept + 1:
            raise CheckFailed(
                f"step {i + 1}: scored {scored}, kept {kept}, attended {attended}; "
                f"expected {active}, {want}, {want + 1}"
            )
        active = kept


def depth_histogram(trace, static):
    """Patch depths lie in 1..R and their histogram sums to N; static runs all R."""
    depths = trace.patch_depths()
    if depths.min() < 1 or depths.max() > trace.max_steps:
        raise CheckFailed(f"patch depths {depths} are not all in 1..{trace.max_steps}")
    hist = trace.depth_histogram()
    if sum(hist.values()) != trace.num_patches:
        raise CheckFailed(f"histogram sums to {sum(hist.values())}, not {trace.num_patches}")
    if static and hist[trace.max_steps] != trace.num_patches:
        raise CheckFailed(f"static routing gave depths {hist}")


def macs_match(macs, total_flops):
    if 2 * macs != total_flops:
        raise CheckFailed(f"2 x {macs} instrumented MACs != {total_flops} counted FLOPs")


def grad_match(analytic, numeric, what):
    if not abs(analytic - numeric) <= GRAD_RTOL * max(abs(analytic), abs(numeric)) + GRAD_ATOL:
        raise CheckFailed(f"{what}: backward {analytic!r}, central difference {numeric!r}")


def loss_decreased(losses):
    if not losses[-1] < losses[0]:
        raise CheckFailed(f"training loss went from {losses[0]!r} to {losses[-1]!r}")
