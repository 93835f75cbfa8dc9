"""Independent reference implementations used only by tests.

These deliberately avoid the library's tensor ops: plain numpy / Python
loops, composed differently from the code under test.
"""

import math

import numpy as np

from morvit.tensor import Tape, backward


def reference_backward(tape, loss):
    """The plain replay ``Tape.backward`` is checked against: every
    contribution goes into a zero-filled accumulator as a fresh sum, in the
    same reverse recording order, and every gradient is kept."""
    loss.grad = np.ones((), dtype=loss.data.dtype)
    for node in reversed(tape.nodes):
        if node.output.grad is None:
            continue
        for inp, gin in zip(node.inputs, node.backfn(node.output.grad)):
            if gin is None or not inp.requires_grad:
                continue
            if inp.grad is None:
                inp.grad = np.zeros_like(inp.data)
            inp.grad = inp.grad + gin
    tape.nodes = []


def fd_gradient(loss_fn, tensors, h=1e-5):
    """Central finite differences of loss_fn() w.r.t. each tensor's data."""
    grads = []
    for t in tensors:
        flat = t.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn()
            flat[i] = orig - h
            lm = loss_fn()
            flat[i] = orig
            g[i] = (lp - lm) / (2.0 * h)
        grads.append(g.reshape(t.data.shape))
    return grads


def max_rel_err(analytic, numeric, floor=1e-6):
    """Worst-case relative error; near-zero pairs compare absolutely."""
    worst = 0.0
    a = np.asarray(analytic).reshape(-1)
    b = np.asarray(numeric).reshape(-1)
    for x, y in zip(a, b):
        denom = max(abs(x), abs(y))
        err = abs(x - y) / denom if denom > floor else abs(x - y)
        worst = max(worst, err)
    return worst


def grad_check(build_loss, params, h=1e-5, floor=1e-6):
    """Analytic grads (fresh tape) vs central differences; returns worst err."""
    with Tape():
        loss = build_loss()
    for p in params:
        p.grad = None
    backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
    numeric = fd_gradient(lambda: float(build_loss().data), params, h=h)
    return max(max_rel_err(a, n, floor=floor) for a, n in zip(analytic, numeric))


def attention_block_reference(h, blk, eps=1e-5):
    """Pre-norm encoder block recomputed with explicit per-head loops."""

    def ln(x, g, b):
        out = np.empty_like(x)
        for i in range(x.shape[0]):
            row = x[i]
            mu = row.mean()
            var = ((row - mu) ** 2).mean()
            out[i] = (row - mu) / math.sqrt(var + eps) * g + b
        return out

    def gelu_ref(x):
        from scipy.special import erf

        return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))

    m, d = h.shape
    heads = blk.heads
    dh = d // heads
    a = ln(h, blk.ln1_g.data, blk.ln1_b.data)
    q = a @ blk.wq.data + blk.bq.data
    k = a @ blk.wk.data + blk.bk.data
    v = a @ blk.wv.data + blk.bv.data
    concat = np.zeros((m, d))
    for hd in range(heads):
        lo, hi = hd * dh, (hd + 1) * dh
        for i in range(m):
            scores = np.array([q[i, lo:hi] @ k[j, lo:hi] for j in range(m)]) / math.sqrt(dh)
            scores = scores - scores.max()
            w = np.exp(scores)
            w = w / w.sum()
            concat[i, lo:hi] = sum(w[j] * v[j, lo:hi] for j in range(m))
    h1 = h + concat @ blk.wo.data + blk.bo.data
    n = ln(h1, blk.ln2_g.data, blk.ln2_b.data)
    return h1 + gelu_ref(n @ blk.w1.data + blk.b1.data) @ blk.w2.data + blk.b2.data


def patchify_reference(image, p):
    """Hand loop over the patch grid, flattening pixels row-major."""
    h, w, c = image.shape
    rows = []
    for gr in range(h // p):
        for gc in range(w // p):
            vals = []
            for i in range(p):
                for j in range(p):
                    for ch in range(c):
                        vals.append(image[gr * p + i, gc * p + j, ch])
            rows.append(vals)
    return np.array(rows)
