import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morvit.errors import ShapeError
from morvit.tensor import (
    Tape,
    Tensor,
    add,
    backward,
    concat_rows,
    count_macs,
    cross_entropy,
    gather_rows,
    matmul,
    mean,
    mul,
    scatter_rows,
    sigmoid,
    softmax_rows,
    split_heads,
    tsum,
)
from oracles import (
    composed_task_loss,
    fd_gradient,
    gelu,
    grad_check,
    layernorm,
    max_rel_err,
    merge_heads,
    transpose,
)


def rand(shape, seed=0, scale=1.0):
    gen = np.random.Generator(np.random.Philox(seed))
    return gen.normal(0.0, scale, size=shape)


# ---------------------------------------------------------------- matmul

def test_matmul_identity():
    out = matmul(Tensor(np.eye(2)), Tensor([[5.0, 6.0], [7.0, 8.0]]))
    assert np.array_equal(out.data, [[5.0, 6.0], [7.0, 8.0]])


def test_matmul_inner_product():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[11.0]])


def test_matmul_shape_error_reports_both_shapes():
    with pytest.raises(ShapeError) as exc:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_matmul_gradcheck():
    a = Tensor(rand((3, 4), seed=1), requires_grad=True)
    b = Tensor(rand((4, 2), seed=2), requires_grad=True)
    err = grad_check(lambda: tsum(matmul(a, b)), [a, b])
    assert err < 1e-6


def test_matmul_stack_gradcheck():
    a = Tensor(rand((2, 3, 4), seed=36), requires_grad=True)
    b = Tensor(rand((2, 5, 4), seed=37), requires_grad=True)
    w = Tensor(rand((2, 3, 5), seed=38))
    err = grad_check(lambda: tsum(mul(matmul(a, transpose(b)), w)), [a, b])
    assert err < 1e-6


def test_matmul_stack_counts_every_head():
    a, b = Tensor(rand((3, 2, 4), seed=39)), Tensor(rand((3, 4, 5), seed=40))
    with count_macs() as counter:
        out = matmul(a, b)
    assert counter.macs == 3 * 2 * 4 * 5
    for i in range(3):
        assert np.array_equal(out.data[i], a.data[i] @ b.data[i])


def test_matmul_stack_shape_errors():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5))))


# ---------------------------------------------------------------- add / broadcasting

def test_add_scalar_identity():
    out = add(Tensor([1.0, 2.0, 3.0]), 0.0)
    assert np.array_equal(out.data, [1.0, 2.0, 3.0])


def test_add_row_broadcast():
    a = rand((2, 3), seed=3)
    row = np.array([1.0, 2.0, 3.0])
    out = add(Tensor(a), Tensor(row))
    assert np.allclose(out.data, a + row)


def test_add_non_broadcastable():
    with pytest.raises(ShapeError):
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_add_broadcast_gradcheck():
    a = Tensor(rand((2, 3), seed=4), requires_grad=True)
    b = Tensor(rand((3,), seed=5), requires_grad=True)
    err = grad_check(lambda: tsum(mul(add(a, b), add(a, b))), [a, b])
    assert err < 1e-6


# ---------------------------------------------------------------- softmax

def test_softmax_uniform():
    out = softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
    assert np.allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)


def test_softmax_no_overflow():
    out = softmax_rows(Tensor([[1000.0, 0.0]]))
    assert np.isfinite(out.data).all()
    assert out.data[0, 0] > 1.0 - 1e-12 and out.data[0, 1] < 1e-12


@given(st.lists(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
                min_size=1, max_size=5).filter(lambda r: len({len(x) for x in r}) == 1))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_sum_to_one(rows):
    out = softmax_rows(Tensor(np.array(rows)))
    assert np.all(np.abs(out.data.sum(axis=1) - 1.0) <= 1e-12)


def test_softmax_stack_rows_sum_to_one():
    x = rand((3, 4, 5), seed=41, scale=20.0)
    out = softmax_rows(Tensor(x))
    assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) <= 1e-12)
    for i in range(3):
        assert np.array_equal(out.data[i], softmax_rows(Tensor(x[i])).data)


def test_softmax_gradcheck():
    x = Tensor(rand((3, 4), seed=6), requires_grad=True)
    w = Tensor(rand((3, 4), seed=7))
    err = grad_check(lambda: tsum(mul(softmax_rows(x), w)), [x])
    assert err < 1e-6


# ---------------------------------------------------------------- layernorm

def test_layernorm_constant_row_is_zero():
    out = layernorm(Tensor([[5.0, 5.0, 5.0, 5.0]]), Tensor(np.ones(4)), Tensor(np.zeros(4)))
    assert np.allclose(out.data, 0.0)


def test_layernorm_unit_variance_limit():
    out = layernorm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-14)
    assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-7)


def test_layernorm_row_means_near_zero():
    x = Tensor(rand((5, 8), seed=8, scale=3.0))
    out = layernorm(x, Tensor(rand((8,), seed=9)), Tensor(np.zeros(8)))
    # bias is zero, so each output row is a scaled zero-mean vector only when
    # gain is constant; use gain=1 for the mean check
    out1 = layernorm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
    assert np.all(np.abs(out1.data.mean(axis=1)) < 1e-10)
    assert np.isfinite(out.data).all()


def test_layernorm_gradcheck():
    x = Tensor(rand((3, 5), seed=10), requires_grad=True)
    g = Tensor(rand((5,), seed=11), requires_grad=True)
    b = Tensor(rand((5,), seed=12), requires_grad=True)
    w = Tensor(rand((3, 5), seed=13))
    err = grad_check(lambda: tsum(mul(layernorm(x, g, b), w)), [x, g, b])
    assert err < 1e-6


# ---------------------------------------------------------------- elementwise

def test_sigmoid_at_zero():
    assert sigmoid(Tensor([0.0])).data[0] == 0.5


def test_sigmoid_symmetry():
    xs = rand((20,), seed=14, scale=4.0)
    total = sigmoid(Tensor(xs)).data + sigmoid(Tensor(-xs)).data
    assert np.allclose(total, 1.0, atol=1e-15)


def test_sigmoid_saturation():
    assert sigmoid(Tensor([-50.0])).data[0] < 1e-20


def test_gelu_gradcheck():
    x = Tensor(rand((4, 3), seed=15), requires_grad=True)
    w = Tensor(rand((4, 3), seed=16))
    err = grad_check(lambda: tsum(mul(gelu(x), w)), [x])
    assert err < 1e-6


@pytest.mark.parametrize("seed", range(20))
def test_elementwise_grads_over_seeds(seed):
    x = Tensor(rand((3, 3), seed=100 + seed), requires_grad=True)
    w = Tensor(rand((3, 3), seed=200 + seed))
    for op in (gelu, sigmoid, softmax_rows):
        err = grad_check(lambda: tsum(mul(op(x), w)), [x])
        assert err < 1e-6, f"{op.__name__} seed {seed}: {err}"


# ---------------------------------------------------------------- gather / scatter

def test_gather_identity_permutation():
    x = Tensor(rand((5, 3), seed=17))
    out = gather_rows(x, np.arange(5))
    assert np.array_equal(out.data, x.data)


def test_gather_empty():
    out = gather_rows(Tensor(rand((5, 3), seed=18)), [])
    assert out.shape == (0, 3)


def test_gather_out_of_range():
    with pytest.raises(IndexError):
        gather_rows(Tensor(np.zeros((3, 2))), [3])


def test_gather_backward_counts_multiplicity():
    x = Tensor(rand((4, 2), seed=19), requires_grad=True)
    idx = [0, 2, 2, 2, 3]
    with Tape():
        out = tsum(gather_rows(x, idx))
    backward(out)
    counts = np.array([idx.count(i) for i in range(4)], dtype=float)
    assert np.array_equal(x.grad, np.repeat(counts[:, None], 2, axis=1))


@pytest.mark.parametrize("idx", [
    [3, 0, 3, 5, 1, 0, 3, 2],   # repeats interleaved with unique rows
    [4, 1, 0, 2],               # all unique
    [2, 2, 2],                  # one row only
    [],
])
def test_gather_backward_matches_zero_filled_add_at(idx):
    x = Tensor(rand((6, 4), seed=40), requires_grad=True)
    g = rand((len(idx), 4), seed=41)
    with Tape() as tape:
        gather_rows(x, idx)
    (dx,) = tape.nodes[-1].backfn(g)
    expected = np.zeros((6, 4))
    np.add.at(expected, np.asarray(idx, dtype=np.intp), g)
    assert dx.shape == expected.shape
    assert dx.tobytes() == expected.tobytes()


def test_gather_backward_first_occurrence_is_a_plain_write():
    # a row named once, or first, takes g's row as is, so -0.0 keeps its sign
    x = Tensor(np.ones((4, 1)), requires_grad=True)
    g = np.array([[-0.0], [-0.0], [1.0], [-0.0]])
    with Tape() as tape:
        gather_rows(x, [3, 1, 1, 0])
    (dx,) = tape.nodes[-1].backfn(g)
    assert dx.tobytes() == np.array([[-0.0], [1.0], [0.0], [-0.0]]).tobytes()


@given(st.permutations(list(range(6))))
@settings(max_examples=30, deadline=None)
def test_gather_gather_inverse_identity(perm):
    x = Tensor(rand((6, 2), seed=20))
    perm = np.array(perm)
    inverse = np.argsort(perm)
    out = gather_rows(gather_rows(x, perm), inverse)
    assert np.array_equal(out.data, x.data)


def test_scatter_rows_roundtrip_and_grads():
    base = Tensor(rand((5, 3), seed=21), requires_grad=True)
    rows = Tensor(rand((2, 3), seed=22), requires_grad=True)
    idx = np.array([1, 3])
    with Tape():
        out = scatter_rows(base, idx, rows)
        loss = tsum(mul(out, out))
    expected = base.data.copy()
    expected[idx] = rows.data
    assert np.array_equal(out.data, expected)
    backward(loss)
    assert np.array_equal(base.grad[idx], np.zeros((2, 3)))
    assert np.allclose(rows.grad, 2 * rows.data)


def test_scatter_rejects_duplicate_indices():
    with pytest.raises(IndexError):
        scatter_rows(Tensor(np.zeros((4, 2))), [1, 1], Tensor(np.zeros((2, 2))))


# ---------------------------------------------------------------- structural ops

def test_split_merge_heads_inverse():
    x = Tensor(rand((3, 6), seed=23), requires_grad=True)
    heads = split_heads(x, 2)
    assert heads.shape == (2, 3, 3)
    assert np.array_equal(heads.data[1], x.data[:, 3:6])
    assert np.array_equal(merge_heads(heads).data, x.data)
    with pytest.raises(ShapeError):
        split_heads(x, 4)
    rows = Tensor(rand((6, 6), seed=22))
    stack = split_heads(rows, 2, segments=3)  # 3 segments of 2 rows
    assert stack.shape == (6, 2, 3)
    assert np.array_equal(stack.data[3], rows.data[2:4, 3:6])  # segment 1, head 1
    assert np.array_equal(merge_heads(stack, segments=3).data, rows.data)
    with pytest.raises(ShapeError):
        split_heads(rows, 2, segments=4)
    rows = concat_rows([Tensor(rand((1, 4), seed=24)), Tensor(rand((2, 4), seed=25))])
    assert rows.shape == (3, 4)


def test_split_merge_heads_gradcheck():
    x = Tensor(rand((3, 6), seed=42), requires_grad=True)
    w = Tensor(rand((3, 6), seed=43))
    err = grad_check(lambda: tsum(mul(merge_heads(softmax_rows(split_heads(x, 3))), w)), [x])
    assert err < 1e-6
    y = Tensor(rand((4, 6), seed=44), requires_grad=True)
    v = Tensor(rand((4, 6), seed=45))
    err = grad_check(
        lambda: tsum(mul(merge_heads(softmax_rows(split_heads(y, 3, 2)), 2), v)), [y])
    assert err < 1e-6


def test_transpose_gradcheck():
    x = Tensor(rand((2, 4), seed=26), requires_grad=True)
    w = Tensor(rand((4, 2), seed=27))
    err = grad_check(lambda: tsum(mul(transpose(x), w)), [x])
    assert err < 1e-6


# ---------------------------------------------------------------- backward

def test_backward_sum_gives_ones():
    w = Tensor(rand((3, 2), seed=28), requires_grad=True)
    with Tape():
        loss = tsum(w)
    backward(loss)
    assert np.array_equal(w.grad, np.ones((3, 2)))


def test_backward_quadratic_identity():
    w = Tensor(rand((4,), seed=29), requires_grad=True)
    with Tape():
        loss = mul(tsum(mul(w, w)), 0.5)
    backward(loss)
    assert np.allclose(w.grad, w.data, atol=1e-15)


def test_backward_rejects_non_scalar():
    w = Tensor(rand((3,), seed=30), requires_grad=True)
    with Tape():
        out = mul(w, 2.0)
    with pytest.raises(ShapeError):
        backward(out)


def test_backward_requires_tape():
    w = Tensor(rand((3,), seed=31), requires_grad=True)
    out = tsum(w)  # no tape active: nothing recorded
    with pytest.raises(RuntimeError):
        backward(out)


def test_backward_deterministic_bitwise():
    def run():
        w = Tensor(rand((6, 6), seed=32), requires_grad=True)
        x = Tensor(rand((6, 6), seed=33))
        with Tape():
            out = softmax_rows(matmul(w, Tensor(x.data)))
            loss = tsum(mul(out, out))
        backward(loss)
        return w.grad.tobytes()

    assert run() == run()


def test_cross_entropy_examples_and_grad():
    c = 10
    uniform = cross_entropy([Tensor(np.zeros((1, c)))], [3])
    assert abs(float(uniform.data) - np.log(c)) < 1e-12
    hot = np.zeros((1, c))
    hot[0, 4] = 50.0
    assert float(cross_entropy([Tensor(hot)], [4]).data) < 1e-20
    x = Tensor(rand((1, c), seed=34), requires_grad=True)
    y = Tensor(rand((1, c), seed=40), requires_grad=True)
    err = grad_check(lambda: cross_entropy([x, y], [2, 7]), [x, y])
    assert err < 1e-6
    with pytest.raises(IndexError):
        cross_entropy([Tensor(np.zeros((1, 3)))], [3])


@pytest.mark.parametrize("batch", [1, 8])
def test_cross_entropy_matches_per_row_oracle_bytewise(batch):
    labels = [int(lb) for lb in np.arange(batch) * 7 % 10]

    def run(loss_fn):
        # at batch 8 numpy's pairwise sum of these rows' terms differs from
        # the sum in batch order, so a reordered sum shows
        rows = [Tensor(rand((1, 10), seed=80 + i, scale=4.0), requires_grad=True)
                for i in range(batch)]
        with Tape():
            loss = loss_fn(rows, labels)
        backward(loss)
        return [loss.data.tobytes()] + [r.grad.tobytes() for r in rows]

    assert run(cross_entropy) == run(composed_task_loss)


def test_cross_entropy_rejects_bad_labels():
    rows = [Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4)))]
    for labels in ([0, 4], [-1, 0], [0], [0, 1, 2]):
        with pytest.raises(IndexError):
            cross_entropy(rows, labels)
    with pytest.raises(IndexError):
        cross_entropy([], [])


def test_mean_matches_numpy():
    x = Tensor(rand((4, 5), seed=35))
    assert abs(float(mean(x).data) - x.data.mean()) < 1e-15


def fd_check(build_loss, params):
    with Tape():
        loss = build_loss()
    backward(loss)
    numeric = fd_gradient(lambda: float(build_loss().data), params)
    return max(max_rel_err(p.grad, n) for p, n in zip(params, numeric))


def test_backward_fan_out_of_three():
    # h and w each feed three consumers: adopt, allocate, then add in place
    w = Tensor(rand((3, 4), seed=36), requires_grad=True)
    c = Tensor(rand((3, 4), seed=37))

    def loss():
        h = mul(w, c)
        return tsum(add(mul(h, h), add(h, mul(mul(w, w), -1.0))))

    assert fd_check(loss, [w]) < 1e-6


def test_backward_add_to_itself():
    x = Tensor(rand((2, 5), seed=38), requires_grad=True)
    c = Tensor(rand((2, 5), seed=39))
    assert fd_check(lambda: tsum(mul(add(x, x), c)), [x]) < 1e-6


def test_leaves_of_one_add_get_independent_gradients():
    x = Tensor(rand((3, 2), seed=42), requires_grad=True)
    y = Tensor(rand((3, 2), seed=43), requires_grad=True)
    with Tape():
        loss = tsum(add(x, y))
    backward(loss)
    x.grad += 1.0
    x.grad[0, 0] = 7.0
    assert np.array_equal(y.grad, np.ones((3, 2)))


def test_backward_leaves_an_earlier_gradient_untouched():
    x = Tensor(rand((3, 2), seed=44), requires_grad=True)

    def replay():
        with Tape():
            loss = tsum(add(mul(x, 2.0), add(x, x)))
        backward(loss)

    replay()
    earlier = x.grad
    kept = earlier.copy()
    replay()  # no zero_grads: the new sum must not be added into `earlier`
    assert np.array_equal(earlier, kept)
    assert np.array_equal(x.grad, np.full((3, 2), 8.0))


def test_backward_releases_every_non_leaf_gradient():
    w = Tensor(rand((4, 3), seed=45), requires_grad=True)
    x = Tensor(rand((5, 4), seed=46))
    with Tape() as tape:
        h = gelu(matmul(x, w))
        loss = tsum(mul(gather_rows(h, [0, 2, 2]), gather_rows(softmax_rows(h), [2, 0, 0])))
        outputs = [node.output for node in tape.nodes]
    backward(loss)
    assert w.grad is not None
    assert len(outputs) > 4 and all(t.grad is None for t in outputs)


@pytest.mark.parametrize("op", [matmul, mul, add])
@pytest.mark.parametrize("const_side", [0, 1])
def test_constant_operand_gradient_is_not_computed(op, const_side):
    shape = (3, 3)
    operands = [Tensor(rand(shape, seed=47), requires_grad=True),
                Tensor(rand(shape, seed=48), requires_grad=True)]
    operands[const_side] = Tensor(operands[const_side].data)
    with Tape() as tape:
        out = op(*operands)
    grads = tape.nodes[-1].backfn(np.ones(out.shape))
    assert grads[const_side] is None
    assert grads[1 - const_side].shape == shape
