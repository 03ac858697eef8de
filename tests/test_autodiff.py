import zlib

import numpy as np
import pytest

from laifo import autodiff as ad
from laifo.autodiff import apply, backward, finite_diff_check, input_gradient, tensor


def test_add_elementwise():
    out = apply("add", [tensor([1.0, 2.0]), tensor([3.0, 4.0])])
    assert np.allclose(out.values, [4.0, 6.0])


def test_sigmoid_at_zero():
    out = apply("sigmoid", [tensor([0.0])])
    assert np.allclose(out.values, [0.5])


def test_l2norm_hand_value():
    # sqrt(9 + 16) = 5
    out = apply("l2norm", [tensor([3.0, 4.0])])
    assert abs(out.values.item() - 5.0) < 1e-9


def test_backward_sum_of_squares():
    w = tensor([1.0, -2.0])
    root = apply("sum", [apply("square", [w])])
    (gw,) = backward(root, [w])
    assert np.allclose(gw, [2.0, -4.0])


def test_backward_sigmoid_slope():
    # sigma'(0) = 0.25, scaled by a constant factor
    x = tensor([0.0])
    root = apply("sum", [apply("sigmoid", [x]) * 3.0])
    (gx,) = backward(root, [x])
    assert np.allclose(gx, [0.75])


def test_backward_unreachable_param_is_zero():
    w = tensor([1.0, 2.0, 3.0])
    v = tensor([5.0])
    root = apply("sum", [apply("square", [v])])
    gw, gv = backward(root, [w, v])
    assert np.array_equal(gw, np.zeros(3))
    assert np.allclose(gv, [10.0])


def test_backward_rejects_non_scalar():
    w = tensor([1.0, 2.0])
    with pytest.raises(ValueError, match="scalar"):
        backward(apply("square", [w]), [w])


def test_input_gradient_linear():
    w = tensor([[2.0]])
    x = tensor([[3.0]])
    s = apply("sum", [apply("matmul", [w, x])])
    g = input_gradient(s, x)
    assert np.allclose(g.values, [[2.0]])


def test_input_gradient_of_quadratic_is_identity():
    x = tensor([1.0, 2.0])
    s = apply("sum", [apply("square", [x])]) * 0.5
    g = input_gradient(s, x)
    assert np.allclose(g.values, [1.0, 2.0])


def test_double_backprop_through_quadratic():
    # d/dx sum(square(d(0.5||x||^2)/dx)) = d/dx sum(x^2) = 2x
    x = tensor([1.0, 2.0])
    s = apply("sum", [apply("square", [x])]) * 0.5
    g = input_gradient(s, x)
    root = apply("sum", [apply("square", [g])])
    (gx,) = backward(root, [x])
    assert np.allclose(gx, [2.0, 4.0])


def test_input_gradient_requires_influence():
    x = tensor([1.0])
    y = tensor([2.0])
    s = apply("sum", [apply("square", [x])])
    with pytest.raises(ValueError, match="influence"):
        input_gradient(s, y)


def test_finite_diff_polynomial():
    w = tensor([0.3, -1.2, 2.0])
    err = finite_diff_check(lambda ps: apply("sum", [apply("square", [ps[0]])]), [w])
    assert err < 1e-6


def test_finite_diff_constant_function():
    w = tensor([1.0, 2.0])
    c = tensor([7.0])
    err = finite_diff_check(lambda ps: apply("sum", [c]), [w])
    assert err == 0.0


def test_log_offset_and_domain_error():
    x = tensor([1.0])
    out = apply("log", [x])
    assert abs(out.values.item() - np.log(1.0 + 1e-8)) < 1e-15
    with pytest.raises(ad.DomainError):
        apply("log", [tensor([-1.0])])


def test_shape_mismatch_names_kind():
    with pytest.raises(ad.ShapeMismatchError, match="matmul"):
        apply("matmul", [tensor(np.ones((2, 3))), tensor(np.ones((2, 3)))])
    with pytest.raises(ad.ShapeMismatchError, match="add"):
        apply("add", [tensor(np.ones(3)), tensor(np.ones(4))])


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown operation kind"):
        apply("conv9", [tensor([1.0])])


def _rand_nodes(rng, shapes):
    return [tensor(rng.standard_normal(s)) for s in shapes]


# One scalar-valued builder per operation kind (and per activation of the
# layer op, as "affine-<act>"), used for the per-kind finite-difference
# sweep below. slice and col2im nodes exist only inside a recorded
# gradient, and their own gradients are refused (see below).
_KIND_CASES = {
    "add": ([(3, 2), (3, 2)], lambda ps: apply("sum", [apply("add", ps)])),
    "mul": ([(3, 2), (3, 2)], lambda ps: apply("sum", [apply("mul", ps)])),
    "matmul": ([(2, 3), (3, 2)], lambda ps: apply("sum", [apply("matmul", ps)])),
    "affine": ([(4, 3), (3, 2), (2,)], lambda ps: apply("sum", [apply("affine", ps)])),
    "affine-relu": ([(4, 3), (3, 2), (2,)], lambda ps: apply("sum", [apply("square", [
        apply("affine", ps, act="relu")])])),
    "affine-tanh": ([(4, 3), (3, 2), (2,)], lambda ps: apply("sum", [apply("square", [
        apply("affine", ps, act="tanh")])])),
    "tanh": ([(5,)], lambda ps: apply("sum", [apply("tanh", ps)])),
    "sigmoid": ([(5,)], lambda ps: apply("sum", [apply("sigmoid", ps)])),
    "log": ([(5,)], lambda ps: apply("sum", [apply("log", [apply("square", ps) + 0.5])])),
    "square": ([(5,)], lambda ps: apply("sum", [apply("square", ps)])),
    "sum": ([(4, 3)], lambda ps: apply("sum", [apply("square", [apply("sum", ps, axis=1)])])),
    "mean": ([(4, 3)], lambda ps: apply("sum", [apply("square", [apply("mean", ps, axis=0)])])),
    "concat": ([(2, 2), (2, 3)],
               lambda ps: apply("sum", [apply("square", [apply("concat", ps, axis=1)])])),
    # along each axis, and over the whole array (axis=None)
    "l2norm": ([(4, 3)], lambda ps: apply("sum", [apply("l2norm", ps, axis=1)]) + apply(
        "sum", [apply("square", [apply("l2norm", ps, axis=0, keepdims=True)])])
        + apply("l2norm", ps)),
    # the second operand lies at least 1 above (first column) or below the
    # first, so no central difference straddles the kink
    "minimum": ([(3, 2), (3, 2)], lambda ps: apply("sum", [apply("square", [apply(
        "minimum", [ps[0], ps[0] + (apply("square", [ps[1]]) + 1.0) * np.array([1.0, -1.0])])])])),
    "transpose": ([(2, 3)], lambda ps: apply("sum", [apply("matmul", [
        apply("transpose", ps), np.arange(6.0).reshape(2, 3)])])),
    "div": ([(3, 2), (3, 2)],
            lambda ps: apply("sum", [apply("div", [ps[0], apply("square", [ps[1]]) + 0.5])])),
    # position-dependent weights catch a reshape that scrambles the order
    "reshape": ([(4, 3)], lambda ps: apply("sum", [apply("square", [
        apply("reshape", ps, shape=(2, 6))]) * np.arange(12.0).reshape(2, 6)])),
    # overlapping 3x3 stride-2 patches: col2im must accumulate the overlaps
    "im2col": ([(1, 5, 5, 2)], lambda ps: apply("sum", [apply("square", [
        apply("im2col", ps, kh=3, kw=3, stride=2)])])),
}


def test_every_public_kind_has_a_gradient_case():
    assert {case.partition("-")[0] for case in _KIND_CASES} == \
        set(ad._OPS) - {"slice", "col2im"}


def test_missing_attributes_rejected():
    with pytest.raises(ValueError, match="reshape needs shape="):
        apply("reshape", [tensor(np.ones((2, 3)))])


def test_unknown_activation_rejected():
    with pytest.raises(ValueError, match="unknown activation 'gelu'"):
        apply("affine", [tensor(np.ones((2, 3))), tensor(np.ones((3, 2))),
                         tensor(np.ones(2))], act="gelu")


@pytest.mark.parametrize("act", [None, "relu", "tanh"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_op_equals_affine_then_activation(act, dtype):
    # the activation runs in place on the affine output; its bits are those
    # of the separate ufunc call on a fresh array
    rng = np.random.default_rng(3)
    x, w, b = (rng.standard_normal(s).astype(dtype) for s in [(7, 5), (5, 9), (9,)])
    pre = x @ w + b
    ref = {None: pre, "relu": np.maximum(pre, 0.0), "tanh": np.tanh(pre)}[act]
    node = apply("affine", [tensor(x), tensor(w), tensor(b)], act=act)
    eager = ad.EAGER.affine(x, tensor(w), tensor(b), act)
    for out in (node.values, eager):
        assert out.dtype == dtype and out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind", sorted(_KIND_CASES))
def test_kind_gradients_match_finite_differences(kind):
    shapes, build = _KIND_CASES[kind]
    # str hash() changes with each process, so the sweep's points would too
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    for _ in range(100):
        params = _rand_nodes(rng, shapes)
        assert finite_diff_check(build, params, eps=1e-5) < 1e-4


def _penalty(x0, build):
    """W -> ||df/dx||^2 at x0 for f(x) = 0.5 ||build(x, W)||^2."""
    def penalty(ps):
        x = tensor(x0)
        f = apply("sum", [apply("square", [build(x, ps[0])])]) * 0.5
        g = input_gradient(f, x)
        return apply("sum", [apply("square", [g])])
    return penalty


def test_double_backprop_matches_finite_differences():
    # check d/dW of ||df/dx||^2 against central differences
    rng = np.random.default_rng(7)
    w = tensor(rng.standard_normal((3, 3)))
    penalty = _penalty(np.array([[0.7, -0.2, 1.1]]), lambda x, w: apply("matmul", [x, w]))
    assert finite_diff_check(penalty, [w], eps=1e-5) < 1e-4


@pytest.mark.parametrize("act", ["relu", "tanh"])
def test_double_backprop_through_layers_matches_finite_differences(act):
    # the gradient penalty's path: ||d score / d x||^2 of a two-layer net
    # whose hidden layer is one affine node with `act`, in every parameter
    rng = np.random.default_rng(zlib.crc32(act.encode()))
    x0 = rng.standard_normal((4, 3))

    def penalty(ps):
        w1, b1, w2, b2 = ps
        x = tensor(x0)
        h = apply("affine", [x, w1, b1], act=act)
        score = apply("sum", [apply("affine", [h, w2, b2], act="tanh")])
        g = input_gradient(score, x)
        return apply("sum", [apply("square", [g])])

    for _ in range(20):
        params = _rand_nodes(rng, [(3, 5), (5,), (5, 2), (2,)])
        assert finite_diff_check(penalty, params, eps=1e-6) < 1e-4


# Through concat, df/dx is a slice of the upstream gradient; through
# im2col it is a col2im. Neither adjoint node differentiates again.
_SECOND_ORDER_REFUSALS = {
    "slice": (np.array([[0.7, -0.2, 1.1]]), (6, 2), lambda x, w: apply(
        "matmul", [apply("concat", [apply("tanh", [x]), x], axis=1), w])),
    "col2im": (np.linspace(-1.0, 1.0, 50).reshape(1, 5, 5, 2), (18, 2),
               lambda x, w: apply("tanh", [apply("matmul", [
                   apply("im2col", [x], kh=3, kw=3, stride=2), w])])),
}


@pytest.mark.parametrize("op", sorted(_SECOND_ORDER_REFUSALS))
def test_double_backprop_through_concat_or_im2col_refused(op):
    x0, w_shape, build = _SECOND_ORDER_REFUSALS[op]
    w = tensor(np.random.default_rng(7).standard_normal(w_shape))
    root = _penalty(x0, build)([w])
    with pytest.raises(NotImplementedError,
                       match=f"second-order gradients through {op} are not supported"):
        backward(root, [w])


def test_forward_and_gradients_deterministic():
    def run():
        rng = np.random.default_rng(123)
        w = tensor(rng.standard_normal((4, 4)))
        x = tensor(rng.standard_normal((2, 4)))
        h = apply("tanh", [apply("matmul", [x, w])])
        loss = apply("mean", [apply("square", [h])])
        return loss.values.copy(), backward(loss, [w])[0].copy()

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2)
    assert np.array_equal(g1, g2)


def test_minimum_helper_gradient():
    a = tensor([1.0, 5.0])
    b = tensor([2.0, 3.0])
    root = apply("sum", [apply("minimum", [a, b])])
    ga, gb = backward(root, [a, b])
    assert np.allclose(ga, [1.0, 0.0])
    assert np.allclose(gb, [0.0, 1.0])


def test_operator_sugar_matches_apply():
    x = tensor([1.0, 2.0])
    y = tensor([3.0, 4.0])
    out = (x * y - 1.0) * 0.5
    assert np.allclose(out.values, [1.0, 3.5])
    (gx,) = backward(apply("sum", [out]), [x])
    assert np.allclose(gx, [1.5, 2.0])


def _count_matmuls(monkeypatch, executor):
    calls = []
    matmul = executor.matmul

    def counted(self, a, b):
        calls.append(1)
        return matmul(self, a, b)

    monkeypatch.setattr(executor, "matmul", counted)
    return calls


def test_backward_skips_gradients_nobody_named(monkeypatch):
    rng = np.random.default_rng(0)
    x, w, b = (tensor(rng.standard_normal(s)) for s in [(4, 3), (3, 2), (2,)])
    calls = _count_matmuls(monkeypatch, ad._EagerExec)
    for act in (None, "relu", "tanh"):
        y = apply("affine", [x, w, b], act=act).values
        # d sum(y) / d(x @ w + b), from the layer's output
        slope = {None: np.ones_like(y), "relu": (y > 0) * 1.0, "tanh": 1.0 - y * y}[act]
        calls.clear()
        (gb,) = backward(apply("sum", [apply("affine", [x, w, b], act=act)]), [b])
        assert np.allclose(gb, slope.sum(axis=0))
        assert calls == []  # neither dX nor dW is computed
        gx, gw = backward(apply("sum", [apply("affine", [x, w, b], act=act)]), [x, w])
        assert len(calls) == 2
        assert np.allclose(gx, slope @ w.values.T)
        assert np.allclose(gw, x.values.T @ slope)


def test_input_gradient_records_only_input_vjps(monkeypatch):
    rng = np.random.default_rng(1)
    layers = [(tensor(rng.standard_normal((n, m))), tensor(rng.standard_normal(m)))
              for n, m in [(5, 4), (4, 4), (4, 1)]]
    x = tensor(rng.standard_normal((3, 5)))
    h = x
    for i, (w, b) in enumerate(layers):
        h = apply("affine", [h, w, b], act="tanh" if i < 2 else None)
    calls = _count_matmuls(monkeypatch, ad._GraphExec)
    g = input_gradient(apply("sum", [h]), x)
    assert len(calls) == 3  # one dX per layer, no dW
    assert g.shape == x.shape


# A node s = 1 * x feeds three consumers whose adjoint contributions, 1,
# 1e16 and -1e16, sum to 0 in the order (1 + 1e16) - 1e16 and to 1 in the
# order (-1e16 + 1e16) + 1. The walk visits inputs last-first, so the VJPs
# run consumer 1, 2, 3 and ds/dx reads 0; a walk that visited inputs
# first-first would read 1.
_SHARED_NODE_TREES = {
    "left": lambda s: (s * 1.0 + s * 1e16) + s * -1e16,
    "right": lambda s: s * 1.0 + (s * 1e16 + s * -1e16),
}


@pytest.mark.parametrize("tree", sorted(_SHARED_NODE_TREES))
def test_adjoints_of_a_shared_node_sum_in_walk_order(tree):
    x = tensor([1.0])
    root = apply("sum", [_SHARED_NODE_TREES[tree](x * 1.0)])
    (gx,) = backward(root, [x])
    assert gx.tobytes() == np.zeros(1).tobytes()
    assert input_gradient(root, x).values.tobytes() == np.zeros(1).tobytes()


def _im2col_slices(x, kh, kw, stride):
    # the kh*kw strided slice copies that im2col's single copy replaced
    b, h, w, c = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    cols = np.empty((b, oh, ow, kh, kw, c), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i, j, :] = x[:, i:i + stride * oh:stride,
                                       j:j + stride * ow:stride, :]
    return cols.reshape(b * oh * ow, kh * kw * c)


@pytest.mark.parametrize("shape,k,stride", [((1, 5, 5, 2), 3, 2),
                                            ((2, 7, 6, 3), 2, 1),
                                            ((3, 4, 4, 1), 1, 1)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("transposed", [False, True])
def test_im2col_equals_slice_loop_and_owns_its_columns(shape, k, stride, dtype, transposed):
    rng = np.random.default_rng(zlib.crc32(repr((shape, k)).encode()))
    x = rng.standard_normal(shape).astype(dtype)
    if transposed:  # same logical array, non-contiguous memory
        x = np.ascontiguousarray(x.transpose(3, 2, 1, 0)).transpose(3, 2, 1, 0)
        assert not x.flags.c_contiguous
    cols = ad._im2col_values(x, k, k, stride)
    ref = _im2col_slices(x, k, k, stride)
    assert cols.dtype == dtype and cols.shape == ref.shape
    assert cols.tobytes() == ref.tobytes()
    assert cols.flags.writeable and cols.flags.c_contiguous
    assert not np.shares_memory(x, cols)
    # col2im is im2col's adjoint: <im2col(x), g> == <x, col2im(g)>
    g = rng.standard_normal(cols.shape)
    lhs = np.sum(cols * g)
    rhs = np.sum(x * ad._col2im_values(g, x.shape, k, k, stride))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def _col2im_slices(cols, x_shape, kh, kw, stride):
    # the kh*kw strided slice adds that col2im's blocks replaced
    b, h, w, c = x_shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    cols = cols.reshape(b, oh, ow, kh, kw, c)
    x = np.zeros(x_shape, dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            x[:, i:i + stride * oh:stride, j:j + stride * ow:stride, :] += cols[:, :, :, i, j, :]
    return x


@pytest.mark.parametrize("shape,k,stride", [((1, 5, 5, 2), 3, 2),
                                            ((2, 7, 6, 3), 2, 1),
                                            ((3, 4, 4, 1), 1, 1),
                                            ((2, 9, 8, 2), 3, 2),
                                            ((1, 11, 10, 2), 5, 3),
                                            ((2, 8, 8, 1), 2, 2)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_col2im_blocks_equal_the_slice_loop(shape, k, stride, dtype):
    # each pixel sums its kernel offsets in the loop's (i, j) order, so the
    # bytes agree; values spread over 1e±8 make any other order show
    rng = np.random.default_rng(zlib.crc32(repr((shape, k, stride)).encode()))
    b, h, w, c = shape
    n = b * ((h - k) // stride + 1) * ((w - k) // stride + 1)
    cols = (rng.standard_normal((n, k * k * c))
            * 10.0 ** rng.integers(-8, 9, (n, k * k * c))).astype(dtype)
    out = ad._col2im_values(cols, shape, k, k, stride)
    ref = _col2im_slices(cols, shape, k, k, stride)
    assert out.dtype == dtype and out.shape == shape
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind, act", [("sum", None), ("mean", None), ("mean", "relu"),
                                       ("sum", "matmul")])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_reduction_adjoints_equal_the_ones_product(kind, act, dtype):
    # the eager adjoint of a sum or mean is g copied to every position; the
    # gradients it feeds equal those of g multiplied into an array of ones,
    # through BLAS, bit for bit (numpy's own matmul loop, which a broadcast
    # view would take, differs on the one-column output of a critic head)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((37, 5)).astype(dtype)
    w = tensor(rng.standard_normal((5, 1)).astype(dtype))
    b = tensor(rng.standard_normal(1).astype(dtype))
    if act == "matmul":
        out = apply("matmul", [tensor(x), w])
    else:
        out = apply("affine", [tensor(x), w, b], act=act)
    gw, = backward(apply(kind, [out]), [w])
    one = np.ones((), dtype=dtype)
    g = np.full(out.shape, one * (1.0 / out.size) if kind == "mean" else one)
    if act == "relu":
        g = g * (out.values > 0).astype(dtype)
    assert gw.dtype == dtype
    assert gw.tobytes() == (x.T @ np.ascontiguousarray(g)).tobytes()
