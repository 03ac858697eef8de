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


# One scalar-valued builder per public kind, used for the per-kind
# finite-difference sweep below.
_KIND_CASES = {
    "add": ([(3, 2), (3, 2)], lambda ps: apply("sum", [apply("add", ps)])),
    "mul": ([(3, 2), (3, 2)], lambda ps: apply("sum", [apply("mul", ps)])),
    "matmul": ([(2, 3), (3, 2)], lambda ps: apply("sum", [apply("matmul", ps)])),
    "affine": ([(4, 3), (3, 2), (2,)], lambda ps: apply("sum", [apply("affine", ps)])),
    "tanh": ([(5,)], lambda ps: apply("sum", [apply("tanh", ps)])),
    "relu": ([(5,)], lambda ps: apply("sum", [apply("square", [apply("relu", ps)])])),
    "sigmoid": ([(5,)], lambda ps: apply("sum", [apply("sigmoid", ps)])),
    "log": ([(5,)], lambda ps: apply("sum", [apply("log", [apply("square", ps) + 0.5])])),
    "square": ([(5,)], lambda ps: apply("sum", [apply("square", ps)])),
    "sum": ([(4, 3)], lambda ps: apply("sum", [apply("square", [apply("sum", ps, axis=1)])])),
    "mean": ([(4, 3)], lambda ps: apply("sum", [apply("square", [apply("mean", ps, axis=0)])])),
    "concat": ([(2, 2), (2, 3)],
               lambda ps: apply("sum", [apply("square", [apply("concat", ps, axis=1)])])),
    "clip": ([(6,)], lambda ps: apply("sum", [apply("square", [apply("clip", ps, lo=-0.5, hi=0.5)])])),
    "l2norm": ([(4, 3)], lambda ps: apply("sum", [apply("l2norm", ps, axis=1)])),
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
    assert set(_KIND_CASES) == ad.PUBLIC_KINDS


def test_missing_attributes_rejected():
    with pytest.raises(ValueError, match="reshape needs shape="):
        apply("reshape", [tensor(np.ones((2, 3)))])
    with pytest.raises(ValueError, match="clip needs lo= and hi="):
        apply("clip", [tensor([1.0])], lo=0.0)


@pytest.mark.parametrize("kind", sorted(_KIND_CASES))
def test_kind_gradients_match_finite_differences(kind):
    shapes, build = _KIND_CASES[kind]
    rng = np.random.default_rng(hash(kind) % 2**32)
    for _ in range(100):
        params = _rand_nodes(rng, shapes)
        assert finite_diff_check(build, params, eps=1e-5) < 1e-4


def test_double_backprop_matches_finite_differences():
    # f(x) = 0.5 ||W x||^2; check d/dW of ||df/dx||^2 against central diffs.
    rng = np.random.default_rng(7)
    w = tensor(rng.standard_normal((3, 3)))

    def penalty(ps):
        x = tensor(np.array([[0.7, -0.2, 1.1]]))
        y = apply("matmul", [x, ps[0]])
        f = apply("sum", [apply("square", [y])]) * 0.5
        g = input_gradient(f, x)
        return apply("sum", [apply("square", [g])])

    assert finite_diff_check(penalty, [w], eps=1e-5) < 1e-4


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
    root = apply("sum", [ad.minimum(a, b)])
    ga, gb = backward(root, [a, b])
    assert np.allclose(ga, [1.0, 0.0])
    assert np.allclose(gb, [0.0, 1.0])


def test_operator_sugar_matches_apply():
    x = tensor([1.0, 2.0])
    y = tensor([3.0, 4.0])
    out = (x * y - 1.0) / 2.0
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
    (gb,) = backward(apply("sum", [apply("affine", [x, w, b])]), [b])
    assert np.array_equal(gb, np.full(2, 4.0))
    assert calls == []  # neither dX nor dW is computed
    gx, gw = backward(apply("sum", [apply("affine", [x, w, b])]), [x, w])
    assert len(calls) == 2
    assert np.allclose(gx, np.ones((4, 2)) @ w.values.T)
    assert np.allclose(gw, x.values.T @ np.ones((4, 2)))


def test_input_gradient_records_only_input_vjps(monkeypatch):
    rng = np.random.default_rng(1)
    layers = [(tensor(rng.standard_normal((n, m))), tensor(rng.standard_normal(m)))
              for n, m in [(5, 4), (4, 4), (4, 1)]]
    x = tensor(rng.standard_normal((3, 5)))
    h = x
    for i, (w, b) in enumerate(layers):
        h = apply("affine", [h, w, b])
        if i < 2:
            h = apply("tanh", [h])
    calls = _count_matmuls(monkeypatch, ad._GraphExec)
    g = input_gradient(apply("sum", [h]), x)
    assert len(calls) == 3  # one dX per layer, no dW
    assert g.shape == x.shape
