"""Tape-based reverse-mode autodiff on numpy arrays.

`backward(root, params)` returns the gradients of a scalar with respect
to the leaves the caller names, in their order; only the vector-Jacobian
products on a path from the root to one of those leaves are computed.
The backward pass can also be recorded as graph operations, so the
gradient of a scalar with respect to an input (`input_gradient`) is itself
a differentiable node (needed to train a discriminator whose loss contains
the norm of its own input gradient). Tapes are rebuilt per step; recorded
values are never mutated in place.
"""

from __future__ import annotations

import numpy as np

LOG_OFFSET = 1e-8    # added inside log() so adversarial losses never hit -inf
NORM_OFFSET = 1e-12  # inside the sqrt of l2norm, keeps its gradient finite at 0

PUBLIC_KINDS = frozenset({
    "add", "mul", "div", "matmul", "affine", "tanh", "relu", "sigmoid", "log",
    "square", "sum", "mean", "concat", "clip", "l2norm", "reshape", "im2col",
})
# attributes a public kind cannot run without
_REQUIRED_ATTRS = {"clip": ("lo", "hi"), "reshape": ("shape",),
                   "im2col": ("kh", "kw", "stride")}


class ShapeMismatchError(ValueError):
    def __init__(self, kind, shapes):
        super().__init__(f"{kind}: incompatible shapes {list(shapes)}")
        self.kind = kind
        self.shapes = shapes


class DomainError(ValueError):
    pass


class TensorNode:
    """One value in the computation graph.

    Leaves (op is None) hold inputs and parameters alike; a backward pass
    is told which leaves to differentiate. Non-leaves record the producing
    op and inputs.
    """

    __slots__ = ("values", "op", "inputs", "attrs", "name")

    def __init__(self, values, op=None, inputs=(), attrs=None, name=None):
        self.values = values
        self.op = op
        self.inputs = inputs
        self.attrs = attrs
        self.name = name

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self):
        return self.values.size

    @property
    def dtype(self):
        return self.values.dtype

    def __repr__(self):
        return f"TensorNode({self.op or 'leaf'}, shape={self.shape})"

    # Operator sugar; everything routes through apply(). A plain number
    # takes this node's dtype, so float32 graphs stay float32.
    def __add__(self, other):
        return apply("add", [self, _as_node(other, self)])

    __radd__ = __add__

    def __mul__(self, other):
        return apply("mul", [self, _as_node(other, self)])

    __rmul__ = __mul__

    def __neg__(self):
        return apply("mul", [self, _as_node(-1.0, self)])

    def __sub__(self, other):
        return self + (-_as_node(other, self))

    def __rsub__(self, other):
        return _as_node(other, self) + (-self)

    def __truediv__(self, other):
        return apply("div", [self, _as_node(other, self)])

    def __matmul__(self, other):
        return apply("matmul", [self, _as_node(other)])


def tensor(values, name=None, dtype=None):
    """Create a leaf node. Lists/scalars become float64 arrays by default."""
    arr = np.asarray(values, dtype=dtype)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    return TensorNode(arr, name=name)


def _as_node(x, like=None):
    """x as a node; a plain number meeting the node `like` takes its dtype
    (numpy does not treat a 0-d float64 array as a weak scalar)."""
    if isinstance(x, TensorNode):
        return x
    if like is not None and np.isscalar(x):
        return TensorNode(np.asarray(x, dtype=like.dtype))
    return tensor(x)


# ---------------------------------------------------------------------------
# Executors: the same VJP rules run either on raw arrays (training) or on
# graph nodes (when a gradient must stay differentiable).
# ---------------------------------------------------------------------------

class _EagerExec:
    graph = False

    @staticmethod
    def v(x):
        return x.values if isinstance(x, TensorNode) else x

    def add(self, a, b):
        return self.v(a) + self.v(b)

    def mul(self, a, b):
        return self.v(a) * self.v(b)

    def div(self, a, b):
        return self.v(a) / self.v(b)

    def neg(self, a):
        return -self.v(a)

    def matmul(self, a, b):
        return self.v(a) @ self.v(b)

    def transpose(self, a):
        return self.v(a).T

    def sum(self, a, axis=None, keepdims=False):
        return np.sum(self.v(a), axis=axis, keepdims=keepdims)

    def reshape(self, a, shape):
        return self.v(a).reshape(shape)

    def slice(self, a, key):
        return self.v(a)[key]

    def scatter_slice(self, a, shape, key):
        out = np.zeros(shape, dtype=np.asarray(self.v(a)).dtype)
        out[key] = self.v(a)
        return out

    def im2col(self, a, kh, kw, stride):
        return _im2col_values(self.v(a), kh, kw, stride)

    def col2im(self, a, x_shape, kh, kw, stride):
        return _col2im_values(self.v(a), x_shape, kh, kw, stride)


class _GraphExec:
    graph = True

    @staticmethod
    def v(x):
        return _as_node(x)

    def add(self, a, b):
        a = self.v(a)
        return apply("add", [a, _as_node(b, a)])

    def mul(self, a, b):
        a = self.v(a)
        return apply("mul", [a, _as_node(b, a)])

    def div(self, a, b):
        a = self.v(a)
        return _apply_private("div", [a, _as_node(b, a)])

    def neg(self, a):
        return -self.v(a)

    def matmul(self, a, b):
        return apply("matmul", [self.v(a), self.v(b)])

    def transpose(self, a):
        return _apply_private("transpose", [self.v(a)])

    def sum(self, a, axis=None, keepdims=False):
        return apply("sum", [self.v(a)], axis=axis, keepdims=keepdims)

    def reshape(self, a, shape):
        return _apply_private("reshape", [self.v(a)], shape=tuple(shape))

    def slice(self, a, key):
        return _apply_private("slice", [self.v(a)], key=key)

    def scatter_slice(self, a, shape, key):
        return _apply_private("scatter_slice", [self.v(a)], shape=tuple(shape), key=key)

    def im2col(self, a, kh, kw, stride):
        return _apply_private("im2col", [self.v(a)], kh=kh, kw=kw, stride=stride)

    def col2im(self, a, x_shape, kh, kw, stride):
        return _apply_private("col2im", [self.v(a)], x_shape=tuple(x_shape),
                              kh=kh, kw=kw, stride=stride)


def _unbroadcast(E, g, shape):
    """Sum a gradient of a broadcast result back to an input's shape,
    mirroring numpy's broadcast rules, with either executor."""
    if g.shape == tuple(shape):
        return g
    extra = len(g.shape) - len(shape)
    if extra > 0:
        g = E.sum(g, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = E.sum(g, axis=axes, keepdims=True)
    return E.reshape(g, shape)


def _im2col_values(x, kh, kw, stride):
    # x is channels-last (B, H, W, C); returns (B*OH*OW, kh*kw*C)
    b, h, w, c = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    cols = np.empty((b, oh, ow, kh, kw, c), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i, j, :] = x[:, i:i + stride * oh:stride,
                                       j:j + stride * ow:stride, :]
    return cols.reshape(b * oh * ow, kh * kw * c)


def _col2im_values(cols, x_shape, kh, kw, stride):
    b, h, w, c = x_shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    cols = cols.reshape(b, oh, ow, kh, kw, c)
    x = np.zeros(x_shape, dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            x[:, i:i + stride * oh:stride, j:j + stride * ow:stride, :] += \
                cols[:, :, :, i, j, :]
    return x


# ---------------------------------------------------------------------------
# Operation table: forward on arrays, and the vjp via an executor.
# vjp(E, g, inputs, out, i) is the gradient for input i alone.
# ---------------------------------------------------------------------------

def _fw_add(attrs, a, b):
    return a + b


def _vjp_add(E, g, inputs, out, i):
    return _unbroadcast(E, g, inputs[i].shape)


def _fw_mul(attrs, a, b):
    return a * b


def _vjp_mul(E, g, inputs, out, i):
    return _unbroadcast(E, E.mul(g, inputs[1 - i]), inputs[i].shape)


def _fw_div(attrs, a, b):
    return a / b


def _vjp_div(E, g, inputs, out, i):
    a, b = inputs
    if i == 0:
        return _unbroadcast(E, E.div(g, b), a.shape)
    return _unbroadcast(E, E.neg(E.div(E.mul(g, out), b)), b.shape)


def _fw_matmul(attrs, a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError("matmul", (a.shape, b.shape))
    return a @ b


def _vjp_matmul(E, g, inputs, out, i):
    a, b = inputs
    return E.matmul(g, E.transpose(b)) if i == 0 else E.matmul(E.transpose(a), g)


def _fw_affine(attrs, x, w, b):
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeMismatchError("affine", (x.shape, w.shape, b.shape))
    return x @ w + b


def _vjp_affine(E, g, inputs, out, i):
    x, w, _ = inputs
    if i == 0:
        return E.matmul(g, E.transpose(w))
    if i == 1:
        return E.matmul(E.transpose(x), g)
    return E.sum(g, axis=0)


def _fw_tanh(attrs, x):
    return np.tanh(x)


def _vjp_tanh(E, g, inputs, out, i):
    return E.mul(g, E.add(E.neg(E.mul(out, out)), 1.0))


def _fw_relu(attrs, x):
    return np.maximum(x, 0.0)


def _vjp_relu(E, g, inputs, out, i):
    x = inputs[0]
    return E.mul(g, (x.values > 0).astype(x.dtype))


def sigmoid_values(x):
    """Logistic function of an array, without overflow for large |x|."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _fw_sigmoid(attrs, x):
    return sigmoid_values(x)


def _vjp_sigmoid(E, g, inputs, out, i):
    return E.mul(g, E.mul(out, E.add(E.neg(out), 1.0)))


def _fw_log(attrs, x):
    if np.any(x + LOG_OFFSET <= 0):
        raise DomainError("log: input not strictly positive after safety offset")
    return np.log(x + LOG_OFFSET)


def _vjp_log(E, g, inputs, out, i):
    return E.div(g, E.add(inputs[0], LOG_OFFSET))


def _fw_square(attrs, x):
    return x * x


def _vjp_square(E, g, inputs, out, i):
    return E.mul(g, E.mul(inputs[0], 2.0))


def _fw_sum(attrs, x):
    return np.sum(x, axis=attrs.get("axis"), keepdims=attrs.get("keepdims", False))


def _bcast_reduced(E, g, attrs, in_shape):
    axis = attrs.get("axis")
    keepdims = attrs.get("keepdims", False)
    ones = np.ones(in_shape, dtype=E.v(g).dtype)
    if axis is None:
        return E.mul(g, ones)
    if not keepdims:
        axes = (axis,) if np.isscalar(axis) else tuple(axis)
        kd = list(in_shape)
        for ax in axes:
            kd[ax] = 1
        g = E.reshape(g, kd)
    return E.mul(g, ones)


def _vjp_sum(E, g, inputs, out, i):
    return _bcast_reduced(E, g, out.attrs, inputs[0].shape)


def _fw_mean(attrs, x):
    return np.mean(x, axis=attrs.get("axis"), keepdims=attrs.get("keepdims", False))


def _vjp_mean(E, g, inputs, out, i):
    n = inputs[0].size // max(out.size, 1)
    return _bcast_reduced(E, E.mul(g, 1.0 / n), out.attrs, inputs[0].shape)


def _fw_concat(attrs, *xs):
    axis = attrs.get("axis", 0)
    for x in xs[1:]:
        if x.ndim != xs[0].ndim:
            raise ShapeMismatchError("concat", tuple(x.shape for x in xs))
    return np.concatenate(xs, axis=axis)


def _vjp_concat(E, g, inputs, out, i):
    axis = out.attrs.get("axis", 0)
    start = sum(x.shape[axis] for x in inputs[:i])
    x = inputs[i]
    key = tuple(slice(None) if d != axis else slice(start, start + x.shape[axis])
                for d in range(len(x.shape)))
    return E.slice(g, key)


def _fw_clip(attrs, x):
    return np.clip(x, attrs["lo"], attrs["hi"])


def _vjp_clip(E, g, inputs, out, i):
    x = inputs[0]
    mask = ((x.values > out.attrs["lo"]) & (x.values < out.attrs["hi"]))
    return E.mul(g, mask.astype(x.dtype))


def _fw_l2norm(attrs, x):
    return np.sqrt(np.sum(x * x, axis=attrs.get("axis")) + NORM_OFFSET)


def _vjp_l2norm(E, g, inputs, out, i):
    x = inputs[0]
    axis = out.attrs.get("axis")
    if axis is None:
        return E.mul(x, E.div(g, out))
    kd = list(x.shape)
    kd[axis] = 1
    return E.mul(x, E.reshape(E.div(g, out), kd))


def _fw_minimum(attrs, a, b):
    return np.minimum(a, b)


def _vjp_minimum(E, g, inputs, out, i):
    a, b = inputs
    mask = (a.values <= b.values).astype(a.dtype)
    return _unbroadcast(E, E.mul(g, mask if i == 0 else 1.0 - mask), inputs[i].shape)


def _fw_transpose(attrs, x):
    return x.T


def _vjp_transpose(E, g, inputs, out, i):
    return E.transpose(g)


def _fw_reshape(attrs, x):
    return x.reshape(attrs["shape"])


def _vjp_reshape(E, g, inputs, out, i):
    return E.reshape(g, inputs[0].shape)


def _fw_slice(attrs, x):
    return x[attrs["key"]]


def _vjp_slice(E, g, inputs, out, i):
    return E.scatter_slice(g, inputs[0].shape, out.attrs["key"])


def _fw_scatter_slice(attrs, x):
    out = np.zeros(attrs["shape"], dtype=x.dtype)
    out[attrs["key"]] = x
    return out


def _vjp_scatter_slice(E, g, inputs, out, i):
    return E.slice(g, out.attrs["key"])


def _fw_im2col(attrs, x):
    return _im2col_values(x, attrs["kh"], attrs["kw"], attrs["stride"])


def _vjp_im2col(E, g, inputs, out, i):
    a = out.attrs
    return E.col2im(g, inputs[0].shape, a["kh"], a["kw"], a["stride"])


def _fw_col2im(attrs, x):
    return _col2im_values(x, attrs["x_shape"], attrs["kh"], attrs["kw"], attrs["stride"])


def _vjp_col2im(E, g, inputs, out, i):
    a = out.attrs
    return E.im2col(g, a["kh"], a["kw"], a["stride"])


_OPS = {
    "add": (_fw_add, _vjp_add),
    "mul": (_fw_mul, _vjp_mul),
    "div": (_fw_div, _vjp_div),
    "matmul": (_fw_matmul, _vjp_matmul),
    "affine": (_fw_affine, _vjp_affine),
    "tanh": (_fw_tanh, _vjp_tanh),
    "relu": (_fw_relu, _vjp_relu),
    "sigmoid": (_fw_sigmoid, _vjp_sigmoid),
    "log": (_fw_log, _vjp_log),
    "square": (_fw_square, _vjp_square),
    "sum": (_fw_sum, _vjp_sum),
    "mean": (_fw_mean, _vjp_mean),
    "concat": (_fw_concat, _vjp_concat),
    "clip": (_fw_clip, _vjp_clip),
    "l2norm": (_fw_l2norm, _vjp_l2norm),
    "minimum": (_fw_minimum, _vjp_minimum),
    "transpose": (_fw_transpose, _vjp_transpose),
    "reshape": (_fw_reshape, _vjp_reshape),
    "slice": (_fw_slice, _vjp_slice),
    "scatter_slice": (_fw_scatter_slice, _vjp_scatter_slice),
    "im2col": (_fw_im2col, _vjp_im2col),
    "col2im": (_fw_col2im, _vjp_col2im),
}

_BINARY_ELEMWISE = frozenset({"add", "mul", "div", "minimum"})


def _apply_private(kind, inputs, **attrs):
    fw, _ = _OPS[kind]
    if kind in _BINARY_ELEMWISE:
        a, b = inputs[0].values, inputs[1].values
        try:
            np.broadcast_shapes(a.shape, b.shape)
        except ValueError:
            raise ShapeMismatchError(kind, (a.shape, b.shape)) from None
    values = fw(attrs, *(x.values for x in inputs))
    return TensorNode(values, op=kind, inputs=tuple(inputs), attrs=attrs)


def apply(kind, inputs, **attrs):
    """Build a graph node for one of the public operation kinds."""
    if kind not in PUBLIC_KINDS:
        raise ValueError(f"unknown operation kind: {kind!r}")
    required = _REQUIRED_ATTRS.get(kind)
    if required and not all(a in attrs for a in required):
        raise ValueError(f"{kind} needs " + " and ".join(f"{a}=" for a in required))
    inputs = [_as_node(x) for x in inputs]
    return _apply_private(kind, inputs, **attrs)


def minimum(a, b):
    """Elementwise min of two nodes, differentiable a.e."""
    return _apply_private("minimum", [_as_node(a), _as_node(b)])


# ---------------------------------------------------------------------------
# Backward passes
# ---------------------------------------------------------------------------

def _toposort(root, leaves):
    """The nodes on a path from root to one of `leaves`, inputs first, and
    the set of their ids."""
    targets = {id(x) for x in leaves}
    live = set()  # ids of the nodes that reach a target
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            if id(node) in targets or any(id(x) in live for x in node.inputs):
                live.add(id(node))
                order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for inp in node.inputs:
            if id(inp) not in seen:
                stack.append((inp, False))
    return order, live


def _run_backward(root, leaves, create_graph):
    """Adjoints by node id, computing only the VJPs on a path to a leaf."""
    E = _GraphExec() if create_graph else _EagerExec()
    order, live = _toposort(root, leaves)
    seed = np.ones(root.shape, dtype=root.dtype)
    adjoint = {id(root): _as_node(seed) if create_graph else seed}
    for node in reversed(order):
        if node.op is None:
            continue
        g = adjoint[id(node)]
        vjp = _OPS[node.op][1]
        for i, inp in enumerate(node.inputs):
            if id(inp) not in live:
                continue
            gi = vjp(E, g, node.inputs, node, i)
            prev = adjoint.get(id(inp))
            adjoint[id(inp)] = gi if prev is None else E.add(prev, gi)
    return adjoint


def backward(root, params):
    """Gradients of a scalar node with respect to the leaves `params`, as a
    list in their order; a parameter the root does not depend on gets a
    zero array."""
    if root.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.shape}")
    adjoint = _run_backward(root, params, create_graph=False)
    return [adjoint[id(p)] if id(p) in adjoint else np.zeros_like(p.values)
            for p in params]


def input_gradient(scalar, wrt):
    """d scalar / d wrt as a graph node, itself differentiable again."""
    if scalar.size != 1:
        raise ValueError("input_gradient needs a scalar node")
    g = _run_backward(scalar, [wrt], create_graph=True).get(id(wrt))
    if g is None:
        raise ValueError("wrt does not influence the scalar")
    return g


def finite_diff_check(f, params, eps=1e-5):
    """Max relative error between backward() and central differences.

    f is a deterministic callable building a fresh scalar node from the
    given parameter leaves. Relative error uses max(1, |fd|, |ad|) as the
    denominator so near-zero gradients compare absolutely.
    """
    grads = backward(f(params), params)
    worst = 0.0
    for p, ad in zip(params, grads):
        flat = p.values.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f(params).values.item()
            flat[i] = orig - eps
            lo = f(params).values.item()
            flat[i] = orig
            fd = (hi - lo) / (2 * eps)
            a = ad.reshape(-1)[i]
            err = abs(a - fd) / max(1.0, abs(a), abs(fd))
            if err > worst:
                worst = err
    return worst
