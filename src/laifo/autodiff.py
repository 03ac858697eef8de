"""Tape-based reverse-mode autodiff on numpy arrays.

`backward(root, params)` returns the gradients of a scalar with respect
to the leaves the caller names, in their order; only the vector-Jacobian
products on a path from the root to one of those leaves are computed.
The backward pass can also be recorded as graph operations, so the
gradient of a scalar with respect to an input (`input_gradient`) is itself
a differentiable node (needed to train a discriminator whose loss contains
the norm of its own input gradient), unless it passed through `concat` or
`im2col`: their adjoints, `slice` and `col2im`, have no VJP rule, and a
backward pass through one raises NotImplementedError. Tapes are rebuilt
per step. No operation writes into a recorded value; an optimizer writes
its parameters in place, after the backward pass of the tapes that read
them.

A network layer is one `affine` node: x @ W + b, then the relu or tanh
its `act` names, applied in place. Its VJP reads the relu mask or the
tanh slope from the node's own output. Each operation kind has one VJP
rule, called once per node with the flags of the node's live inputs (those
on a path to a named leaf); it returns every input's gradient, None for
the inputs that are not live. Nodes take an array's operators (`+`, `-`,
`*`, `/`, `.T`), so a rule is written once as plain expressions such as
`g * (-(out * out) + 1.0)` or `E.matmul(g, w.T)`: `backward` runs it on
the values of the node and its inputs, `input_gradient` on the nodes
themselves, which records the gradient as a graph.

`backward` finds the live nodes in one iterative post-order walk from the
root that visits each node's inputs last-first, and sums the adjoint
contributions a node receives in the reverse of that order. The order is
part of the determinism contract: floating-point addition does not
associate, so a walk that visited inputs first-first would sum the
adjoints of shared nodes in another order and change the bits of a run.

A convolution is `im2col` followed by `affine`. `im2col` gathers each
output pixel's kh x kw patch into one row with a single strided copy of
its input; its adjoint `col2im` adds the kh·kw shifted slices back, in
ceil(kh/s)·ceil(kw/s) strided adds of up to s x s offsets each.

`pack` copies leaves' values into one flat array and makes each leaf's
`values` a view of its slice; an optimizer packs its parameters so that a
step is a few whole-array operations. Code that sets a packed parameter
writes into its `values`; rebinding `values` would detach the leaf from
the flat array.
"""

from __future__ import annotations

import numpy as np

LOG_OFFSET = 1e-8    # added inside log() so adversarial losses never hit -inf
NORM_OFFSET = 1e-12  # inside the sqrt of l2norm, keeps its gradient finite at 0

# attributes an operation kind cannot run without
_REQUIRED_ATTRS = {"reshape": ("shape",), "slice": ("key",),
                   "im2col": ("kh", "kw", "stride"),
                   "col2im": ("x_shape", "kh", "kw", "stride")}


class ShapeMismatchError(ValueError):
    def __init__(self, kind, shapes):
        super().__init__(f"{kind}: incompatible shapes {list(shapes)}")


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

    # Operators, the same as an array's; everything routes through apply().
    # A plain number takes this node's dtype, so float32 graphs stay
    # float32, and an array on the left defers to the node.
    __array_ufunc__ = None

    def __add__(self, other):
        return apply("add", [self, _as_node(other, self)])

    __radd__ = __add__

    def __mul__(self, other):
        return apply("mul", [self, _as_node(other, self)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        return apply("div", [self, _as_node(other, self)])

    @property
    def T(self):
        return apply("transpose", [self])

    def __neg__(self):
        return apply("mul", [self, _as_node(-1.0, self)])

    def __sub__(self, other):
        return self + (-_as_node(other, self))

    def __rsub__(self, other):
        return _as_node(other, self) + (-self)


def tensor(values, name=None):
    """Create a leaf node; values that are not floating point become float64."""
    arr = np.asarray(values)
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
# Executors: the network forward passes run either on raw arrays or on
# graph nodes (when the result must stay differentiable). Arrays and nodes
# take the same operators, so only the operation table, the layer and the
# matrix product go through an executor. `EAGER` and `GRAPH` are the two
# instances.
# ---------------------------------------------------------------------------

class _EagerExec:
    def op(self, kind, *xs, **attrs):
        """Any kind of the operation table, on arrays."""
        return _OPS[kind][0](attrs, *xs)

    # A network layer. The operand is an array and the parameters are
    # leaves, read in place: no per-operand type check on the acting path.
    def affine(self, x, w, b, act=None):
        out = x @ w.values
        out += b.values  # in place: one (N, C) array per layer, not two
        return _activate(out, act) if act else out

    def matmul(self, a, b):
        return a @ b


class _GraphExec:
    def op(self, kind, *xs, **attrs):
        """Any kind of the operation table, as a graph node."""
        return apply(kind, xs, **attrs)

    def affine(self, x, w, b, act=None):
        return apply("affine", [x, w, b], act=act)

    def matmul(self, a, b):
        return apply("matmul", [a, b])


EAGER = _EagerExec()
GRAPH = _GraphExec()


def _unbroadcast(E, g, shape):
    """Sum a gradient of a broadcast result back to an input's shape,
    mirroring numpy's broadcast rules, with either executor."""
    if g.shape == tuple(shape):
        return g
    extra = len(g.shape) - len(shape)
    if extra > 0:
        g = E.op("sum", g, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = E.op("sum", g, axis=axes, keepdims=True)
    return E.op("reshape", g, shape=tuple(shape))


def _im2col_values(x, kh, kw, stride):
    # x is channels-last (B, H, W, C); returns a fresh (B*OH*OW, kh*kw*C)
    # array, copied in one pass from a strided (B, OH, OW, kh, kw, C) view
    b, h, w, c = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sb, sh, sw, sc = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x, (b, oh, ow, kh, kw, c), (sb, stride * sh, stride * sw, sh, sw, sc),
        writeable=False)
    cols = np.empty((b * oh * ow, kh * kw * c), dtype=x.dtype)
    cols.reshape(patches.shape)[...] = patches
    return cols


def _col2im_values(cols, x_shape, kh, kw, stride):
    # The kernel offsets (i, j) with i0 <= i < i0 + s and j0 <= j < j0 + s
    # hit distinct pixels, so one strided add covers the whole s x s block.
    # Blocks run in (i0, j0) order and a pixel gets at most one offset per
    # block, so every pixel sums its offsets in (i, j) order, as a kh·kw
    # loop of slice adds would.
    b, h, w, c = x_shape
    s = stride
    oh = (h - kh) // s + 1
    ow = (w - kw) // s + 1
    cols = cols.reshape(b, oh, ow, kh, kw, c)
    x = np.zeros(x_shape, dtype=cols.dtype)
    sb, sh, sw, sc = x.strides
    for i0 in range(0, kh, s):
        m = min(s, kh - i0)
        for j0 in range(0, kw, s):
            n = min(s, kw - j0)
            # rows i0 + s*p + di and columns j0 + s*q + dj, as (b, p, di, q, dj, c)
            block = np.lib.stride_tricks.as_strided(
                x[:, i0:, j0:, :], (b, oh, m, ow, n, c),
                (sb, s * sh, sh, s * sw, sw, sc))
            block += cols[:, :, :, i0:i0 + m, j0:j0 + n, :].transpose(0, 1, 3, 2, 4, 5)
    return x


def _activate(out, act):
    """Apply a layer's activation to its affine output, in place."""
    if act == "relu":
        return np.maximum(out, 0.0, out=out)
    if act == "tanh":
        return np.tanh(out, out=out)
    raise ValueError(f"unknown activation {act!r}; choose relu or tanh")


# ---------------------------------------------------------------------------
# Operation table: forward on arrays, and the vjp as operator expressions.
# vjp(E, g, out, ins, node, live) runs on the output and the inputs (arrays,
# or nodes when recorded) and returns the gradient of every input i for
# which live[i] holds, None for the others; `node` gives attrs and masks.
# ---------------------------------------------------------------------------

def _fw_add(attrs, a, b):
    return a + b


def _vjp_add(E, g, out, ins, node, live):
    a, b = ins
    return (_unbroadcast(E, g, a.shape) if live[0] else None,
            _unbroadcast(E, g, b.shape) if live[1] else None)


def _fw_mul(attrs, a, b):
    return a * b


def _vjp_mul(E, g, out, ins, node, live):
    a, b = ins
    return (_unbroadcast(E, g * b, a.shape) if live[0] else None,
            _unbroadcast(E, g * a, b.shape) if live[1] else None)


def _fw_div(attrs, a, b):
    return a / b


def _vjp_div(E, g, out, ins, node, live):
    a, b = ins
    return (_unbroadcast(E, g / b, a.shape) if live[0] else None,
            _unbroadcast(E, -(g * out / b), b.shape) if live[1] else None)


def _fw_matmul(attrs, a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError("matmul", (a.shape, b.shape))
    return a @ b


def _vjp_matmul(E, g, out, ins, node, live):
    a, b = ins
    return (E.matmul(g, b.T) if live[0] else None,
            E.matmul(a.T, g) if live[1] else None)


def _fw_affine(attrs, x, w, b):
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeMismatchError("affine", (x.shape, w.shape, b.shape))
    out = x @ w
    out += b  # in place: one (N, C) array per layer, not two
    act = attrs.get("act")
    return _activate(out, act) if act else out


def _vjp_affine(E, g, out, ins, node, live):
    act = node.attrs.get("act")
    if act == "relu":  # the output is positive exactly where the input was
        mask = node.values > 0  # a graph takes the mask as a node of the layer's dtype
        g = g * (mask if E is EAGER else mask.astype(node.dtype))
    elif act == "tanh":  # 1 - y^2 from the output y
        g = g * (-(out * out) + 1.0)
    x, w, _ = ins
    return (E.matmul(g, w.T) if live[0] else None,
            E.matmul(x.T, g) if live[1] else None,
            E.op("sum", g, axis=0) if live[2] else None)


def _fw_tanh(attrs, x):
    return np.tanh(x)


def _vjp_tanh(E, g, out, ins, node, live):
    return (g * (-(out * out) + 1.0),)


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


def _vjp_sigmoid(E, g, out, ins, node, live):
    return (g * (out * (-out + 1.0)),)


def _fw_log(attrs, x):
    if np.any(x + LOG_OFFSET <= 0):
        raise DomainError("log: input not strictly positive after safety offset")
    return np.log(x + LOG_OFFSET)


def _vjp_log(E, g, out, ins, node, live):
    return (g / (ins[0] + LOG_OFFSET),)


def _fw_square(attrs, x):
    return x * x


def _vjp_square(E, g, out, ins, node, live):
    return (g * (ins[0] * 2.0),)


def _fw_sum(attrs, x):
    return np.add.reduce(x, axis=attrs.get("axis"), keepdims=attrs.get("keepdims", False))


def _bcast_reduced(E, g, attrs, in_shape):
    """The adjoint g of a reduction, spread over the reduced input's shape:
    g copied to every position on arrays (no array of ones, and a
    contiguous operand for BLAS), g times ones in a graph."""
    axis = attrs.get("axis")
    if axis is not None and not attrs.get("keepdims", False):
        axes = (axis,) if np.isscalar(axis) else tuple(axis)
        kd = list(in_shape)
        for ax in axes:
            kd[ax] = 1
        g = E.op("reshape", g, shape=tuple(kd))
    if E is EAGER:
        return np.full(in_shape, g)
    return g * np.ones(in_shape, dtype=g.dtype)


def _vjp_sum(E, g, out, ins, node, live):
    return (_bcast_reduced(E, g, node.attrs, ins[0].shape),)


def _fw_mean(attrs, x):
    # np.mean's arithmetic (a sum, then one division by the count) without
    # its Python overhead, which dominates on the batch-1 acting path
    total = np.add.reduce(x, axis=attrs.get("axis"), keepdims=attrs.get("keepdims", False))
    return total / (x.size // np.size(total))


def _vjp_mean(E, g, out, ins, node, live):
    x = ins[0]
    n = x.size // max(node.size, 1)
    return (_bcast_reduced(E, g * (1.0 / n), node.attrs, x.shape),)


def _fw_concat(attrs, *xs):
    axis = attrs.get("axis", 0)
    for x in xs[1:]:
        if x.ndim != xs[0].ndim:
            raise ShapeMismatchError("concat", tuple(x.shape for x in xs))
    return np.concatenate(xs, axis=axis)


def _vjp_concat(E, g, out, ins, node, live):
    axis = node.attrs.get("axis", 0)
    grads = []
    start = 0
    for x, flag in zip(ins, live):
        stop = start + x.shape[axis]
        key = tuple(slice(None) if d != axis else slice(start, stop)
                    for d in range(len(x.shape)))
        grads.append(E.op("slice", g, key=key) if flag else None)
        start = stop
    return grads


def _fw_l2norm(attrs, x):
    return np.sqrt(np.add.reduce(x * x, axis=attrs.get("axis"),
                                 keepdims=attrs.get("keepdims", False)) + NORM_OFFSET)


def _vjp_l2norm(E, g, out, ins, node, live):
    x = ins[0]
    axis = node.attrs.get("axis")
    if axis is None:
        return (x * (g / out),)
    kd = list(x.shape)
    kd[axis] = 1
    return (x * E.op("reshape", g / out, shape=tuple(kd)),)


def _fw_minimum(attrs, a, b):
    return np.minimum(a, b)


def _vjp_minimum(E, g, out, ins, node, live):
    a, b = node.inputs
    mask = (a.values <= b.values).astype(a.dtype)
    return (_unbroadcast(E, g * mask, a.shape) if live[0] else None,
            _unbroadcast(E, g * (1.0 - mask), b.shape) if live[1] else None)


def _fw_transpose(attrs, x):
    return x.T


def _vjp_transpose(E, g, out, ins, node, live):
    return (g.T,)


def _fw_reshape(attrs, x):
    return x.reshape(attrs["shape"])


def _vjp_reshape(E, g, out, ins, node, live):
    return (E.op("reshape", g, shape=ins[0].shape),)


def _fw_slice(attrs, x):
    return x[attrs["key"]]


def _fw_im2col(attrs, x):
    return _im2col_values(x, attrs["kh"], attrs["kw"], attrs["stride"])


def _vjp_im2col(E, g, out, ins, node, live):
    return (E.op("col2im", g, x_shape=ins[0].shape, **node.attrs),)


def _fw_col2im(attrs, x):
    return _col2im_values(x, attrs["x_shape"], attrs["kh"], attrs["kw"], attrs["stride"])


_OPS = {
    "add": (_fw_add, _vjp_add),
    "mul": (_fw_mul, _vjp_mul),
    "div": (_fw_div, _vjp_div),
    "matmul": (_fw_matmul, _vjp_matmul),
    "affine": (_fw_affine, _vjp_affine),
    "tanh": (_fw_tanh, _vjp_tanh),
    "sigmoid": (_fw_sigmoid, _vjp_sigmoid),
    "log": (_fw_log, _vjp_log),
    "square": (_fw_square, _vjp_square),
    "sum": (_fw_sum, _vjp_sum),
    "mean": (_fw_mean, _vjp_mean),
    "concat": (_fw_concat, _vjp_concat),
    "l2norm": (_fw_l2norm, _vjp_l2norm),
    "minimum": (_fw_minimum, _vjp_minimum),
    "transpose": (_fw_transpose, _vjp_transpose),
    "reshape": (_fw_reshape, _vjp_reshape),
    "slice": (_fw_slice, None),
    "im2col": (_fw_im2col, _vjp_im2col),
    "col2im": (_fw_col2im, None),
}

_BINARY_ELEMWISE = frozenset({"add", "mul", "div", "minimum"})


def apply(kind, inputs, **attrs):
    """Build a graph node for one kind of the operation table."""
    if kind not in _OPS:
        raise ValueError(f"unknown operation kind: {kind!r}")
    required = _REQUIRED_ATTRS.get(kind)
    if required and not all(a in attrs for a in required):
        raise ValueError(f"{kind} needs " + " and ".join(f"{a}=" for a in required))
    inputs = tuple([x if isinstance(x, TensorNode) else _as_node(x) for x in inputs])
    try:
        values = _OPS[kind][0](attrs, *[x.values for x in inputs])
    except ValueError:
        if kind in _BINARY_ELEMWISE:  # numpy could not broadcast the operands
            raise ShapeMismatchError(kind, tuple(x.shape for x in inputs)) from None
        raise
    return TensorNode(values, kind, inputs, attrs)


def pack(leaves):
    """Copy the leaves' values, in order, into one new flat array and make
    each leaf's `values` a view of its slice; returns the flat array."""
    flat = np.concatenate([p.values.reshape(-1) for p in leaves])
    start = 0
    for p in leaves:
        stop = start + p.values.size
        p.values = flat[start:stop].reshape(p.values.shape)
        start = stop
    return flat


# ---------------------------------------------------------------------------
# Backward passes
# ---------------------------------------------------------------------------

def _live_nodes(root, targets):
    """The operation nodes on a path from root to one of the `targets`,
    each with its inputs' live flags, in post-order: an iterative
    depth-first walk that visits each node's inputs last-first. The VJPs
    run in the reverse of this order, which fixes the order in which a
    node's adjoint contributions are summed."""
    live = set(targets)
    done = {}  # node -> True once its inputs are walked, False while they are
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        state = done.get(node)
        if state is None:  # first visit: come back after its inputs
            done[node] = False
            stack.append(node)
            for inp in node.inputs:
                if inp.op is not None and inp not in done:
                    stack.append(inp)
        elif not state:  # its inputs are walked
            done[node] = True
            flags = [inp in live for inp in node.inputs]
            if True in flags:
                live.add(node)
                order.append((node, flags))
    return order


def _run_backward(root, leaves, create_graph):
    """Adjoints by node, computing only the VJPs on a path to a leaf: on
    arrays, or recorded as graph nodes when `create_graph` is set."""
    E = GRAPH if create_graph else EAGER
    seed = np.ones(root.shape, dtype=root.dtype)
    adjoint = {root: _as_node(seed) if create_graph else seed}
    targets = set(leaves)
    for node, live in reversed(_live_nodes(root, targets)):
        # a node's adjoint is complete once its VJP runs; only the named
        # nodes' adjoints are kept beyond that
        g = adjoint[node] if node in targets else adjoint.pop(node)
        vjp = _OPS[node.op][1]
        if vjp is None:  # slice and col2im exist only inside a recorded gradient
            raise NotImplementedError(
                f"second-order gradients through {node.op} are not supported")
        if create_graph:
            grads = vjp(E, g, node, node.inputs, node, live)
        else:
            grads = vjp(E, g, node.values, [x.values for x in node.inputs], node, live)
        for inp, gi in zip(node.inputs, grads):
            if gi is not None:
                prev = adjoint.get(inp)
                adjoint[inp] = gi if prev is None else prev + gi
    return adjoint


def backward(root, params):
    """Gradients of a scalar node with respect to the leaves `params`, as a
    list in their order; a parameter the root does not depend on gets a
    zero array."""
    if root.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.shape}")
    adjoint = _run_backward(root, params, create_graph=False)
    return [adjoint[p] if p in adjoint else np.zeros_like(p.values) for p in params]


def input_gradient(scalar, wrt):
    """d scalar / d wrt as a graph node, itself differentiable again."""
    if scalar.size != 1:
        raise ValueError("input_gradient needs a scalar node")
    g = _run_backward(scalar, [wrt], create_graph=True).get(wrt)
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
