"""The four parameterized functions of the imitation game: feature
extractor, actor, twin critics with slow targets, and discriminator.

Every network offers two forward paths: `forward` builds autodiff graph
nodes (for training), `values` is a plain-numpy fast path (for acting,
targets and anything under a stop-gradient).
"""

from __future__ import annotations

import json
import struct

import numpy as np

from . import autodiff as ad
from .autodiff import TensorNode, apply, sigmoid_values, tensor
from .replay import _read_exact

CKPT_MAGIC = b"LAIFO-CKPT1"


def _fan_in(rng, n_in, n_out, dtype):
    bound = 1.0 / np.sqrt(n_in)
    w = rng.uniform(-bound, bound, size=(n_in, n_out)).astype(dtype)
    b = rng.uniform(-bound, bound, size=(n_out,)).astype(dtype)
    return w, b


class Mlp:
    """Fully connected stack; optionally zero-initialized final layer."""

    def __init__(self, rng, sizes, activation="relu", zero_last=False,
                 name="mlp", dtype=np.float64):
        self.activation = activation
        self.name = name
        self.weights = []
        self.biases = []
        for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            last = i == len(sizes) - 2
            if last and zero_last:
                w = np.zeros((n_in, n_out), dtype=dtype)
                b = np.zeros(n_out, dtype=dtype)
            else:
                w, b = _fan_in(rng, n_in, n_out, dtype)
            self.weights.append(tensor(w, name=f"{name}.l{i}.W"))
            self.biases.append(tensor(b, name=f"{name}.l{i}.b"))

    def _act_node(self, h):
        return apply(self.activation, [h])

    def _act_values(self, h):
        if self.activation == "relu":
            return np.maximum(h, 0.0)
        return np.tanh(h)

    def forward(self, x):
        h = x if isinstance(x, TensorNode) else tensor(x)
        n = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = apply("affine", [h, w, b])
            if i < n - 1:
                h = self._act_node(h)
        return h

    def values(self, x, params=None):
        """Plain-numpy forward pass. `params` (weight arrays then bias
        arrays, as `params()` orders them) stands in for the live values,
        e.g. for target copies."""
        h = np.asarray(x)
        n = len(self.weights)
        for i in range(n):
            if params is None:  # no list is built on the acting path
                w, b = self.weights[i].values, self.biases[i].values
            else:
                w, b = params[i], params[n + i]
            h = h @ w + b
            if i < n - 1:
                h = self._act_values(h)
        return h

    def params(self):
        return self.weights + self.biases


def _normalize_node(h, z_dim):
    # feature standardization then tanh: keeps the latent cloud at unit
    # scale so a norm-1 gradient penalty does not flatten the discriminator
    b = h.shape[0]
    mu = apply("reshape", [apply("mean", [h], axis=1)], shape=(b, 1))
    c = h - mu
    rms = apply("reshape", [apply("l2norm", [c], axis=1)],
                shape=(b, 1)) * (1.0 / np.sqrt(z_dim))
    return apply("tanh", [apply("div", [c, rms])])


def _normalize_values(h):
    c = h - h.mean(axis=1, keepdims=True)
    rms = np.sqrt(np.sum(c * c, axis=1, keepdims=True) / h.shape[1] + 1e-12 / h.shape[1])
    return np.tanh(c / rms)


class VectorEncoder:
    """Feature extractor for stacked vector observations: the d most
    recent observations plus their scaled frame-to-frame differences,
    flattened, through a tanh MLP into a normalized, tanh-squashed latent.

    The difference features are an affine re-basis of the window (no new
    information), but without them the inter-frame displacement that
    carries the hidden velocity is orders of magnitude below the position
    scale and the trunk never resolves it at desk scale."""

    DIFF_SCALE = 20.0  # lifts typical per-frame displacements to O(1)

    def __init__(self, rng, obs_dim, d, z_dim, hidden=256, dtype=np.float64):
        self.obs_dim = obs_dim
        self.d = d
        self.z_dim = z_dim
        in_dim = obs_dim * d + (obs_dim * (d - 1) if d > 1 else 0)
        self.mlp = Mlp(rng, [in_dim, hidden, hidden, z_dim],
                       activation="tanh", name="enc", dtype=dtype)

    def _flatten(self, window):
        arr = np.asarray(window)
        if arr.ndim == 2:
            arr = arr[None]
        if arr.shape[1] != self.d or arr.shape[2] != self.obs_dim:
            raise ValueError(
                f"encoder expects windows of {self.d} frames x {self.obs_dim} dims, "
                f"got {arr.shape[1:]}")
        b = arr.shape[0]
        if self.d == 1:
            return arr.reshape(b, -1)
        diffs = (arr[:, 1:] - arr[:, :-1]) * self.DIFF_SCALE
        return np.concatenate([arr.reshape(b, -1), diffs.reshape(b, -1)], axis=1)

    def forward(self, window):
        return _normalize_node(self.mlp.forward(tensor(self._flatten(window))),
                               self.z_dim)

    def values(self, window):
        return _normalize_values(self.mlp.values(self._flatten(window)))

    def params(self):
        return self.mlp.params()


class PixelEncoder:
    """Feature extractor for stacked grayscale frames: two 3x3 stride-2
    convolutions (the d frames are the input channels) and a linear head."""

    KH = KW = 3
    STRIDE = 2

    def __init__(self, rng, image_size, d, z_dim, channels=(16, 32), dtype=np.float64):
        self.image_size = image_size
        self.d = d
        self.z_dim = z_dim
        self.channels = channels
        c_in = d
        self.conv_w = []
        self.conv_b = []
        side = image_size
        for i, c_out in enumerate(channels):
            w, b = _fan_in(rng, c_in * self.KH * self.KW, c_out, dtype)
            self.conv_w.append(tensor(w, name=f"enc.c{i}.W"))
            self.conv_b.append(tensor(b, name=f"enc.c{i}.b"))
            side = (side - self.KH) // self.STRIDE + 1
            c_in = c_out
        self.out_side = side
        flat = side * side * channels[-1]
        w, b = _fan_in(rng, flat, z_dim, dtype)
        self.head_w = tensor(w, name="enc.head.W")
        self.head_b = tensor(b, name="enc.head.b")

    def _check(self, window):
        arr = np.asarray(window)
        if arr.ndim == 3:
            arr = arr[None]
        if arr.shape[1] != self.d or arr.shape[2:] != (self.image_size, self.image_size):
            raise ValueError(
                f"encoder expects windows of {self.d} frames of "
                f"{self.image_size}x{self.image_size}, got {arr.shape[1:]}")
        # stacked frames become input channels, laid out channels-last
        return np.ascontiguousarray(arr.transpose(0, 2, 3, 1))

    def forward(self, window):
        x = self._check(window)
        b = x.shape[0]
        side = self.image_size
        h = tensor(x)
        for w, bias in zip(self.conv_w, self.conv_b):
            cols = apply("im2col", [h], kh=self.KH, kw=self.KW, stride=self.STRIDE)
            out = apply("relu", [apply("affine", [cols, w, bias])])
            side = (side - self.KH) // self.STRIDE + 1
            h = apply("reshape", [out], shape=(b, side, side, w.shape[1]))
        flat = apply("reshape", [h], shape=(b, h.size // b))
        head = apply("affine", [flat, self.head_w, self.head_b])
        return _normalize_node(head, self.z_dim)

    def values(self, window):
        x = self._check(window)
        b = x.shape[0]
        side = self.image_size
        h = x
        for w, bias in zip(self.conv_w, self.conv_b):
            cols = ad._im2col_values(h, self.KH, self.KW, self.STRIDE)
            out = np.maximum(cols @ w.values + bias.values, 0.0)
            side = (side - self.KH) // self.STRIDE + 1
            h = out.reshape(b, side, side, w.shape[1])
        return _normalize_values(
            h.reshape(b, -1) @ self.head_w.values + self.head_b.values)

    def params(self):
        return self.conv_w + self.conv_b + [self.head_w, self.head_b]


class Actor:
    """Deterministic policy head: latent to an action in [-1, 1]^dim via
    a final tanh squash; exploration noise is added outside the network."""

    def __init__(self, rng, z_dim, act_dim, hidden=256, dtype=np.float64):
        self.act_dim = act_dim
        self.mlp = Mlp(rng, [z_dim, hidden, hidden, act_dim], activation="relu",
                       zero_last=True, name="actor", dtype=dtype)

    def forward(self, z):
        return apply("tanh", [self.mlp.forward(z)])

    def values(self, z):
        return np.tanh(self.mlp.values(z))

    def params(self):
        return self.mlp.params()


def act(actor, z, sigma, clip_c, rng):
    """Action with exploration noise: clipped-normal noise when clip_c is
    given (update rule), raw normal otherwise (environment interaction).
    The final action is always clamped to [-1, 1]."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    mean = actor.values(np.atleast_2d(z))
    if sigma > 0:
        eps = rng.normal(0.0, sigma, size=mean.shape)
        if clip_c is not None:
            eps = np.clip(eps, -clip_c, clip_c)
    else:
        eps = 0.0
    out = np.clip(mean + eps, -1.0, 1.0)
    return out[0] if np.asarray(z).ndim == 1 else out


class TwinCritics:
    """Two Q heads over (latent, action) plus slow-moving target copies."""

    def __init__(self, rng, z_dim, act_dim, hidden=256, dtype=np.float64):
        sizes = [z_dim + act_dim, hidden, hidden, 1]
        self.q1 = Mlp(rng, sizes, zero_last=True, name="q1", dtype=dtype)
        self.q2 = Mlp(rng, sizes, zero_last=True, name="q2", dtype=dtype)
        self.t1 = [p.values.copy() for p in self.q1.params()]
        self.t2 = [p.values.copy() for p in self.q2.params()]

    def forward(self, z, a):
        z = z if isinstance(z, TensorNode) else tensor(np.atleast_2d(z))
        a = a if isinstance(a, TensorNode) else tensor(np.atleast_2d(a))
        x = apply("concat", [z, a], axis=1)
        return self.q1.forward(x), self.q2.forward(x)

    def values(self, z, a, use_target=False):
        x = np.concatenate([np.atleast_2d(z), np.atleast_2d(a)], axis=1)
        if not use_target:
            return self.q1.values(x)[:, 0], self.q2.values(x)[:, 0]
        return self.q1.values(x, self.t1)[:, 0], self.q2.values(x, self.t2)[:, 0]

    def soft_update(self, tau):
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {tau}")
        for tgt, net in ((self.t1, self.q1), (self.t2, self.q2)):
            for t, p in zip(tgt, net.params()):
                t *= 1.0 - tau
                t += tau * p.values

    def params(self):
        return self.q1.params() + self.q2.params()


class Discriminator:
    """Tells expert pairs from agent pairs. `pairing` fixes the second
    input: the successor latent (transition mode) or the action."""

    def __init__(self, rng, z_dim, right_dim, pairing="transition",
                 hidden=256, dtype=np.float64):
        if pairing not in ("transition", "action"):
            raise ValueError(f"unknown pairing {pairing!r}")
        self.pairing = pairing
        self.z_dim = z_dim
        self.right_dim = right_dim
        self.mlp = Mlp(rng, [z_dim + right_dim, hidden, hidden, 1],
                       activation="relu", name="disc", dtype=dtype)

    def _check_right(self, right):
        right = np.atleast_2d(np.asarray(right))
        if right.shape[1] != self.right_dim:
            raise ValueError(
                f"discriminator in {self.pairing!r} mode expects right input of "
                f"width {self.right_dim}, got {right.shape[1]}")
        return right

    def score(self, pairs):
        """Pre-sigmoid logit node for already-concatenated (left, right)
        rows; this is the function the gradient penalty differentiates."""
        x = pairs if isinstance(pairs, TensorNode) else tensor(pairs)
        return self.mlp.forward(x)

    def score_values(self, left, right):
        x = np.concatenate([np.atleast_2d(left), self._check_right(right)], axis=1)
        return self.mlp.values(x)[:, 0]

    def params(self):
        return self.mlp.params()


def discriminate(disc, left, right):
    """Probability the pair came from the expert; strictly inside (0, 1)."""
    out = sigmoid_values(disc.score_values(left, right))
    return np.clip(out, np.finfo(out.dtype).tiny, 1.0 - np.finfo(out.dtype).epsneg)


# ---------------------------------------------------------------------------
# Checkpoints: magic, length-prefixed JSON manifest, float64 LE arrays.
# ---------------------------------------------------------------------------

def save_checkpoint(path, named_params):
    """named_params: iterable of (name, ndarray)."""
    items = [(name, np.asarray(arr, dtype=np.float64)) for name, arr in named_params]
    manifest = json.dumps(
        {"params": [{"name": n, "shape": list(a.shape)} for n, a in items]}
    ).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", len(manifest)))
        f.write(manifest)
        for _, a in items:
            f.write(a.astype("<f8").tobytes())


def load_checkpoint(path):
    """Returns dict name -> float64 array. A file cut short, or with bytes
    after its last array, raises ValueError."""
    with open(path, "rb") as f:
        magic = f.read(len(CKPT_MAGIC))
        if magic != CKPT_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}")
        (n,) = struct.unpack("<I", _read_exact(f, 4, "checkpoint manifest length"))
        manifest = json.loads(_read_exact(f, n, "checkpoint manifest").decode("utf-8"))
        out = {}
        for entry in manifest["params"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            raw = _read_exact(f, count * 8, f"checkpoint array {entry['name']}")
            out[entry["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if f.read(1):
            raise ValueError("trailing bytes after the last checkpoint array")
        return out


def named_params(*nets):
    out = []
    for net in nets:
        for p in net.params():
            out.append((p.name, p.values))
    return out


def load_into(nets_list, loaded):
    for net in nets_list:
        for p in net.params():
            if p.name not in loaded:
                raise ValueError(f"checkpoint missing parameter {p.name}")
            arr = loaded[p.name]
            if arr.shape != p.shape:
                raise ValueError(
                    f"checkpoint shape mismatch for {p.name}: {arr.shape} vs {p.shape}")
            p.values = arr.astype(p.values.dtype)
