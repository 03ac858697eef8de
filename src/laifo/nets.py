"""The parameterized functions of the imitation game: feature extractors,
actor, and twin critics with slow targets. The actor and the
discriminator are plain `Mlp`s, the latter over (z, right) rows; `imitate`
decides whether the right input is the successor latent z' or the action a.

Each network writes its forward pass once, as `run(E, ...)` on an
autodiff executor: `autodiff.GRAPH` builds differentiable nodes (for
training), `autodiff.EAGER` computes plain arrays (for acting, targets
and anything behind a stop-gradient). `forward` and `values` are those
two runs, and their numbers are bit-identical. Every network takes a
batch: (B, d, *obs) windows, (B, z_dim) latents, (B, act_dim) actions.
"""

from __future__ import annotations

import copy

import numpy as np

from .autodiff import EAGER, GRAPH, pack, sigmoid_values, tensor
from .replay import _read_exact, _read_header, _require, _write_header

CKPT_MAGIC = b"LAIFO-CKPT1"


def _fan_in(rng, n_in, n_out, dtype):
    bound = 1.0 / np.sqrt(n_in)
    w = rng.uniform(-bound, bound, size=(n_in, n_out)).astype(dtype)
    b = rng.uniform(-bound, bound, size=(n_out,)).astype(dtype)
    return w, b


class Mlp:
    """Fully connected stack, one `affine` node per layer: `activation`
    after every hidden layer and `out_activation` (None: linear) after the
    last; optionally zero-initialized final layer."""

    def __init__(self, rng, sizes, activation="relu", zero_last=False,
                 name="mlp", dtype=np.float64, out_activation=None):
        self.activation = activation
        self.out_activation = out_activation
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

    def run(self, E, x):
        act = self.activation
        ws, bs = self.weights, self.biases
        for i in range(len(ws) - 1):
            x = E.affine(x, ws[i], bs[i], act)
        return E.affine(x, ws[-1], bs[-1], self.out_activation)

    def forward(self, x):
        return self.run(GRAPH, x)

    def values(self, x):
        return self.run(EAGER, x)

    def params(self):
        return self.weights + self.biases


def _normalize(E, h, z_dim):
    # feature standardization then tanh: keeps the latent cloud at unit
    # scale so a norm-1 gradient penalty does not flatten the discriminator
    c = h - E.op("mean", h, axis=1, keepdims=True)
    # a Python float, so float32 arrays stay float32 on the eager path
    rms = E.op("l2norm", c, axis=1, keepdims=True) * float(1.0 / np.sqrt(z_dim))
    return E.op("tanh", c / rms)


class FlattenEncoder:
    """The encoder of the fully observable learners, which see windows of
    one frame: the flattened state is the latent. It has no parameters."""

    def __init__(self, obs_shape):
        self.z_dim = int(np.prod(obs_shape))

    def values(self, window):
        window = np.asarray(window)
        return window.reshape(window.shape[0], -1)

    def forward(self, window):
        return tensor(self.values(window))

    def params(self):
        return []


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
        in_dim = obs_dim * (2 * d - 1)
        self.mlp = Mlp(rng, [in_dim, hidden, hidden, z_dim],
                       activation="tanh", name="enc", dtype=dtype)

    def _flatten(self, window):
        arr = np.asarray(window)
        if arr.shape[1:] != (self.d, self.obs_dim):
            raise ValueError(
                f"encoder expects windows of {self.d} frames x {self.obs_dim} dims, "
                f"got {arr.shape[1:]}")
        b = arr.shape[0]
        diffs = (arr[:, 1:] - arr[:, :-1]) * self.DIFF_SCALE
        return np.concatenate([arr.reshape(b, -1), diffs.reshape(b, -1)], axis=1)

    def run(self, E, x):
        return _normalize(E, self.mlp.run(E, x), self.z_dim)

    def forward(self, window):
        return self.run(GRAPH, self._flatten(window))

    def values(self, window):
        return self.run(EAGER, self._flatten(window))

    def params(self):
        return self.mlp.params()


class PixelEncoder:
    """Feature extractor for stacked grayscale frames: two 3x3 stride-2
    convolutions (the d frames are the input channels) and a linear head.
    Windows enter in the parameters' dtype, so every product is a plain
    float64 (or float32) GEMM; float32 frames widen to float64 exactly."""

    KH = KW = 3
    STRIDE = 2

    def __init__(self, rng, image_size, d, z_dim, channels=(16, 32), dtype=np.float64):
        self.image_size = image_size
        self.d = d
        self.z_dim = z_dim
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
        flat = side * side * channels[-1]
        w, b = _fan_in(rng, flat, z_dim, dtype)
        self.head_w = tensor(w, name="enc.head.W")
        self.head_b = tensor(b, name="enc.head.b")

    def _check(self, window):
        arr = np.asarray(window)
        if arr.shape[1:] != (self.d, self.image_size, self.image_size):
            raise ValueError(
                f"encoder expects windows of {self.d} frames of "
                f"{self.image_size}x{self.image_size}, got {arr.shape[1:]}")
        # stacked frames become input channels, laid out channels-last
        return np.ascontiguousarray(arr.transpose(0, 2, 3, 1),
                                    dtype=self.head_w.values.dtype)

    def run(self, E, x):
        b = x.shape[0]
        side = self.image_size
        for w, bias in zip(self.conv_w, self.conv_b):
            cols = E.op("im2col", x, kh=self.KH, kw=self.KW, stride=self.STRIDE)
            side = (side - self.KH) // self.STRIDE + 1
            x = E.op("reshape", E.affine(cols, w, bias, "relu"),
                     shape=(b, side, side, w.shape[1]))
        head = E.affine(E.op("reshape", x, shape=(b, x.size // b)), self.head_w, self.head_b)
        return _normalize(E, head, self.z_dim)

    def forward(self, window):
        return self.run(GRAPH, self._check(window))

    def values(self, window):
        return self.run(EAGER, self._check(window))

    def params(self):
        return self.conv_w + self.conv_b + [self.head_w, self.head_b]


def make_actor(rng, z_dim, act_dim, hidden=256, dtype=np.float64):
    """The deterministic policy head, an `Mlp` from latent to an action in
    [-1, 1]^dim via a final tanh squash, its last layer zero; exploration
    noise is added outside the network."""
    return Mlp(rng, [z_dim, hidden, hidden, act_dim], activation="relu",
               zero_last=True, name="actor", dtype=dtype, out_activation="tanh")


def act(actor, z, sigma, clip_c, rng):
    """Actions of latents z (B, z_dim) plus exploration noise, clamped to
    [-1, 1]: the noise is clipped-normal when clip_c is given (update
    rule), raw normal otherwise (environment interaction)."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    mean = actor.values(z)
    if sigma > 0:
        eps = rng.normal(0.0, sigma, size=mean.shape)
        if clip_c is not None:
            eps = np.minimum(np.maximum(eps, -clip_c), clip_c)
    else:
        eps = 0.0
    # np.clip's arithmetic, without its Python wrapper
    return np.minimum(np.maximum(mean + eps, -1.0), 1.0)


class TwinCritics:
    """Two Q heads over (latent, action) plus slow-moving target copies,
    which run through the same body. The targets' values are one flat
    array (`autodiff.pack`), and so are the heads': their own until an
    optimizer packs them again, which must list them first. `soft_update`
    reads the heads as the start of that array, and refuses to run when
    they are not."""

    def __init__(self, rng, z_dim, act_dim, hidden=256, dtype=np.float64):
        sizes = [z_dim + act_dim, hidden, hidden, 1]
        self.q1 = Mlp(rng, sizes, zero_last=True, name="q1", dtype=dtype)
        self.q2 = Mlp(rng, sizes, zero_last=True, name="q2", dtype=dtype)
        self.t1 = copy.deepcopy(self.q1)
        self.t2 = copy.deepcopy(self.q2)
        pack(self.params())
        self._targets = pack(self.t1.params() + self.t2.params())

    def run(self, E, z, a, target=False):
        x = E.op("concat", z, a, axis=1)
        q1, q2 = (self.t1, self.t2) if target else (self.q1, self.q2)
        return q1.run(E, x), q2.run(E, x)

    def forward(self, z, a):
        return self.run(GRAPH, z, a)

    def values(self, z, a, use_target=False):
        q1, q2 = self.run(EAGER, z, a, use_target)
        return q1[:, 0], q2[:, 0]

    def soft_update(self, tau):
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {tau}")
        flat = self.q1.weights[0].values.base
        heads = None if flat is None else flat[:self._targets.size]
        if heads is None or not np.may_share_memory(heads, self.q2.biases[-1].values):
            raise ValueError("the critic heads must lead the flat array that packed them")
        self._targets *= 1.0 - tau
        self._targets += tau * heads

    def params(self):
        return self.q1.params() + self.q2.params()


def discriminate(disc, pairs):
    """Probability that each concatenated (z, right) row of `pairs` came
    from the expert, by the discriminator `Mlp`; strictly inside (0, 1)."""
    out = sigmoid_values(disc.values(pairs)[:, 0])
    return np.clip(out, np.finfo(out.dtype).tiny, 1.0 - np.finfo(out.dtype).epsneg)


# ---------------------------------------------------------------------------
# Checkpoints: magic, length-prefixed JSON manifest, float64 LE arrays.
# ---------------------------------------------------------------------------

def save_checkpoint(path, named_params):
    """named_params: iterable of (name, ndarray)."""
    items = [(name, np.asarray(arr, dtype=np.float64)) for name, arr in named_params]
    manifest = {"params": [{"name": n, "shape": list(a.shape)} for n, a in items]}
    with open(path, "wb") as f:
        _write_header(f, CKPT_MAGIC, manifest)
        for _, a in items:
            f.write(a.astype("<f8").tobytes())


def load_checkpoint(path):
    """Returns dict name -> float64 array. A file cut short, or with bytes
    after its last array, raises ValueError."""
    with open(path, "rb") as f:
        (entries,) = _read_header(f, CKPT_MAGIC, "checkpoint", "checkpoint manifest",
                                  {"params": list})
        out = {}
        for entry in entries:
            name, shape = _require(entry, {"name": str, "shape": tuple},
                                   "checkpoint manifest entry")
            count = int(np.prod(shape)) if shape else 1
            raw = _read_exact(f, count * 8, f"checkpoint array {name}")
            out[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
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
                    f"checkpoint {p.name} has shape {arr.shape}, expected {p.shape}")
            p.values[...] = arr  # in place: an optimizer's flat array holds it
