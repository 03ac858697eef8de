"""Agent and expert replay storage: ring buffer, observation-window
assembly with episode-boundary handling, and the expert dataset format.

A pushed frame carries the action/reward of the transition *into* it;
the first frame of an episode is pushed with action=None. Each slot holds
its frame's age, its index within its episode (-1: never written), and
windows follow from the ages: front-padded by repeating the episode's
earliest stored frame, so the encoder always sees exactly d frames. One
d + 1 frame walk gives both windows of a transition. There is one
window-assembly path: the expert sampler fills a ring of exactly its
dataset's size in bulk, leaving it as pushing every frame in order would,
and gathers through the same code as the agent's buffer.

Image frames (two or more axes) are stored as their 2-bit codes 2·x,
four pixels a byte (the first pixel in the low bits, the last byte of a
frame padded with zero codes), a sixteenth of their float32 size. The
renderer emits only float32 0, 0.5 and 1, so the codes are lossless: a
gathered batch decodes through one table from a byte to its four float32
pixels, bit-equal to the frames pushed. An image frame that is not
float32, or holds any other value, -0.0 included, is refused, whether
pushed or in an expert dataset. Vector frames are stored as float32.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

DATASET_MAGIC = b"LAIFO1"
_IMAGE_VALUES = "image frames must hold only 0, 0.5 and 1, as float32"
# the float32 bit patterns of the two nonzero image values with a code
_HALF_BITS, _ONE_BITS = np.float32([0.5, 1.0]).view(np.uint32)
# c0 + c1·2^8 + c2·2^16 + c3·2^24 (four byte codes read as one
# little-endian word) times this holds c0 + c1·2^2 + c2·2^4 + c3·2^6 in
# its top byte, the word's fourth: no two of the other products overlap
# or carry into it
_PACK = np.uint32(1 << 24 | 1 << 18 | 1 << 12 | 1 << 6)
_WORD = np.dtype("<u4")
# byte b -> the four float32 pixels 0.5·((b >> 2k) & 3), as one 16-byte item
_UNPACK = (0.5 * (np.arange(256)[:, None] >> np.arange(0, 8, 2) & 3)).astype(
    np.float32).view("V16")[:, 0]


def _encode(frames, pixels):
    """The (n, ⌈pixels/4⌉) packed 2-bit codes 2·x of n float32 image frames
    of `pixels` values each, or None unless every value is bitwise 0.0,
    0.5 or 1.0, i.e. unless the codes decode to the frames bit for bit."""
    if frames.dtype != np.float32:
        return None
    bits = frames.view(np.uint32)
    one = (bits == _ONE_BITS).view(np.uint8)
    codes = (bits == _HALF_BITS).view(np.uint8)
    codes += one
    codes += one
    # codes are nonzero exactly where bits are 0.5 or 1.0; any other
    # nonzero pattern (-0.0 and NaN included) leaves the counts unequal
    if np.count_nonzero(codes) != np.count_nonzero(bits):
        return None
    codes = codes.reshape(-1, pixels)
    if pixels % 4:
        codes = np.pad(codes, ((0, 0), (0, -pixels % 4)))
    words = codes.view(_WORD)
    words *= _PACK
    return words.view(np.uint8)[:, 3::4]


def _decode(packed, obs_shape):
    """The float32 frames (..., *obs_shape) of packed codes (..., bytes)."""
    frames = _UNPACK.take(packed).view(np.float32)
    pixels = math.prod(obs_shape)
    if frames.shape[-1] != pixels:
        frames = frames[..., :pixels]
    return frames.reshape(*packed.shape[:-1], *obs_shape)


@dataclass
class StackedBatch:
    """`windows` and `next_windows` are two views of one (B, d + 1, *obs)
    array: nothing may write into a batch."""
    windows: np.ndarray        # (B, d, *obs)
    actions: np.ndarray | None  # (B, *act)
    rewards: np.ndarray        # (B,)
    next_windows: np.ndarray   # (B, d, *obs)


class ReplayBuffer:
    """Ring of the last `capacity` frames with the action and reward of the
    transition into each. Image frames are kept as packed 2-bit codes 2·x
    and must be float32 holding only 0, 0.5 and 1; vector frames are kept
    as float32."""

    def __init__(self, capacity, obs_shape, act_shape):
        if capacity < 2:
            raise ValueError("capacity must be at least 2 frames")
        self.capacity = int(capacity)
        self.obs_shape = tuple(obs_shape)
        self.act_shape = tuple(act_shape)
        self._pixels = math.prod(self.obs_shape) if len(self.obs_shape) >= 2 else None
        self._obs = (np.zeros((self.capacity, *self.obs_shape), dtype=np.float32)
                     if self._pixels is None else
                     np.zeros((self.capacity, -(-self._pixels // 4)), dtype=np.uint8))
        self._act = np.zeros((self.capacity, *self.act_shape), dtype=np.float32)
        self._rew = np.zeros(self.capacity, dtype=np.float64)
        self._age = np.full(self.capacity, -1, dtype=np.int64)
        self._idx = 0          # next slot to write
        self.size = 0          # frames currently stored
        self._prev_done = True

    def push(self, observation, action=None, reward=0.0, done=False):
        obs = np.asarray(observation)
        if obs.shape != self.obs_shape:
            raise ValueError(
                f"observation shape {obs.shape} does not match buffer {self.obs_shape}")
        if self._pixels:
            obs = _encode(obs, self._pixels)
            if obs is None:
                raise ValueError(_IMAGE_VALUES)
        if action is None:
            if not self._prev_done:
                raise ValueError("action=None is only valid for an episode's first frame")
            act = np.zeros(self.act_shape, dtype=np.float32)
        else:
            act = np.asarray(action, dtype=np.float32)
            if act.shape != self.act_shape:
                raise ValueError(
                    f"action shape {act.shape} does not match buffer {self.act_shape}")
            if self._prev_done:
                raise ValueError("first frame after reset must be pushed with action=None")
        i = self._idx
        self._obs[i] = obs
        self._act[i] = act
        self._rew[i] = reward
        # the previous push is in slot i - 1: slot -1, the last, at i = 0
        self._age[i] = 0 if action is None else self._age[i - 1] + 1
        self._idx = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)
        self._prev_done = bool(done)

    def _valid_sources(self, idx):
        """Mask of slots that start a stored transition: the next slot holds
        a frame of age > 0, pushed right after this slot's frame, and this
        slot is not the newest (the only one rewritten since then)."""
        ok = self._age[(idx + 1) % self.capacity] > 0
        return ok & (idx != (self._idx - 1) % self.capacity)

    def _transition_sources(self):
        idx = np.arange(self.capacity)
        return idx[self._valid_sources(idx)]

    def _sample_sources(self, batch, rng):
        """Uniform transition sources by rejection from stored slots."""
        out = np.empty(batch, dtype=np.int64)
        have = 0
        for _ in range(16):
            draw = rng.integers(0, self.size, size=2 * (batch - have) + 8)
            good = draw[self._valid_sources(draw)]
            take = min(len(good), batch - have)
            out[have:have + take] = good[:take]
            have += take
            if have == batch:
                return out
        sources = self._transition_sources()  # sparse buffer: exact fallback
        if len(sources) == 0:
            raise ValueError("buffer holds no complete transition")
        out[have:] = sources[rng.integers(0, len(sources), size=batch - have)]
        return out

    def _window_indices(self, ends, d):
        """(B, d) slot indices of the windows ending at `ends`, repeat-
        padded at the episode head (or its earliest surviving frame)."""
        oldest = self._idx if self.size == self.capacity else 0
        reach = np.minimum(self._age[ends], (ends - oldest) % self.capacity)
        back = np.minimum(np.arange(d - 1, -1, -1), reach[:, None])
        return (ends[:, None] - back) % self.capacity

    def sample_stacked(self, batch, d, rng):
        if d < 1:
            raise ValueError("d must be >= 1")
        if self.size < 2:
            raise ValueError("buffer holds no complete transition")
        return self._gather(self._sample_sources(batch, rng), d)

    def _frames(self, slots):
        """The float32 frames stored at `slots`."""
        frames = self._obs[slots]
        return frames if self._pixels is None else _decode(frames, self.obs_shape)

    def _gather(self, picks, d):
        """The StackedBatch of the transitions starting at slots `picks`."""
        succ = (picks + 1) % self.capacity
        frames = self._frames(self._window_indices(succ, d + 1))
        return StackedBatch(frames[:, :-1], self._act[succ], self._rew[succ], frames[:, 1:])


# ---------------------------------------------------------------------------
# Expert datasets
# ---------------------------------------------------------------------------

@dataclass
class Episode:
    observations: np.ndarray          # (n, *obs) float32
    actions: np.ndarray | None = None  # (n-1, *act) float32
    rewards: np.ndarray | None = None  # (n-1,) float32

    def __len__(self):
        return len(self.observations)


@dataclass
class ExpertDataset:
    env_id: str
    obs_shape: tuple
    act_shape: tuple
    episodes: list[Episode] = field(default_factory=list)

    @property
    def has_actions(self):
        return bool(self.episodes) and all(ep.actions is not None for ep in self.episodes)

    @property
    def has_rewards(self):
        return bool(self.episodes) and all(ep.rewards is not None for ep in self.episodes)

    @property
    def count(self):
        return len(self.episodes)

    def mean_return(self):
        if not self.has_rewards:
            raise ValueError("dataset has no rewards")
        return float(np.mean([ep.rewards.sum() for ep in self.episodes]))

    def validate(self):
        for k, ep in enumerate(self.episodes):
            n = len(ep.observations)
            if n == 0:
                raise ValueError(f"episode {k}: no frames")
            if ep.observations.shape[1:] != tuple(self.obs_shape):
                raise ValueError(f"episode {k}: observation shape mismatch")
            if ep.actions is not None and ep.actions.shape != (n - 1, *self.act_shape):
                raise ValueError(f"episode {k}: expected actions of shape "
                                 f"{(n - 1, *self.act_shape)}, got {ep.actions.shape}")
            if ep.rewards is not None and len(ep.rewards) != n - 1:
                raise ValueError(f"episode {k}: expected {n - 1} rewards")
            for name in ("observations", "actions", "rewards"):
                values = getattr(ep, name)
                if values is not None and not np.isfinite(values).all():
                    raise ValueError(f"episode {k}: {name} hold NaN or inf")


def save_dataset(dataset, path):
    dataset.validate()
    has_a = bool(dataset.has_actions)
    has_r = bool(dataset.has_rewards)
    header = {
        "env": dataset.env_id,
        "obs_shape": list(dataset.obs_shape),
        "act_shape": list(dataset.act_shape),
        "episodes": dataset.count,
        "dtype": "f32le",
        "has_actions": has_a,
        "has_rewards": has_r,
    }
    with open(path, "wb") as f:
        _write_header(f, DATASET_MAGIC, header)
        for ep in dataset.episodes:
            n = len(ep.observations)
            f.write(struct.pack("<I", n))
            f.write(ep.observations.astype("<f4").tobytes())
            if has_a:
                f.write(ep.actions.astype("<f4").tobytes())
            if has_r:
                f.write(ep.rewards.astype("<f4").tobytes())


def _write_header(f, magic, header):
    """The framing both on-disk formats open with: the magic bytes, a u32 LE
    length, then the header as UTF-8 JSON."""
    raw = json.dumps(header).encode("utf-8")
    f.write(magic)
    f.write(struct.pack("<I", len(raw)))
    f.write(raw)


def _read_header(f, magic, kind, what, keys):
    """The values of `keys` in the JSON header written by `_write_header`;
    errors call the file a `kind` and the header its `what`."""
    got = f.read(len(magic))
    if got != magic:
        raise ValueError(f"bad {kind} magic {got!r}")
    (n,) = struct.unpack("<I", _read_exact(f, 4, f"{what} length"))
    return _require(json.loads(_read_exact(f, n, what).decode("utf-8")), keys, what)


def _read_exact(f, n, what):
    raw = f.read(n)
    if len(raw) != n:
        raise ValueError(f"truncated {what}: expected {n} bytes")
    return raw


def _require(header, keys, what):
    """The values of `keys` in a decoded JSON header, each of the type `keys`
    maps it to (`tuple`: a shape, from a list of ints; a bool is no int).
    Ints, alone or in a shape, are sizes and must not be negative. A
    ValueError names the first key the header lacks or has of another type
    or sign."""
    out = []
    for key, kind in keys.items():
        if not isinstance(header, dict) or key not in header:
            raise ValueError(f"{what} has no {key!r} entry")
        value = header[key]
        if kind is tuple and type(value) is list and all(type(n) is int for n in value):
            value = tuple(value)
        if type(value) is not kind:
            wanted = "a list of ints" if kind is tuple else kind.__name__
            raise ValueError(f"{what} entry {key!r} must be {wanted}, got {value!r}")
        if kind in (int, tuple) and np.any(np.asarray(value) < 0):
            raise ValueError(f"{what} entry {key!r} must not be negative, got {header[key]!r}")
        out.append(value)
    return out


def load_dataset(path):
    with open(path, "rb") as f:
        env_id, obs_shape, act_shape, n_episodes, dtype, has_a, has_r = _read_header(
            f, DATASET_MAGIC, "dataset", "dataset header",
            {"env": str, "obs_shape": tuple, "act_shape": tuple, "episodes": int,
             "dtype": str, "has_actions": bool, "has_rewards": bool})
        if dtype != "f32le":
            raise ValueError(f"dataset header entry 'dtype' must be 'f32le', got {dtype!r}")
        obs_size = int(np.prod(obs_shape))
        act_size = int(np.prod(act_shape)) if act_shape else 1
        episodes = []
        for k in range(n_episodes):
            head = f.read(4)
            if len(head) != 4:
                raise ValueError(
                    f"dataset header promises {n_episodes} episodes, "
                    f"found only {k}")
            (n,) = struct.unpack("<I", head)
            if n == 0:
                raise ValueError(f"dataset episode {k} declares no frames")
            obs = np.frombuffer(
                _read_exact(f, 4 * n * obs_size, "dataset observations"), dtype="<f4"
            ).reshape(n, *obs_shape).copy()
            actions = rewards = None
            if has_a:
                actions = np.frombuffer(
                    _read_exact(f, 4 * (n - 1) * act_size, "dataset actions"), dtype="<f4"
                ).reshape(n - 1, *act_shape).copy()
            if has_r:
                rewards = np.frombuffer(
                    _read_exact(f, 4 * (n - 1), "dataset rewards"), dtype="<f4").copy()
            episodes.append(Episode(obs, actions, rewards))
        if f.read(1):
            raise ValueError("trailing bytes after declared episodes")
    ds = ExpertDataset(env_id, obs_shape, act_shape, episodes)
    ds.validate()
    return ds


class ExpertWindowSampler:
    """Uniform sampler of stacked transition windows from an immutable
    expert dataset. The episodes are copied in bulk into a ring of exactly
    their frame count, so the windows are those of the agent's buffer."""

    def __init__(self, dataset, d):
        if dataset.count == 0:
            raise ValueError("empty expert dataset")
        if any(len(ep) < 2 for ep in dataset.episodes):
            raise ValueError("every expert episode needs at least 2 observations")
        dataset.validate()
        self.has_actions = dataset.has_actions
        self.d = d
        # the ring as pushing every frame in order leaves it: an episode's
        # first frame carries zero action and reward, the ring is full (its
        # next write wraps to slot 0) and the last frame ended an episode
        ring = ReplayBuffer(sum(len(ep) for ep in dataset.episodes),
                            dataset.obs_shape, dataset.act_shape)
        start = 0
        for k, ep in enumerate(dataset.episodes):
            end = start + len(ep)
            frames = ep.observations
            if ring._pixels:
                frames = _encode(frames, ring._pixels)
                if frames is None:  # a LAIFO1 file may hold any float32
                    raise ValueError(f"episode {k}: {_IMAGE_VALUES}")
            ring._obs[start:end] = frames
            if ep.actions is not None:
                ring._act[start + 1:end] = ep.actions
            if ep.rewards is not None:
                ring._rew[start + 1:end] = ep.rewards
            ring._age[start:end] = np.arange(len(ep))
            start = end
        ring._idx, ring.size = 0, ring.capacity
        self._ring = ring
        self._sources = ring._transition_sources()

    def sample(self, batch, rng, with_actions=False):
        """A StackedBatch of uniformly drawn transitions; its actions are
        None unless `with_actions`."""
        picks = self._sources[rng.integers(0, len(self._sources), size=batch)]
        if with_actions and not self.has_actions:
            raise ValueError("expert dataset has no actions")
        out = self._ring._gather(picks, self.d)
        if not with_actions:
            out.actions = None
        return out
