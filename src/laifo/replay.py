"""Agent and expert replay storage: ring buffer, observation-window
assembly with episode-boundary handling, and the expert dataset format.

A pushed frame carries the action/reward of the transition *into* it;
the first frame of an episode is pushed with action=None. Windows are
front-padded by repeating the earliest frame of the episode, so the
encoder always sees exactly d frames.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

DATASET_MAGIC = b"LAIFO1"


@dataclass
class StackedBatch:
    windows: np.ndarray        # (B, d, *obs)
    actions: np.ndarray        # (B, *act)
    rewards: np.ndarray        # (B,)
    next_windows: np.ndarray   # (B, d, *obs)


class ReplayBuffer:
    def __init__(self, capacity, obs_shape, act_shape):
        if capacity < 2:
            raise ValueError("capacity must be at least 2 frames")
        self.capacity = int(capacity)
        self.obs_shape = tuple(obs_shape)
        self.act_shape = tuple(act_shape)
        self._obs = np.zeros((self.capacity, *self.obs_shape), dtype=np.float32)
        self._act = np.zeros((self.capacity, *self.act_shape), dtype=np.float32)
        self._rew = np.zeros(self.capacity, dtype=np.float64)
        self._episode = np.full(self.capacity, -1, dtype=np.int64)
        self._done = np.zeros(self.capacity, dtype=bool)
        self._idx = 0          # next slot to write
        self.size = 0          # frames currently stored
        self._n_trans = 0      # stored consecutive same-episode pairs
        self._ep_counter = -1
        self._prev_done = True

    def push(self, observation, action=None, reward=0.0, done=False):
        obs = np.asarray(observation, dtype=np.float32)
        if obs.shape != self.obs_shape:
            raise ValueError(
                f"observation shape {obs.shape} does not match buffer {self.obs_shape}")
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
        new_episode = self._prev_done
        if new_episode:
            self._ep_counter += 1
        i = self._idx
        if self.size == self.capacity:
            # overwriting the oldest frame kills the transition it started
            j = (i + 1) % self.capacity
            if self._episode[i] >= 0 and self._episode[j] == self._episode[i]:
                self._n_trans -= 1
        self._obs[i] = obs
        self._act[i] = act
        self._rew[i] = reward
        self._episode[i] = self._ep_counter
        self._done[i] = done
        prev = (i - 1) % self.capacity
        if not new_episode and self._episode[prev] == self._ep_counter:
            self._n_trans += 1
        self._idx = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)
        self._prev_done = bool(done)

    def _valid_sources(self, idx):
        """Mask of slots that start a stored transition: the next ring slot
        holds the same episode's next frame and the slot is not the newest
        frame (whose ring successor is the oldest or unwritten)."""
        nxt = (idx + 1) % self.capacity
        ok = (self._episode[idx] >= 0) & (self._episode[nxt] == self._episode[idx])
        return ok & (idx != (self._idx - 1) % self.capacity)

    def _transition_sources(self):
        if self.size < 2:
            return np.empty(0, dtype=np.int64)
        idx = np.arange(self.capacity)
        ok = self._valid_sources(idx)
        if self.size < self.capacity:
            ok[self.size:] = False
        return idx[ok]

    def n_transitions(self):
        return self._n_trans

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
        out = np.empty((len(ends), d), dtype=np.int64)
        cur = np.asarray(ends, dtype=np.int64)
        out[:, -1] = cur
        ep = self._episode[cur]
        oldest = self._idx % self.capacity if self.size == self.capacity else 0
        for k in range(d - 2, -1, -1):
            prev = (cur - 1) % self.capacity
            ok = (cur != oldest) & (self._episode[prev] == ep)
            cur = np.where(ok, prev, cur)
            out[:, k] = cur
        return out

    def sample_stacked(self, batch, d, rng):
        if d < 1:
            raise ValueError("d must be >= 1")
        if self._n_trans == 0:
            raise ValueError("buffer holds no complete transition")
        picks = self._sample_sources(batch, rng)
        succ = (picks + 1) % self.capacity
        wins = self._obs[self._window_indices(picks, d)]
        nxt_wins = self._obs[self._window_indices(succ, d)]
        return StackedBatch(wins, self._act[succ].copy(), self._rew[succ].copy(),
                            nxt_wins)


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
            if ep.observations.shape[1:] != tuple(self.obs_shape):
                raise ValueError(f"episode {k}: observation shape mismatch")
            if ep.actions is not None and len(ep.actions) != n - 1:
                raise ValueError(f"episode {k}: expected {n - 1} actions")
            if ep.rewards is not None and len(ep.rewards) != n - 1:
                raise ValueError(f"episode {k}: expected {n - 1} rewards")


def save_dataset(dataset, path):
    dataset.validate()
    has_a = bool(dataset.has_actions)
    has_r = bool(dataset.has_rewards)
    header = json.dumps({
        "env": dataset.env_id,
        "obs_shape": list(dataset.obs_shape),
        "act_shape": list(dataset.act_shape),
        "episodes": dataset.count,
        "dtype": "f32le",
        "has_actions": has_a,
        "has_rewards": has_r,
    }).encode("utf-8")
    with open(path, "wb") as f:
        f.write(DATASET_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for ep in dataset.episodes:
            n = len(ep.observations)
            f.write(struct.pack("<I", n))
            f.write(ep.observations.astype("<f4").tobytes())
            if has_a:
                f.write(ep.actions.astype("<f4").tobytes())
            if has_r:
                f.write(ep.rewards.astype("<f4").tobytes())


def _read_exact(f, n, what):
    raw = f.read(n)
    if len(raw) != n:
        raise ValueError(f"truncated {what}: expected {n} bytes")
    return raw


def load_dataset(path):
    with open(path, "rb") as f:
        magic = f.read(len(DATASET_MAGIC))
        if magic != DATASET_MAGIC:
            raise ValueError(f"bad dataset magic {magic!r}")
        (hlen,) = struct.unpack("<I", _read_exact(f, 4, "dataset header length"))
        header = json.loads(_read_exact(f, hlen, "dataset header").decode("utf-8"))
        obs_shape = tuple(header["obs_shape"])
        act_shape = tuple(header["act_shape"])
        obs_size = int(np.prod(obs_shape))
        act_size = int(np.prod(act_shape)) if act_shape else 1
        episodes = []
        for _ in range(header["episodes"]):
            head = f.read(4)
            if len(head) != 4:
                raise ValueError(
                    f"dataset header promises {header['episodes']} episodes, "
                    f"found only {len(episodes)}")
            (n,) = struct.unpack("<I", head)
            obs = np.frombuffer(
                _read_exact(f, 4 * n * obs_size, "dataset observations"), dtype="<f4"
            ).reshape(n, *obs_shape).copy()
            actions = rewards = None
            if header["has_actions"]:
                actions = np.frombuffer(
                    _read_exact(f, 4 * (n - 1) * act_size, "dataset actions"), dtype="<f4"
                ).reshape(n - 1, *act_shape).copy()
            if header["has_rewards"]:
                rewards = np.frombuffer(
                    _read_exact(f, 4 * (n - 1), "dataset rewards"), dtype="<f4").copy()
            episodes.append(Episode(obs, actions, rewards))
        if f.read(1):
            raise ValueError("trailing bytes after declared episodes")
    ds = ExpertDataset(header["env"], obs_shape, act_shape, episodes)
    ds.validate()
    return ds


class ExpertWindowSampler:
    """Uniform sampler of stacked transition windows from an immutable
    expert dataset, padded exactly like the agent buffer."""

    def __init__(self, dataset, d):
        if dataset.count == 0:
            raise ValueError("empty expert dataset")
        self.dataset = dataset
        self.d = d
        counts = np.array([len(ep) - 1 for ep in dataset.episodes])
        if np.any(counts < 1):
            raise ValueError("every expert episode needs at least 2 observations")
        self._ep_of = np.repeat(np.arange(dataset.count), counts)
        self._t_of = np.concatenate([np.arange(c) for c in counts])
        # flatten all episodes for vectorized window gathering
        self._obs = np.concatenate([ep.observations for ep in dataset.episodes])
        offsets = np.cumsum([0] + [len(ep) for ep in dataset.episodes])
        self._start = offsets[:-1]
        if dataset.has_actions:
            self._acts = np.concatenate([ep.actions for ep in dataset.episodes])
            self._act_start = np.cumsum([0] + [len(ep) - 1
                                               for ep in dataset.episodes])[:-1]
        else:
            self._acts = None

    def n_transitions(self):
        return len(self._ep_of)

    def _windows(self, eps, ts):
        # front-padding is clamping the in-episode index at 0
        steps = np.arange(-(self.d - 1), 1)
        rel = np.maximum(ts[:, None] + steps, 0)
        return self._obs[self._start[eps][:, None] + rel]

    def sample(self, batch, rng, with_actions=False):
        picks = rng.integers(0, len(self._ep_of), size=batch)
        eps, ts = self._ep_of[picks], self._t_of[picks]
        acts = None
        if with_actions:
            if self._acts is None:
                raise ValueError("expert dataset has no actions")
            acts = self._acts[self._act_start[eps] + ts].copy()
        return self._windows(eps, ts), acts, self._windows(eps, ts + 1)
