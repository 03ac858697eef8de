import gc
import json
import os
import struct
import weakref

import numpy as np
import pytest

from laifo.envs import PointMass
from laifo.imitate import WindowPolicy
from laifo.nets import CKPT_MAGIC, load_checkpoint
from laifo.replay import (DATASET_MAGIC, Episode, ExpertDataset,
                          ExpertWindowSampler, ReplayBuffer, _decode, _encode,
                          load_dataset, save_dataset)


def _push_episode(buf, frames, done_last=True):
    buf.push(frames[0], action=None)
    for t in range(1, len(frames)):
        buf.push(frames[t], action=np.full(buf.act_shape, t, dtype=np.float32),
                 reward=float(t), done=(t == len(frames) - 1 and done_last))


def test_single_transition_roundtrip():
    buf = ReplayBuffer(capacity=4, obs_shape=(2,), act_shape=(1,))
    buf.push(np.array([1.0, 2.0]), action=None)
    buf.push(np.array([3.0, 4.0]), action=np.array([0.5]), reward=7.0, done=False)
    batch = buf.sample_stacked(1, d=1, rng=np.random.default_rng(0))
    assert np.allclose(batch.windows[0, 0], [1.0, 2.0])
    assert np.allclose(batch.next_windows[0, 0], [3.0, 4.0])
    assert batch.actions[0, 0] == pytest.approx(0.5)
    assert batch.rewards[0] == pytest.approx(7.0)


def test_ring_eviction_of_oldest():
    buf = ReplayBuffer(capacity=4, obs_shape=(1,), act_shape=(1,))
    _push_episode(buf, [np.array([float(i)]) for i in range(5)], done_last=False)
    # 5 pushes into capacity 4: frame 0 evicted
    stored = sorted(float(buf._obs[i, 0]) for i in range(4))
    assert stored == [1.0, 2.0, 3.0, 4.0]
    sources = buf._transition_sources()
    firsts = sorted(float(buf._obs[i, 0]) for i in sources)
    assert firsts == [1.0, 2.0, 3.0]


def test_degenerate_padding_single_transition_episode():
    buf = ReplayBuffer(capacity=8, obs_shape=(1,), act_shape=(1,))
    _push_episode(buf, [np.array([5.0]), np.array([6.0])])
    batch = buf.sample_stacked(3, d=3, rng=np.random.default_rng(1))
    assert np.allclose(batch.windows, 5.0)  # [x0, x0, x0]
    assert np.allclose(batch.next_windows[:, -1], 6.0)
    assert np.allclose(batch.next_windows[:, :-1], 5.0)


def test_d1_windows_are_plain_transitions():
    buf = ReplayBuffer(capacity=16, obs_shape=(1,), act_shape=(1,))
    _push_episode(buf, [np.array([float(i)]) for i in range(5)])
    batch = buf.sample_stacked(32, d=1, rng=np.random.default_rng(2))
    assert np.all(batch.next_windows[:, 0, 0] == batch.windows[:, 0, 0] + 1)


def test_successor_window_is_shift_by_one():
    buf = ReplayBuffer(capacity=64, obs_shape=(1,), act_shape=(1,))
    rng = np.random.default_rng(3)
    for n in (6, 3, 9):
        _push_episode(buf, [rng.standard_normal(1) for _ in range(n)])
    batch = buf.sample_stacked(200, d=4, rng=rng)
    # dropping the oldest frame of the window and appending x_{t+1}
    assert np.allclose(batch.next_windows[:, :-1], batch.windows[:, 1:])


def test_windows_never_cross_episode_boundaries():
    rng = np.random.default_rng(4)
    buf = ReplayBuffer(capacity=128, obs_shape=(1,), act_shape=(1,))
    # encode episode id in the observation, then scan sampled windows
    for ep in range(40):
        n = int(rng.integers(2, 9))
        frames = [np.array([float(ep)]) for _ in range(n)]
        _push_episode(buf, frames)
    batch = buf.sample_stacked(500, d=5, rng=rng)
    for w, nw in zip(batch.windows, batch.next_windows):
        assert len(np.unique(w)) == 1
        assert len(np.unique(nw)) == 1
        assert w[0, 0] == nw[0, 0]


def _logged_windows(log, capacity, g, d):
    """The window ending at push number `g`, by walking the push log back
    one frame at a time: a step stops at the episode's first frame and at
    the oldest frame the ring still holds."""
    oldest = max(0, len(log) - capacity)
    window = [g]
    for _ in range(d - 1):
        g = window[0]
        if g - 1 >= oldest and log[g - 1][0] == log[g][0]:
            g -= 1
        window.insert(0, g)
    return window


def test_agent_windows_across_wraps_match_a_walk_over_the_push_log():
    rng = np.random.default_rng(9)
    buf = ReplayBuffer(capacity=23, obs_shape=(1,), act_shape=(1,))
    log = []  # per push: (episode, action, reward); the frame is the push number
    head_lost = single = 0
    for ep in range(60):  # ~5 frames per episode: the ring wraps about 13 times
        n = int(rng.integers(1, 11))
        single += n == 1
        for t in range(n):
            action = None if t == 0 else rng.standard_normal(1).astype(np.float32)
            reward = 0.0 if t == 0 else float(rng.standard_normal())
            buf.push(np.array([len(log)], dtype=np.float32), action, reward, done=t == n - 1)
            log.append((ep, action, reward))
        oldest = max(0, len(log) - buf.capacity)
        sources = [g for g in range(oldest, len(log) - 1) if log[g][0] == log[g + 1][0]]
        assert sorted(buf._obs[buf._transition_sources(), 0].astype(int)) == sources
        if not sources:
            continue
        head_lost += oldest > 0 and log[oldest - 1][0] == log[oldest][0]
        for d in (1, 2, 4):
            batch = buf.sample_stacked(16, d, rng)
            for w, a, r, nw in zip(batch.windows, batch.actions, batch.rewards,
                                   batch.next_windows):
                g = int(w[-1, 0])
                assert g in sources
                assert w[:, 0].tolist() == _logged_windows(log, buf.capacity, g, d)
                assert nw[:, 0].tolist() == _logged_windows(log, buf.capacity, g + 1, d)
                assert a[0] == log[g + 1][1][0] and r == log[g + 1][2]
    assert single > 0 and head_lost > 0  # one-frame episodes, and overwritten heads


def _two_condition_sources(buf, idx):
    """The reference transition rule: the successor slot holds the same
    episode's next frame (age + 1), and the slot is not the newest."""
    age = buf._age[idx]
    ok = (age >= 0) & (buf._age[(idx + 1) % buf.capacity] == age + 1)
    return ok & (idx != (buf._idx - 1) % buf.capacity)


@pytest.mark.parametrize("seed", range(4))
def test_transition_rule_equals_the_two_condition_rule(seed):
    rng = np.random.default_rng(seed)
    cap = int(rng.integers(2, 24))
    buf = ReplayBuffer(capacity=cap, obs_shape=(1,), act_shape=(1,))
    idx = np.arange(cap)
    valid = 0
    for _ in range(60):  # episodes of 1 to 2 * cap + 1 frames: wraps mid-episode
        n = int(rng.integers(1, 2 * cap + 2))
        for t in range(n):
            buf.push(np.zeros(1, np.float32), None if t == 0 else np.zeros(1),
                     done=t == n - 1)
            mask = buf._valid_sources(idx)
            assert np.array_equal(mask, _two_condition_sources(buf, idx))
            valid += mask.sum()
    assert valid > 0


def test_uniform_sampling_over_transitions():
    buf = ReplayBuffer(capacity=32, obs_shape=(1,), act_shape=(1,))
    _push_episode(buf, [np.array([float(i)]) for i in range(11)])  # 10 transitions
    assert len(buf._transition_sources()) == 10
    rng = np.random.default_rng(5)
    batch = buf.sample_stacked(100_000, d=1, rng=rng)
    values, counts = np.unique(batch.windows[:, 0, 0], return_counts=True)
    freqs = counts / counts.sum()
    assert len(values) == 10
    assert np.all(np.abs(freqs - 0.1) <= 0.005)


def test_shape_mismatch_rejected():
    buf = ReplayBuffer(capacity=8, obs_shape=(2,), act_shape=(1,))
    with pytest.raises(ValueError, match="observation shape"):
        buf.push(np.zeros(3), action=None)
    buf.push(np.zeros(2), action=None)
    with pytest.raises(ValueError, match="action shape"):
        buf.push(np.zeros(2), action=np.zeros(2))


def test_empty_buffer_sampling_errors():
    buf = ReplayBuffer(capacity=8, obs_shape=(1,), act_shape=(1,))
    with pytest.raises(ValueError, match="transition"):
        buf.sample_stacked(1, d=2, rng=np.random.default_rng(0))
    # two one-frame episodes: frames stored, but no transition
    buf.push(np.zeros(1), action=None, done=True)
    buf.push(np.zeros(1), action=None, done=True)
    with pytest.raises(ValueError, match="transition"):
        buf.sample_stacked(1, d=2, rng=np.random.default_rng(0))


def test_buffer_refusals_name_the_rule():
    with pytest.raises(ValueError, match="capacity must be at least 2"):
        ReplayBuffer(capacity=1, obs_shape=(1,), act_shape=(1,))
    buf = ReplayBuffer(capacity=8, obs_shape=(1,), act_shape=(1,))
    with pytest.raises(ValueError, match="first frame after reset"):
        buf.push(np.zeros(1), action=np.zeros(1))
    buf.push(np.zeros(1), action=None)
    with pytest.raises(ValueError, match="only valid for an episode's first frame"):
        buf.push(np.ones(1), action=None)
    buf.push(np.ones(1), action=np.zeros(1), done=True)
    with pytest.raises(ValueError, match="d must be >= 1"):
        buf.sample_stacked(1, d=0, rng=np.random.default_rng(0))


def test_sparse_ring_samples_its_one_transition_through_the_exact_fallback(monkeypatch):
    # 998 one-frame episodes, then one two-frame episode: of 1000 stored
    # frames only slot 998 starts a transition, so rejection draws almost
    # never find it and the exact fallback fills the batch
    buf = ReplayBuffer(capacity=1000, obs_shape=(1,), act_shape=(1,))
    for i in range(998):
        buf.push(np.array([float(i)]), action=None, done=True)
    buf.push(np.array([998.0]), action=None)
    buf.push(np.array([999.0]), action=np.array([0.5]), reward=2.0, done=True)
    exact, calls = buf._transition_sources, []
    monkeypatch.setattr(buf, "_transition_sources", lambda: calls.append(1) or exact())
    sources = buf._sample_sources(64, np.random.default_rng(0))
    assert calls == [1]
    assert sources.tolist() == [998] * 64
    batch = buf.sample_stacked(64, d=1, rng=np.random.default_rng(1))
    assert np.all(batch.windows == 998.0) and np.all(batch.next_windows == 999.0)
    assert np.all(batch.actions == 0.5) and np.all(batch.rewards == 2.0)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("obs_mode", ["vector", "pixel"])
def test_policy_acts_on_the_ring_window_of_its_newest_frame(d, obs_mode):
    # at every frame the policy's window is the ring's window ending at the
    # newest slot; the ring holds exactly one episode, so it wraps through
    # the second
    env = PointMass(seed=0, obs_mode=obs_mode)
    ring = ReplayBuffer(env.episode_limit + 1, env.obs_shape, (env.act_dim,))
    policy = WindowPolicy(None, d)
    rng = np.random.default_rng(2)

    def check():
        newest = np.array([(ring._idx - 1) % ring.capacity])
        window = ring._frames(ring._window_indices(newest, d))[0]
        acted = np.stack(policy.frames)
        assert acted.dtype == window.dtype and acted.shape == window.shape
        assert acted.tobytes() == window.tobytes()

    for episode in range(2):
        obs = env.reset(seed=episode).astype(np.float32)  # as the ring stores it
        ring.push(obs, None)
        policy.reset(obs)
        check()
        done = False
        while not done:
            a = rng.uniform(-1.0, 1.0, env.act_dim)
            obs, r, done = env.step(a)
            obs = obs.astype(np.float32)
            ring.push(obs, a, r, done)
            policy.observe(obs)
            check()


def _toy_dataset(with_actions=True, with_rewards=True, env="pointmass-v"):
    rng = np.random.default_rng(6)
    eps = []
    for n in (4, 7):
        eps.append(Episode(
            observations=rng.standard_normal((n, 2)).astype(np.float32),
            actions=rng.standard_normal((n - 1, 2)).astype(np.float32)
            if with_actions else None,
            rewards=rng.standard_normal(n - 1).astype(np.float32)
            if with_rewards else None,
        ))
    return ExpertDataset(env, (2,), (2,), eps)


def test_dataset_roundtrip_bit_exact(tmp_path):
    ds = _toy_dataset()
    path = tmp_path / "e.laifo"
    save_dataset(ds, path)
    again = tmp_path / "e2.laifo"
    save_dataset(load_dataset(path), again)
    assert path.read_bytes() == again.read_bytes()
    back = load_dataset(path)
    assert back.env_id == ds.env_id and back.count == ds.count
    for a, b in zip(back.episodes, ds.episodes):
        assert np.array_equal(a.observations, b.observations)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.rewards, b.rewards)


def test_dataset_refusals_name_the_fault(tmp_path):
    with pytest.raises(ValueError, match="dataset has no rewards"):
        _toy_dataset(with_rewards=False).mean_return()
    for field, bad, message in (
            ("observations", np.zeros((4, 3), np.float32), "observation shape mismatch"),
            ("actions", np.zeros((4, 2), np.float32), r"expected actions of shape \(3, 2\)"),
            ("rewards", np.zeros(4, np.float32), "expected 3 rewards")):
        ds = _toy_dataset()
        setattr(ds.episodes[0], field, bad)
        with pytest.raises(ValueError, match=f"episode 0: {message}"):
            ds.validate()
    path = tmp_path / "e.laifo"
    save_dataset(_toy_dataset(), path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="trailing bytes after declared episodes"):
        load_dataset(path)


def test_expert_sampler_refuses_empty_and_one_frame_episodes():
    with pytest.raises(ValueError, match="empty expert dataset"):
        ExpertWindowSampler(ExpertDataset("pointmass-v", (2,), (2,), []), d=2)
    ds = _toy_dataset()
    ds.episodes.append(Episode(np.zeros((1, 2), np.float32), np.zeros((0, 2), np.float32),
                               np.zeros(0, np.float32)))
    with pytest.raises(ValueError, match="at least 2 observations"):
        ExpertWindowSampler(ds, d=2)


def test_dataset_header_count_mismatch(tmp_path):
    ds = _toy_dataset()
    path = tmp_path / "e.laifo"
    save_dataset(ds, path)
    raw = bytearray(path.read_bytes())
    # bump the declared episode count in the JSON header
    raw = raw.replace(b'"episodes": 2', b'"episodes": 3')
    bad = tmp_path / "bad.laifo"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="episodes"):
        load_dataset(bad)


def test_dataset_truncated_payload(tmp_path):
    ds = _toy_dataset()
    path = tmp_path / "e.laifo"
    save_dataset(ds, path)
    raw = path.read_bytes()
    bad = tmp_path / "cut.laifo"
    bad.write_bytes(raw[:-5])
    with pytest.raises(ValueError, match="truncated"):
        load_dataset(bad)


def test_dataset_header_missing_keys(tmp_path):
    path = tmp_path / "e.laifo"
    save_dataset(_toy_dataset(), path)
    raw = path.read_bytes()
    at = len(DATASET_MAGIC) + 4
    (hlen,) = struct.unpack("<I", raw[at - 4:at])
    full = json.loads(raw[at:at + hlen])
    bad = tmp_path / "bad.laifo"

    def write(header):
        text = json.dumps(header).encode()
        bad.write_bytes(DATASET_MAGIC + struct.pack("<I", len(text)) + text)

    write({})
    with pytest.raises(ValueError, match="dataset header has no 'env' entry"):
        load_dataset(bad)
    for key in ("env", "obs_shape", "act_shape", "episodes", "dtype", "has_actions",
                "has_rewards"):
        write({k: v for k, v in full.items() if k != key})
        with pytest.raises(ValueError, match=f"dataset header has no '{key}' entry"):
            load_dataset(bad)


def _save_with_header_entry(path, key, value):
    """The toy dataset saved at `path`, with its header's `key` set to `value`."""
    save_dataset(_toy_dataset(), path)
    raw = path.read_bytes()
    at = len(DATASET_MAGIC) + 4
    (hlen,) = struct.unpack("<I", raw[at - 4:at])
    text = json.dumps({**json.loads(raw[at:at + hlen]), key: value}).encode()
    path.write_bytes(DATASET_MAGIC + struct.pack("<I", len(text)) + text + raw[at + hlen:])


_BAD_HEADER_VALUES = [("env", 3, "str"), ("obs_shape", "ab", "a list of ints"),
                      ("obs_shape", 2, "a list of ints"), ("act_shape", [2.0], "a list of ints"),
                      ("act_shape", [True], "a list of ints"), ("episodes", "1", "int"),
                      ("episodes", True, "int"), ("has_actions", "false", "bool"),
                      ("dtype", 4, "str"), ("dtype", "f64le", "'f32le'"),
                      ("dtype", "i16be", "'f32le'")]


@pytest.mark.parametrize("key, value, kind", _BAD_HEADER_VALUES,
                         ids=[f"{k}={v!r}" for k, v, _ in _BAD_HEADER_VALUES])
def test_dataset_header_value_of_wrong_type_refused(tmp_path, key, value, kind):
    path = tmp_path / "e.laifo"
    _save_with_header_entry(path, key, value)
    with pytest.raises(ValueError, match=f"dataset header entry '{key}' must be {kind}"):
        load_dataset(path)


_NEGATIVE_SIZES = [("dataset", "obs_shape", [-1]), ("dataset", "act_shape", [-2]),
                   ("dataset", "obs_shape", [-1, -2]), ("dataset", "episodes", -1),
                   ("checkpoint", "shape", [-3])]


@pytest.mark.parametrize("fmt, key, value", _NEGATIVE_SIZES,
                         ids=[f"{f}-{k}={v!r}" for f, k, v in _NEGATIVE_SIZES])
def test_negative_header_size_refused_naming_the_key(tmp_path, fmt, key, value):
    path = tmp_path / "bad"
    if fmt == "dataset":
        _save_with_header_entry(path, key, value)
        load = load_dataset
    else:
        text = json.dumps({"params": [{"name": "a", key: value}]}).encode()
        path.write_bytes(CKPT_MAGIC + struct.pack("<I", len(text)) + text + bytes(8))
        load = load_checkpoint
    with pytest.raises(ValueError, match=f"entry '{key}' must not be negative"):
        load(path)


def _write_zero_frame_dataset(path, has_a, has_r):
    """A LAIFO1 file whose second episode declares 0 frames."""
    rng = np.random.default_rng(8)
    text = json.dumps({"env": "pointmass-v", "obs_shape": [2], "act_shape": [2],
                       "episodes": 2, "dtype": "f32le", "has_actions": has_a,
                       "has_rewards": has_r}).encode()
    body = struct.pack("<I", 3) + rng.standard_normal((3, 2)).astype("<f4").tobytes()
    if has_a:
        body += rng.standard_normal((2, 2)).astype("<f4").tobytes()
    if has_r:
        body += rng.standard_normal(2).astype("<f4").tobytes()
    path.write_bytes(DATASET_MAGIC + struct.pack("<I", len(text)) + text
                     + body + struct.pack("<I", 0))


@pytest.mark.parametrize("has_a, has_r", [(True, True), (True, False),
                                          (False, True), (False, False)])
def test_zero_frame_episode_refused(tmp_path, has_a, has_r):
    path = tmp_path / "empty.laifo"
    _write_zero_frame_dataset(path, has_a, has_r)
    with pytest.raises(ValueError, match="dataset episode 1 declares no frames"):
        load_dataset(path)
    ds = ExpertDataset("pointmass-v", (2,), (2,), [
        _toy_dataset().episodes[0],
        Episode(np.zeros((0, 2), dtype=np.float32),
                np.zeros((0, 2), dtype=np.float32) if has_a else None,
                np.zeros(0, dtype=np.float32) if has_r else None)])
    out = tmp_path / "saved.laifo"
    with pytest.raises(ValueError, match="episode 1: no frames"):
        save_dataset(ds, out)
    assert not out.exists()


def test_dataset_without_actions_flagged(tmp_path):
    ds = _toy_dataset(with_actions=False)
    path = tmp_path / "noact.laifo"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert not back.has_actions
    sampler = ExpertWindowSampler(back, d=2)
    with pytest.raises(ValueError, match="actions"):
        sampler.sample(4, np.random.default_rng(0), with_actions=True)


def test_expert_sampler_windows_match_agent_padding():
    ds = _toy_dataset()
    sampler = ExpertWindowSampler(ds, d=3)
    batch = sampler.sample(64, np.random.default_rng(7), with_actions=True)
    assert batch.windows.shape == (64, 3, 2) and batch.actions.shape == (64, 2)
    assert np.allclose(batch.next_windows[:, :-1], batch.windows[:, 1:])
    assert sampler.sample(8, np.random.default_rng(7)).actions is None


def test_expert_sampler_keeps_no_reference_to_the_dataset():
    ds = _toy_dataset()
    sampler = ExpertWindowSampler(ds, d=2)
    alive = weakref.ref(ds)
    del ds
    gc.collect()
    assert alive() is None
    batch = sampler.sample(8, np.random.default_rng(3), with_actions=True)
    assert batch.actions.shape == (8, 2)
    without = ExpertWindowSampler(_toy_dataset(with_actions=False), d=2)
    with pytest.raises(ValueError, match="no actions"):
        without.sample(8, np.random.default_rng(3), with_actions=True)


def _clamped_reference(dataset, d, batch, rng, with_actions):
    """Expert windows by clamping each in-episode index at the episode's
    first frame: the (window, action, next window) triples the sampler
    must produce for the same generator."""
    counts = [len(ep) - 1 for ep in dataset.episodes]
    ep_of = np.repeat(np.arange(dataset.count), counts)
    t_of = np.concatenate([np.arange(c) for c in counts])
    obs = np.concatenate([ep.observations for ep in dataset.episodes])
    start = np.cumsum([0] + [len(ep) for ep in dataset.episodes])[:-1]
    picks = rng.integers(0, len(ep_of), size=batch)
    eps, ts = ep_of[picks], t_of[picks]

    def windows(t):
        return obs[start[eps][:, None] + np.maximum(t[:, None] + np.arange(1 - d, 1), 0)]

    acts = None
    if with_actions:
        acts = np.stack([dataset.episodes[e].actions[t] for e, t in zip(eps, ts)])
    return windows(ts), acts, windows(ts + 1)


def _frames(rng, shape):
    """Random float32 frames of shape (n, *obs): normal vectors, or images
    holding only the renderer's values 0, 0.5 and 1."""
    if len(shape) == 2:
        return rng.normal(size=shape).astype(np.float32)
    return (rng.integers(0, 3, size=shape) * 0.5).astype(np.float32)


@pytest.mark.parametrize("with_actions", [False, True])
@pytest.mark.parametrize("with_rewards", [False, True])
def test_expert_sampler_ring_equals_frame_by_frame_pushes(with_actions, with_rewards):
    for obs_shape in ((3,), (32, 32)):  # a float32 ring and a packed one
        rng = np.random.default_rng(50)
        eps = [Episode(_frames(rng, (n, *obs_shape)),
                       rng.standard_normal((n - 1, 2)).astype(np.float32)
                       if with_actions else None,
                       rng.standard_normal(n - 1).astype(np.float32) if with_rewards else None)
               for n in (2, 5, 2, 9, 3, 2, 7)]
        ring = ExpertWindowSampler(ExpertDataset("pointmass-v", obs_shape, (2,), eps), 2)._ring
        ref = ReplayBuffer(sum(len(ep) for ep in eps), obs_shape, (2,))
        for ep in eps:
            ref.push(ep.observations[0], None)
            for t in range(1, len(ep)):
                ref.push(ep.observations[t],
                         np.zeros(2) if ep.actions is None else ep.actions[t - 1],
                         0.0 if ep.rewards is None else ep.rewards[t - 1],
                         done=t == len(ep) - 1)
        for name in ("_obs", "_act", "_rew", "_age"):
            got, want = getattr(ring, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        for name in ("_idx", "size", "_prev_done"):
            assert getattr(ring, name) == getattr(ref, name), name


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("obs_shape", [(3,), (6, 6)])
def test_expert_sampler_matches_clamped_reference(d, obs_shape):
    rng = np.random.default_rng(40 + d)
    eps = [Episode(_frames(rng, (n, *obs_shape)),
                   rng.standard_normal((n - 1, 2)).astype(np.float32),
                   rng.standard_normal(n - 1).astype(np.float32))
           for n in (2, 5, 2, 9, 3, 2)]
    ds = ExpertDataset("pointmass-v", obs_shape, (2,), eps)
    sampler = ExpertWindowSampler(ds, d)
    for with_actions in (False, True):
        got_rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(3):
            batch = sampler.sample(50, got_rng, with_actions=with_actions)
            wins, acts, nxt = _clamped_reference(ds, d, 50, ref_rng, with_actions)
            assert batch.windows.dtype == wins.dtype
            assert np.array_equal(batch.windows, wins)
            assert np.array_equal(batch.next_windows, nxt)
            if with_actions:
                assert np.array_equal(batch.actions, acts)
            else:
                assert batch.actions is None
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def _resident_mb():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def test_image_frames_are_stored_as_packed_2bit_codes():
    # four pixels a byte; 15 pixels take 4 bytes, the last one padded
    for shape, row in (((32, 32), 256), ((84, 84), 1764), ((5, 3), 4)):
        obs = ReplayBuffer(8, shape, (2,))._obs
        assert obs.dtype == np.uint8 and obs.shape == (8, row)
    assert ReplayBuffer(8, (2,), (2,))._obs.dtype == np.float32
    # np.zeros is lazy: this default-capacity px84 ring touches no memory
    before = _resident_mb() if os.path.exists("/proc/self/statm") else None
    ring = ReplayBuffer(100_000, (84, 84), (2,))._obs
    assert ring.nbytes == 176_400_000
    if before is not None:
        assert _resident_mb() - before < 16


def test_pushed_rendered_frames_sample_back_bit_equal():
    env = PointMass(seed=3, obs_mode="pixel", image_size=32)
    buf = ReplayBuffer(300, env.obs_shape, (2,))
    pushed = np.zeros((buf.capacity, *env.obs_shape), dtype=np.float32)
    rng = np.random.default_rng(8)
    for _ in range(2):  # 402 frames: the ring wraps
        frame, done = env.reset(), False
        pushed[buf._idx] = frame
        buf.push(frame, action=None)
        while not done:
            a = rng.uniform(-1, 1, size=2)
            frame, r, done = env.step(a)
            pushed[buf._idx] = frame
            buf.push(frame, action=a, reward=r, done=done)
    assert buf.size == buf.capacity
    picks = buf._sample_sources(64, rng)
    batch = buf._gather(picks, 3)
    assert batch.windows.dtype == batch.next_windows.dtype == np.float32
    assert np.array_equal(batch.windows, pushed[buf._window_indices(picks, 3)])
    assert np.array_equal(batch.next_windows,
                          pushed[buf._window_indices((picks + 1) % buf.capacity, 3)])


@pytest.mark.parametrize("value,code", [(0.0, 0), (0.5, 1), (1.0, 2), (-0.0, None),
                                        (np.nan, None), (np.inf, None), (-np.inf, None),
                                        (0.25, None), (1.5, None), (-0.5, None)])
def test_encode_accepts_bitwise_zero_half_and_one_only(value, code):
    frames = np.full((3, 6, 8), 0.5, dtype=np.float32)
    frames[1, 2, 3] = value
    # contiguous (48 pixels a frame), and strided through frames[1, 2, 3]
    # (9 pixels a frame, so the last byte is padded)
    for view, at in ((frames, (1, 2, 3)), (frames[:, ::2, ::3], (1, 1, 1))):
        pixels = view[0].size
        packed = _encode(view, pixels)
        if code is None:
            assert packed is None
            continue
        assert packed.dtype == np.uint8 and packed.shape == (3, -(-pixels // 4))
        p = np.ravel_multi_index(at[1:], view.shape[1:])
        assert packed[at[0], p // 4] >> 2 * (p % 4) & 3 == code
        assert _decode(packed, view.shape[1:]).tobytes() == np.ascontiguousarray(view).tobytes()
    # float64 frames are never coded, whatever they hold
    assert _encode(frames.astype(np.float64), 48) is None
    assert _encode(np.zeros((3, 6, 8)), 48) is None


def test_decode_table_maps_every_byte_to_its_four_pixels():
    every = np.arange(256, dtype=np.uint8)
    frames = _decode(every[:, None], (2, 2))
    want = np.array([[0.5 * (b >> 2 * k & 3) for k in range(4)] for b in range(256)],
                    dtype=np.float32)
    assert frames.dtype == np.float32 and frames.shape == (256, 2, 2)
    assert frames.reshape(256, 4).tobytes() == want.tobytes()
    # the 81 bytes whose four codes are 0, 1 or 2 encode back to themselves
    valid = (want <= 1.0).all(axis=1)
    assert valid.sum() == 81
    assert np.array_equal(_encode(frames[valid], 4)[:, 0], every[valid])


def test_push_sample_round_trip_at_an_odd_pixel_count():
    rng = np.random.default_rng(11)
    buf = ReplayBuffer(40, (5, 3), (2,))
    pushed = np.zeros((buf.capacity, 5, 3), dtype=np.float32)
    for _ in range(12):  # about 60 frames: the ring wraps
        n = int(rng.integers(2, 9))
        for t in range(n):
            frame = (rng.integers(0, 3, size=(5, 3)) * 0.5).astype(np.float32)
            pushed[buf._idx] = frame
            buf.push(frame, None if t == 0 else rng.uniform(-1, 1, size=2), done=t == n - 1)
    assert buf.size == buf.capacity and buf._obs.shape == (40, 4)
    assert np.all(buf._obs[:, -1] >> 6 == 0)  # the 16th pixel's code is the padding 0
    picks = buf._sample_sources(64, rng)
    batch = buf._gather(picks, 3)
    assert batch.windows.dtype == np.float32 and batch.windows.shape == (64, 3, 5, 3)
    assert np.array_equal(batch.windows, pushed[buf._window_indices(picks, 3)])
    assert np.array_equal(batch.next_windows,
                          pushed[buf._window_indices((picks + 1) % buf.capacity, 3)])


@pytest.mark.parametrize("bad", ["-0.0", "nan", "0.25", "float64"])
def test_push_and_expert_sampler_refuse_the_same_image_frames(bad):
    frames = np.full((3, 5, 3), 0.5, dtype=np.float32)
    if bad == "float64":  # holding only 0.5, which float32 holds exactly
        frames = frames.astype(np.float64)
    else:
        frames[2, 4, 1] = float(bad)
    buf = ReplayBuffer(8, (5, 3), (2,))
    buf.push(frames[0].astype(np.float32), action=None)
    ring = buf._obs.copy()
    with pytest.raises(ValueError, match="image frames must hold only 0, 0.5 and 1, as float32"):
        buf.push(frames[2], action=np.zeros(2))
    assert buf.size == 1 and np.array_equal(buf._obs, ring)
    ds = ExpertDataset("pointmass-px32", (5, 3), (2,), [
        Episode(frames, np.zeros((2, 2), dtype=np.float32), np.zeros(2, dtype=np.float32))])
    # NaN fails the dataset's finiteness check before the codes are made
    message = ("episode 0: observations hold NaN or inf" if bad == "nan" else
               "episode 0: image frames must hold only 0, 0.5 and 1, as float32")
    with pytest.raises(ValueError, match=message):
        ExpertWindowSampler(ds, 2)


@pytest.mark.parametrize("value", [0.25, -0.5, 1.5, np.nan, -0.0, np.inf, -np.inf])
def test_push_refuses_image_frames_without_a_code(value):
    buf = ReplayBuffer(8, (4, 4), (2,))
    bad = np.zeros((4, 4), dtype=np.float32)
    bad[1, 2] = value
    for action, done in ((None, False), (np.ones(2), True)):
        # an episode's first frame, then a frame inside an episode
        before = (buf._idx, buf.size, buf._age.copy(), buf._obs.copy())
        with pytest.raises(ValueError, match="only 0, 0.5 and 1"):
            buf.push(bad, action=action)
        assert (buf._idx, buf.size) == before[:2]
        assert np.array_equal(buf._age, before[2]) and np.array_equal(buf._obs, before[3])
        buf.push(np.full((4, 4), 0.5, dtype=np.float32), action=action, done=done)


@pytest.mark.parametrize("stray", [None, 0.3, -0.0])
def test_expert_sampler_refuses_pixels_without_a_code(stray):
    rng = np.random.default_rng(60)
    eps = [Episode(_frames(rng, (n, 6, 6)), rng.standard_normal((n - 1, 2)).astype(np.float32),
                   rng.standard_normal(n - 1).astype(np.float32))
           for n in (2, 5, 9, 3)]
    ds = ExpertDataset("pointmass-px32", (6, 6), (2,), eps)
    if stray is None:
        assert ExpertWindowSampler(ds, 3)._ring._obs.dtype == np.uint8
        return
    eps[2].observations[4, 1, 5] = stray
    with pytest.raises(ValueError, match="episode 2: image frames must hold only 0, 0.5 and 1"):
        ExpertWindowSampler(ds, 3)


@pytest.mark.parametrize("field", ["observations", "actions", "rewards"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_expert_data_refused(tmp_path, field, value):
    path = tmp_path / "e.laifo"
    save_dataset(_toy_dataset(), path)
    ds = load_dataset(path)
    getattr(ds.episodes[1], field).flat[2] = value
    message = f"episode 1: {field} hold NaN or inf"
    with pytest.raises(ValueError, match=message):
        ExpertWindowSampler(ds, 2)
    # a LAIFO1 file can hold any float32: loading refuses it
    raw = path.read_bytes()
    good = getattr(_toy_dataset().episodes[1], field).flat[2].tobytes()
    assert raw.count(good) == 1
    bad = tmp_path / "bad.laifo"
    bad.write_bytes(raw.replace(good, np.float32(value).tobytes()))
    with pytest.raises(ValueError, match=message):
        load_dataset(bad)
