from dataclasses import replace

import numpy as np
import pytest

from laifo.envs import FullyObservableWrapper, make_env
from laifo.expertgen import StatePolicy, evaluate_expert, record, train_expert
from laifo.imitate import Config, train
from laifo.replay import load_dataset, save_dataset


def quick_cfg(**kw):
    base = dict(frames=600, batch=16, hidden=16, z_dim=4, warmup=100,
                eval_interval=300, eval_episodes=2, sigma_decay_frames=300,
                lr=1e-3, gamma=0.95, seed=0)
    base.update(kw)
    return Config(**base)


def test_zero_frame_budget_returns_initial_policy():
    cfg = quick_cfg()
    rep = train_expert(make_env("pointmass-v"), 0, cfg)
    # zero-initialized actor head: the untouched policy outputs zeros
    z = np.random.default_rng(0).standard_normal((4, 4))
    assert np.allclose(rep.bundle.actor.values(z), 0.0)
    assert len(rep.rows) == 1
    assert rep.expert_score == rep.rows[-1].eval_return


def test_training_deterministic_per_seed():
    a = train_expert(make_env("pointmass-v"), 600, quick_cfg())
    b = train_expert(make_env("pointmass-v"), 600, quick_cfg())
    for name_arr_a, name_arr_b in zip(a.bundle.named_params(),
                                      b.bundle.named_params()):
        assert name_arr_a[0] == name_arr_b[0]
        assert np.array_equal(name_arr_a[1], name_arr_b[1])
    assert a.expert_score == b.expert_score


def test_expert_is_rl_plus_videos_on_the_privileged_state():
    cfg = quick_cfg()
    expert = train_expert(make_env("pointmass-v"), 600, cfg)
    plain = train("rl_plus_videos", FullyObservableWrapper(make_env("pointmass-v")),
                  None, cfg, frames=600)
    assert expert.algo == plain.algo == "rl_plus_videos"
    for (name_a, a), (name_b, b) in zip(expert.bundle.named_params(),
                                        plain.bundle.named_params(), strict=True):
        assert name_a == name_b
        assert np.array_equal(a, b), name_a
    assert [replace(r, wall_clock_s=0) for r in expert.rows] == \
        [replace(r, wall_clock_s=0) for r in plain.rows]
    # an environment that is already wrapped is not wrapped twice
    wrapped = train_expert(FullyObservableWrapper(make_env("pointmass-v")), 0, cfg)
    assert wrapped.bundle.enc.z_dim == 4


def test_short_training_beats_standing_still():
    cfg = quick_cfg(frames=4000, batch=64, hidden=48, warmup=300,
                    eval_interval=4000, eval_episodes=4,
                    sigma_decay_frames=2000, sigma_start=0.6)
    rep = train_expert(make_env("pointmass-v"), 4000, cfg)
    zero = train_expert(make_env("pointmass-v"), 0, cfg)
    assert rep.expert_score > zero.expert_score + 10


def test_record_shapes_and_single_episode():
    cfg = quick_cfg()
    rep = train_expert(make_env("pointmass-v"), 0, cfg)
    ds = record(make_env("pointmass-v"), StatePolicy(rep.bundle), 1,
                with_actions=True, seed=3, env_id="pointmass-v")
    assert ds.count == 1
    env = make_env("pointmass-v")
    assert len(ds.episodes[0]) == env.episode_limit + 1
    assert ds.episodes[0].observations.shape == (201, 2)
    assert ds.episodes[0].actions.shape == (200, 2)
    assert ds.has_rewards


def test_record_without_actions_gates_lail():
    cfg = quick_cfg()
    rep = train_expert(make_env("pointmass-v"), 0, cfg)
    ds = record(make_env("pointmass-v"), StatePolicy(rep.bundle), 2,
                with_actions=False, seed=4, env_id="pointmass-v")
    assert not ds.has_actions
    from laifo.imitate import CapabilityError, train
    with pytest.raises(CapabilityError, match="actions"):
        train("lail", make_env("pointmass-v"), ds, quick_cfg(frames=50))


def test_record_privileged_states():
    cfg = quick_cfg()
    rep = train_expert(make_env("pointmass-v"), 0, cfg)
    ds = record(FullyObservableWrapper(make_env("pointmass-v")),
                StatePolicy(rep.bundle), 2, with_actions=True, seed=5,
                env_id="pointmass-v")
    assert ds.obs_shape == (4,)
    # positions in the state match what the observation would have been
    assert np.all(np.abs(ds.episodes[0].observations[:, 2:]) <= 1.0)


def test_recorded_return_matches_eval_score_same_seeds():
    cfg = quick_cfg(frames=1500, batch=32, warmup=200, eval_interval=1500,
                    eval_episodes=4)
    rep = train_expert(make_env("pointmass-v"), 1500, cfg)
    seed_base = (cfg.seed + 1) * 1_000_003
    ds = record(make_env("pointmass-v"), StatePolicy(rep.bundle), 4,
                with_actions=False, seed=seed_base, env_id="pointmass-v")
    # same deterministic policy, same episode seeds: identical returns
    assert ds.mean_return() == pytest.approx(rep.expert_score, rel=1e-2)


def test_record_roundtrips_through_dataset_format(tmp_path):
    cfg = quick_cfg()
    rep = train_expert(make_env("pointmass-v"), 0, cfg)
    ds = record(make_env("pointmass-v"), StatePolicy(rep.bundle), 3,
                with_actions=True, seed=6, env_id="pointmass-v")
    p1, p2 = tmp_path / "a.laifo", tmp_path / "b.laifo"
    save_dataset(ds, p1)
    save_dataset(load_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    ds_again = record(make_env("pointmass-v"), StatePolicy(rep.bundle), 3,
                      with_actions=True, seed=6, env_id="pointmass-v")
    save_dataset(ds_again, tmp_path / "c.laifo")
    assert p1.read_bytes() == (tmp_path / "c.laifo").read_bytes()


def test_record_requires_positive_episodes():
    cfg = quick_cfg()
    rep = train_expert(make_env("pointmass-v"), 0, cfg)
    with pytest.raises(ValueError, match="episode"):
        record(make_env("pointmass-v"), StatePolicy(rep.bundle), 0)
