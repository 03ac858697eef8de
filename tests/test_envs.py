import numpy as np
import pytest

from laifo import envs
from laifo.envs import (ENV_IDS, EpisodeDone, FullyObservableWrapper, PointMass,
                        clone, make_env, make_tabular, parse_tabular_id)


def test_reset_deterministic_per_seed():
    env = make_env("pointmass-v")
    a = env.reset(seed=42)
    b = env.reset(seed=42)
    assert np.array_equal(a, b)
    assert a.shape == env.obs_shape


def test_reset_initial_mean_matches_declared_rho0():
    env = make_env("pointmass-v", seed=5)
    states = []
    for _ in range(10_000):
        env.reset()
        states.append(env.privileged_state())
    states = np.asarray(states)
    # positions uniform on [-0.8, 0.8]: mean 0, sd 0.8/sqrt(3)
    se = (0.8 / np.sqrt(3)) / np.sqrt(len(states))
    assert np.all(np.abs(states.mean(axis=0) - env.initial_state_mean) <= 3 * se + 1e-9)


def test_zero_action_from_rest_keeps_position():
    env = make_env("pointmass-v")
    env.reset(seed=0)
    s0 = env.privileged_state()
    obs, r, done = env.step(np.zeros(2))
    assert np.array_equal(obs, s0[:2])
    assert r == 1.0 - np.tanh(np.linalg.norm(s0[:2] - env.goal))
    assert not done


def test_rewards_bounded_by_r_max():
    env = make_env("pointmass-v", seed=1)
    rng = np.random.default_rng(2)
    env.reset()
    for _ in range(100_000):
        _, r, done = env.step(rng.uniform(-1, 1, 2))
        assert r <= env.r_max
        if done:
            env.reset()


def test_trajectories_reproducible():
    rng = np.random.default_rng(3)
    actions = rng.uniform(-1, 1, (50, 2))

    def roll():
        env = make_env("pointmass-v")
        obs = [env.reset(seed=11)]
        for a in actions:
            o, r, d = env.step(a)
            obs.append(o)
        return np.asarray(obs)

    assert np.array_equal(roll(), roll())


def test_step_after_done_raises():
    env = make_env("pointmass-v")
    env.reset(seed=0)
    for _ in range(env.episode_limit):
        _, _, done = env.step(np.zeros(2))
    assert done
    with pytest.raises(EpisodeDone):
        env.step(np.zeros(2))


def test_observation_is_projection_of_state():
    env = make_env("pointmass-v")
    obs = env.reset(seed=7)
    assert np.array_equal(obs, env.privileged_state()[:2])
    # a push changes hidden velocity; the observed position moves with it
    o1, _, _ = env.step(np.array([1.0, 0.0]))
    s1 = env.privileged_state()
    assert s1[2] == pytest.approx(env.dt * 1.0)
    assert o1[0] == pytest.approx(obs[0] + env.dt * s1[2])
    assert np.array_equal(o1, s1[:2])


def test_pixel_modes_render_in_unit_range():
    for env_id, size in (("pointmass-px32", 32), ("pointmass-px84", 84)):
        env = make_env(env_id)
        img = env.reset(seed=0)
        assert img.shape == (size, size)
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert (img == 1.0).any() and (img == 0.5).any()


def test_pendulum_partial_observation():
    env = make_env("pendulum-po")
    obs = env.reset(seed=0)
    assert obs.shape == (2,)
    theta, omega = env.privileged_state()
    assert obs[0] == pytest.approx(np.cos(theta))
    _, r, _ = env.step(np.array([0.5]))
    assert 0.0 <= r <= env.r_max


def test_fully_observable_wrapper_exposes_state():
    env = FullyObservableWrapper(make_env("pointmass-v"))
    s = env.reset(seed=3)
    assert s.shape == (4,)
    s1, r, done = env.step(np.array([0.3, -0.2]))
    assert np.array_equal(s1, env.privileged_state())


def test_clone_rebuilds_from_env_id():
    for env_id in ENV_IDS:
        mode = "dense" if env_id == "pendulum-po" else "sparse"
        env = make_env(env_id, seed=5, reward_mode=mode)
        copy = clone(env)
        assert type(copy) is type(env) and copy is not env
        assert (copy.env_id, copy.reward_mode, copy.obs_shape) == \
            (env_id, mode, env.obs_shape)
        assert np.array_equal(copy.reset(seed=9), clone(env).reset(seed=9))
    sparse = make_env("pointmass-v", reward_mode="sparse")
    wrapped = clone(FullyObservableWrapper(sparse))
    assert isinstance(wrapped, FullyObservableWrapper)
    assert wrapped.env_id == "pointmass-v" and wrapped.env.reward_mode == "sparse"
    assert wrapped.reset(seed=1).shape == (sparse.state_dim,)


def test_pendulum_refuses_reward_modes_it_lacks():
    for mode in ("sparse", "bogus"):
        with pytest.raises(ValueError, match="dense"):
            make_env("pendulum-po", reward_mode=mode)
        with pytest.raises(ValueError, match="dense"):
            envs.PendulumPO(reward_mode=mode)


def test_make_tabular_mdp_identity_observation():
    m = make_tabular("mdp", 6, 3, seed=0)
    assert np.array_equal(m.observation, np.eye(6))
    assert np.all(np.abs(m.transition.sum(axis=2) - 1.0) <= 1e-12)
    assert np.all(m.transition >= 0)


def test_make_tabular_random_stochastic_rows():
    m = make_tabular("random", 8, 3, n_obs=5, seed=1)
    assert m.observation.shape == (8, 5)
    assert np.all(np.abs(m.observation.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(np.abs(m.rho0.sum() - 1.0) <= 1e-12)


def test_make_tabular_injective_deterministic():
    m = make_tabular("injective-deterministic", 6, 4, seed=2)
    assert np.array_equal(m.observation, np.eye(6))
    for s in range(6):
        succ = [int(np.argmax(m.transition[s, a])) for a in range(4)]
        assert np.all(m.transition[s].max(axis=1) == 1.0)
        assert len(set(succ)) == 4


def test_make_tabular_injective_infeasible():
    with pytest.raises(ValueError, match="injective"):
        make_tabular("injective-deterministic", 3, 4, seed=0)


def test_tabular_id_parsing():
    assert parse_tabular_id("tabular:mdp-s8-a3") == ("mdp", 8, 3, None)
    assert parse_tabular_id("tabular:random-s8-a3-x5") == ("random", 8, 3, 5)
    structure, s, a, x = parse_tabular_id("tabular:injective-deterministic-s6-a2")
    assert structure == "injective-deterministic" and (s, a) == (6, 2)
    m = make_env("tabular:mdp-s4-a2", seed=0)
    assert m.n_states == 4 and m.n_actions == 2


def test_unknown_env_id():
    with pytest.raises(ValueError, match="unknown environment"):
        make_env("walker-walk")
