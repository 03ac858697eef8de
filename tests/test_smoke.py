"""Every learner the CLI offers trains on every built-in environment, and
the privileged expert trains on each of them: a few updates after warmup
at a tiny size, with finite losses and parameters."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import laifo

from laifo.envs import ENV_IDS, FullyObservableWrapper, make_env
from laifo.expertgen import record, train_expert
from laifo.imitate import ALGOS, Config, train

FULL_STATE = ("dac", "dacfo")


def tiny_cfg():
    # 4 update steps after a 10-frame warmup, one evaluation at the end
    return Config(frames=14, warmup=10, batch=4, hidden=8, z_dim=4, d=2,
                  capacity=64, eval_interval=14, eval_episodes=1, seed=0)


class StandStill:
    def __init__(self, act_dim):
        self.act_dim = act_dim

    def action(self, state):
        return np.zeros(self.act_dim)


@pytest.fixture(scope="module")
def datasets():
    cache = {}

    def get(env_id, privileged):
        key = (env_id, privileged)
        if key not in cache:
            env = make_env(env_id)
            shown = FullyObservableWrapper(env) if privileged else env
            cache[key] = record(shown, StandStill(env.act_dim), 1, seed=0,
                                env_id=env_id)
        return cache[key]

    return get


def assert_trained(report, frames):
    assert [r.frame for r in report.rows] == [frames]
    row = report.rows[-1]
    for value in (row.eval_return, row.disc_loss, row.critic_loss,
                  row.actor_loss, row.imit_reward_mean):
        assert math.isfinite(value)
    for name, values in report.bundle.named_params():
        assert np.all(np.isfinite(values)), name


@pytest.mark.parametrize("env_id", ENV_IDS)
@pytest.mark.parametrize("algo", ALGOS)
def test_every_algo_trains_on_every_env(algo, env_id, datasets):
    data = datasets(env_id, algo in FULL_STATE)
    cfg = tiny_cfg()
    report = train(algo, make_env(env_id), data, cfg)
    assert report.algo == algo and report.env_id == env_id
    assert_trained(report, cfg.frames)
    if algo != "bc":
        assert report.rows[-1].critic_loss != 0.0


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_expert_trains_on_every_env(env_id):
    report = train_expert(make_env(env_id), 14, tiny_cfg())
    assert report.algo == "rl_plus_videos" and report.env_id == env_id
    assert_trained(report, 14)
    assert report.expert_score == report.rows[-1].eval_return


def test_importing_envs_and_replay_loads_no_other_submodule():
    # a fresh interpreter, as the benchmark's set-up probe starts one
    code = ("import sys; from laifo import envs, replay; "
            "print(*sorted(m for m in sys.modules if m.startswith('laifo')))")
    env = {**os.environ, "PYTHONPATH": str(Path(laifo.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert out == ["laifo", "laifo.envs", "laifo.replay"]
