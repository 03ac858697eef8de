"""Learning gates: the slow tier, deselected by default.

Run with `python -m pytest -m slow` (a few minutes on two cores). Each
probe is one 12k-frame run on `pointmass-v` and passes when one of its
evaluation rows reaches 75 % of the scripted expert's mean return
(176.6 over 20 episodes recorded at seed 1000), 132.5. The seeds and the
threshold are fixed; a failing probe is a finding, not a seed to re-pick.
"""

import numpy as np
import pytest

from laifo.envs import FullyObservableWrapper, PointMass, make_env
from laifo.expertgen import record
from laifo.imitate import Config, train

THRESHOLD = 132.5


class PDController:
    """Scripted expert on the privileged state (position, velocity): a
    proportional-derivative pull towards the goal, clamped to the action box."""

    kp, kd = 4.0, 3.0

    def action(self, state):
        return np.clip(self.kp * (PointMass.goal - state[:2]) - self.kd * state[2:],
                       -1.0, 1.0)


@pytest.mark.slow
@pytest.mark.parametrize("algo, seed, with_data", [
    ("dacfo", 0, True), ("dac", 1, True), ("rl_plus_videos", 0, False)])
def test_learner_reaches_three_quarters_of_the_expert(algo, seed, with_data):
    env = make_env("pointmass-v")
    data = None
    if with_data:
        state_env = FullyObservableWrapper(env) if algo in ("dac", "dacfo") else env
        data = record(state_env, PDController(), 20, seed=1000)
        assert data.mean_return() == pytest.approx(176.6, abs=0.05)
    cfg = Config(lr=1e-3, disc_lr=1e-3, gamma=0.97, batch=64, hidden=64, z_dim=16,
                 warmup=1000, float32=True, eval_episodes=5, eval_interval=2000,
                 frames=12000, seed=seed)
    returns = [row.eval_return for row in train(algo, env, data, cfg).rows]
    assert max(returns) >= THRESHOLD, returns
