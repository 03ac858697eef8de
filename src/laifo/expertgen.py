"""Privileged experts and their datasets.

The expert is the imitation learner's own off-policy actor-critic run by
`imitate.train` in a private mode: full state, environment reward, no
discriminator. `record` rolls a trained expert out on fresh copies of a
`make_env` environment and packs observation-only (or
observation-action) datasets.
"""

from __future__ import annotations

import numpy as np

from .envs import FullyObservableWrapper, clone
from .imitate import EXPERT, WindowPolicy, evaluate, train
from .imitate import update_critic  # noqa: F401  re-exported; trainbench traces it here
from .replay import Episode, ExpertDataset


class StatePolicy:
    """Deterministic policy over the privileged state."""

    def __init__(self, bundle):
        self.bundle = bundle

    def action(self, state):
        return self.bundle.actor.values(np.atleast_2d(state))[0]


def train_expert(env, frames, cfg):
    """Train the expert for `frames` environment steps on the privileged
    state of `env` (a `make_env` environment; evaluation rebuilds copies
    from its `env_id`). Returns the report of `imitate.train`: its bundle
    holds the trained policy and `expert_score` is the last row's eval
    return. A budget of 0 evaluates the initial policy once, at frame 0."""
    report = train(EXPERT, env, None, cfg, frames=frames)
    report.expert_score = report.rows[-1].eval_return
    return report


def evaluate_expert(env, bundle, episodes, seed):
    """Mean return of the deterministic state policy over fresh copies of env."""
    return evaluate(env, WindowPolicy(bundle, 1), episodes, seed)


def record(env, policy, n_episodes, with_actions=True, seed=0,
           use_privileged=False, env_id=None):
    """Roll out the deterministic expert for n full episodes and pack them
    into a dataset. Observations come from the environment unless
    use_privileged is set (then the stored "observations" are states, for
    the fully observable learners). Rewards are always stored."""
    if n_episodes < 1:
        raise ValueError("need at least one episode")
    base = env.env if isinstance(env, FullyObservableWrapper) else env
    obs_shape = (base.state_dim,) if use_privileged else base.obs_shape
    episodes = []
    e = clone(base)
    for k in range(n_episodes):
        first = e.reset(seed=seed + k)
        obs = [e.privileged_state() if use_privileged else first]
        acts, rews = [], []
        done = False
        while not done:
            a = policy.action(e.privileged_state())
            frame, r, done = e.step(a)
            obs.append(e.privileged_state() if use_privileged else frame)
            acts.append(a)
            rews.append(r)
        episodes.append(Episode(
            observations=np.asarray(obs, dtype=np.float32),
            actions=np.asarray(acts, dtype=np.float32) if with_actions else None,
            rewards=np.asarray(rews, dtype=np.float32),
        ))
    ds = ExpertDataset(env_id or base.env_id, obs_shape,
                       (base.act_dim,), episodes)
    ds.validate()
    return ds
