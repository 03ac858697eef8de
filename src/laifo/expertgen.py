"""Privileged experts and their datasets.

The expert is an ordinary learner: `rl_plus_videos` without data on an
`envs.FullyObservableWrapper`, so it learns the environment reward on the
privileged state. `record` rolls a trained expert out on a fresh copy of a
`make_env` environment (wrapped in `envs.FullyObservableWrapper` for
state datasets) and packs observation-only (or observation-action)
datasets.
"""

from __future__ import annotations

import numpy as np

from .envs import FullyObservableWrapper, clone
from .imitate import WindowPolicy, evaluate, train
from .imitate import update_critic  # noqa: F401  re-exported; trainbench traces it here
from .replay import Episode, ExpertDataset


class StatePolicy:
    """Deterministic policy over the privileged state: the actor of an
    `imitate.AgentBundle`."""

    def __init__(self, bundle):
        self.bundle = bundle

    def action(self, state):
        return self.bundle.actor.values(np.atleast_2d(state))[0]


def train_expert(env, frames, cfg):
    """Train the expert for `frames` environment steps on the privileged
    state of `env` (a `make_env` environment, wrapped or not):
    `rl_plus_videos` without data. Returns the report of `imitate.train`:
    its bundle holds the trained policy and `expert_score` is the last
    row's eval return. A budget of 0 evaluates the initial policy once, at
    frame 0."""
    if not isinstance(env, FullyObservableWrapper):
        env = FullyObservableWrapper(env)
    report = train("rl_plus_videos", env, None, cfg, frames=frames)
    report.expert_score = report.rows[-1].eval_return
    return report


def evaluate_expert(env, bundle, episodes, seed):
    """Mean return of the deterministic state policy over fresh copies of env.
    Nothing in laifo calls it (`state-expert` evaluates through
    `imitate.evaluate`); trainbench's tracer binds it by name."""
    return evaluate(env, WindowPolicy(bundle, 1), episodes, seed)


def record(env, policy, n_episodes, with_actions=True, seed=0, env_id=None):
    """Roll out the deterministic expert for n full episodes and pack them
    into a dataset of what `env` shows: observations, or the privileged
    states when it is a `FullyObservableWrapper` (the datasets of the fully
    observable learners). Rewards are always stored."""
    if n_episodes < 1:
        raise ValueError("need at least one episode")
    episodes = []
    e = clone(env)
    for k in range(n_episodes):
        obs = [e.reset(seed=seed + k)]
        acts, rews = [], []
        done = False
        while not done:
            a = policy.action(e.privileged_state())
            frame, r, done = e.step(a)
            obs.append(frame)
            acts.append(a)
            rews.append(r)
        episodes.append(Episode(
            observations=np.asarray(obs, dtype=np.float32),
            actions=np.asarray(acts, dtype=np.float32) if with_actions else None,
            rewards=np.asarray(rews, dtype=np.float32),
        ))
    ds = ExpertDataset(env_id or env.env_id, env.obs_shape, (env.act_dim,), episodes)
    ds.validate()
    return ds
