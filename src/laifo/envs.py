"""Built-in environments: partially observable continuous-control toys
(velocity hidden from the observation) and finite tabular models for the
exact bound verifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ENV_IDS = ("pointmass-v", "pointmass-px32", "pointmass-px84", "pendulum-po")


class EpisodeDone(RuntimeError):
    """Raised when step() is called after the episode ended."""


class PointMass:
    """2-D double-integrator reach task. The observation is the position
    only; velocity must be inferred from stacked frames. Reward is
    1 - tanh(distance to goal), a function of the successor state alone;
    the sparse variant pays 1 inside a goal radius."""

    dt = 0.05
    episode_limit = 200
    goal = np.array([0.6, 0.6])
    vmax = 0.5  # slow enough that reaching the goal is a real travel phase
    r_max = 1.0
    sparse_radius = 0.25
    act_dim = 2

    def __init__(self, seed=0, obs_mode="vector", image_size=32, reward_mode="dense"):
        if reward_mode not in ("dense", "sparse"):
            raise ValueError(f"unknown reward mode {reward_mode!r}")
        self.obs_mode = obs_mode
        self.image_size = image_size
        self.reward_mode = reward_mode
        self.rng = np.random.default_rng(seed)
        self._pos = np.zeros(2)
        self._vel = np.zeros(2)
        self._t = 0
        self._done = True

    @property
    def obs_shape(self):
        if self.obs_mode == "pixel":
            return (self.image_size, self.image_size)
        return (2,)

    @property
    def state_dim(self):
        return 4

    # mean of rho0: positions uniform on [-0.8, 0.8]^2, velocity zero
    initial_state_mean = np.zeros(4)

    def reset(self, seed=None):
        if seed is not None:
            self.rng = np.random.default_rng(seed)
        self._pos = self.rng.uniform(-0.8, 0.8, size=2)
        self._vel = np.zeros(2)
        self._t = 0
        self._done = False
        return self._observe()

    def step(self, a):
        if self._done:
            raise EpisodeDone("episode is over; call reset()")
        a = np.clip(np.asarray(a, dtype=float), -1.0, 1.0)
        self._vel = np.clip(self._vel + self.dt * a, -self.vmax, self.vmax)
        self._pos = np.clip(self._pos + self.dt * self._vel, -1.0, 1.0)
        self._t += 1
        self._done = self._t >= self.episode_limit
        return self._observe(), self._reward(), self._done

    def _reward(self):
        dist = np.linalg.norm(self._pos - self.goal)
        if self.reward_mode == "sparse":
            return 1.0 if dist <= self.sparse_radius else 0.0
        return 1.0 - np.tanh(dist)

    def privileged_state(self):
        return np.concatenate([self._pos, self._vel])

    def _observe(self):
        if self.obs_mode == "pixel":
            return self._render()
        return self._pos.copy()

    def _to_px(self, xy):
        n = self.image_size
        return np.clip(((xy + 1.0) / 2.0 * (n - 1)).round().astype(int), 0, n - 1)

    def _render(self):
        n = self.image_size
        img = np.zeros((n, n), dtype=np.float32)
        gy, gx = self._to_px(self.goal)
        ay, ax = self._to_px(self._pos)
        img[max(gx - 1, 0):gx + 2, max(gy - 1, 0):gy + 2] = 0.5
        img[max(ax - 1, 0):ax + 2, max(ay - 1, 0):ay + 2] = 1.0
        return img


class PendulumPO:
    """Underactuated pendulum; observation is (cos, sin) of the angle,
    angular velocity hidden. Upright is angle 0; reward (1 + cos)/2."""

    dt = 0.05
    episode_limit = 200
    gravity = 10.0
    damping = 0.1
    torque = 2.0
    max_speed = 8.0
    r_max = 1.0
    act_dim = 1
    obs_shape = (2,)
    state_dim = 2
    initial_state_mean = np.array([np.pi, 0.0])

    def __init__(self, seed=0, reward_mode="dense"):
        if reward_mode != "dense":
            raise ValueError(f"pendulum-po has only the dense reward, not {reward_mode!r}")
        self.reward_mode = reward_mode
        self.rng = np.random.default_rng(seed)
        self._theta = np.pi
        self._omega = 0.0
        self._t = 0
        self._done = True

    def reset(self, seed=None):
        if seed is not None:
            self.rng = np.random.default_rng(seed)
        self._theta = np.pi + self.rng.uniform(-0.1, 0.1)
        self._omega = self.rng.uniform(-0.05, 0.05)
        self._t = 0
        self._done = False
        return self._observe()

    def step(self, a):
        if self._done:
            raise EpisodeDone("episode is over; call reset()")
        u = float(np.clip(np.asarray(a, dtype=float).reshape(-1)[0], -1.0, 1.0))
        acc = -self.gravity * np.sin(self._theta) - self.damping * self._omega \
            + self.torque * u
        self._omega = np.clip(self._omega + self.dt * acc,
                              -self.max_speed, self.max_speed)
        self._theta = (self._theta + self.dt * self._omega + np.pi) % (2 * np.pi) - np.pi
        self._t += 1
        self._done = self._t >= self.episode_limit
        return self._observe(), self._reward(), self._done

    def _reward(self):
        return (1.0 + np.cos(self._theta)) / 2.0

    def privileged_state(self):
        return np.array([self._theta, self._omega])

    def _observe(self):
        return np.array([np.cos(self._theta), np.sin(self._theta)])


class FullyObservableWrapper:
    """Exposes the privileged state as the observation (for the fully
    observable learners)."""

    def __init__(self, env):
        self.env = env
        self.act_dim = env.act_dim
        self.episode_limit = env.episode_limit
        self.r_max = env.r_max

    @property
    def env_id(self):
        return self.env.env_id

    @property
    def obs_shape(self):
        return (self.env.state_dim,)

    def reset(self, seed=None):
        self.env.reset(seed)
        return self.env.privileged_state()

    def step(self, a):
        _, r, done = self.env.step(a)
        return self.env.privileged_state(), r, done

    def privileged_state(self):
        return self.env.privileged_state()


# ---------------------------------------------------------------------------
# Tabular models
# ---------------------------------------------------------------------------

@dataclass
class TabularPOMDP:
    """Finite model (S, A, X, T, U, R, rho0, gamma). Rewards come in both
    state-action and state-successor tables so either bound setting can be
    verified on the same instance."""

    transition: np.ndarray   # (S, A, S)
    observation: np.ndarray  # (S, X)
    reward_sa: np.ndarray    # (S, A)
    reward_ss: np.ndarray    # (S, S)
    rho0: np.ndarray         # (S,)
    gamma: float
    structure: str = "random"

    def __post_init__(self):
        self.validate()

    @property
    def n_states(self):
        return self.transition.shape[0]

    @property
    def n_actions(self):
        return self.transition.shape[1]

    @property
    def n_obs(self):
        return self.observation.shape[1]

    def validate(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        for name, rows in (("T", self.transition.reshape(-1, self.n_states)),
                           ("U", self.observation),
                           ("rho0", self.rho0[None])):
            if np.any(rows < 0):
                raise ValueError(f"{name} has negative entries")
            if np.any(np.abs(rows.sum(axis=1) - 1.0) > 1e-12):
                raise ValueError(f"{name} rows must sum to 1")

    def r_max(self, mode):
        table = self.reward_sa if mode == "sa" else self.reward_ss
        return float(np.max(np.abs(table)))


def _random_stochastic(rng, shape):
    m = rng.gamma(1.0, 1.0, size=shape) + 1e-3
    return m / m.sum(axis=-1, keepdims=True)


def make_tabular(structure, n_states, n_actions, n_obs=None, seed=0, gamma=0.9):
    """Generate a TabularPOMDP.

    structure:
      random                 - dense random T and U
      mdp                    - X = S, U = identity (fully observable)
      injective-deterministic- U = identity and deterministic T whose
                               successor map is injective in the action
                               for every state
    """
    if n_states < 2 or n_actions < 1:
        raise ValueError("need at least 2 states and 1 action")
    rng = np.random.default_rng(seed)
    if structure in ("mdp", "injective-deterministic"):
        n_obs = n_states
        obs = np.eye(n_states)
    else:
        if n_obs is None:
            n_obs = n_states
        obs = _random_stochastic(rng, (n_states, n_obs))

    if structure == "injective-deterministic":
        if n_actions > n_states:
            raise ValueError(
                "injective-deterministic needs at least one distinct successor "
                f"per action: |A|={n_actions} > |S|={n_states}")
        t = np.zeros((n_states, n_actions, n_states))
        for s in range(n_states):
            succ = rng.choice(n_states, size=n_actions, replace=False)
            t[s, np.arange(n_actions), succ] = 1.0
    elif structure in ("random", "mdp"):
        t = _random_stochastic(rng, (n_states, n_actions, n_states))
    else:
        raise ValueError(f"unknown structure {structure!r}")

    return TabularPOMDP(
        transition=t,
        observation=obs,
        reward_sa=rng.uniform(-1.0, 1.0, size=(n_states, n_actions)),
        reward_ss=rng.uniform(-1.0, 1.0, size=(n_states, n_states)),
        rho0=_random_stochastic(rng, (n_states,)),
        gamma=gamma,
        structure=structure,
    )


def parse_tabular_id(env_id):
    """Parse ids like 'tabular:mdp-s8-a3' or 'tabular:random-s8-a3-x5'."""
    body = env_id.split(":", 1)[1]
    parts = body.split("-")
    structure = parts[0] if parts[0] != "injective" else "injective-deterministic"
    if structure == "injective-deterministic" and parts[1] == "deterministic":
        parts = [parts[0]] + parts[2:]
    sizes = {"s": None, "a": None, "x": None}
    for p in parts[1:]:
        if p and p[0] in sizes:
            sizes[p[0]] = int(p[1:])
    if sizes["s"] is None or sizes["a"] is None:
        raise ValueError(f"tabular id needs -s<N> and -a<N>: {env_id!r}")
    return structure, sizes["s"], sizes["a"], sizes["x"]


_POINTMASS_VIEWS = {"pointmass-v": ("vector", 32), "pointmass-px32": ("pixel", 32),
                    "pointmass-px84": ("pixel", 84)}


def make_env(env_id, seed=0, reward_mode="dense"):
    """Build an environment by id and stamp the id on it as `env_id`.

    Training and evaluation code never copies an environment object; it
    rebuilds one from `env_id` with `clone`, so pass environments that
    come from here.
    """
    if env_id in _POINTMASS_VIEWS:
        obs_mode, image_size = _POINTMASS_VIEWS[env_id]
        env = PointMass(seed=seed, obs_mode=obs_mode, image_size=image_size,
                        reward_mode=reward_mode)
    elif env_id == "pendulum-po":
        env = PendulumPO(seed=seed, reward_mode=reward_mode)
    elif env_id.startswith("tabular:"):
        structure, s, a, x = parse_tabular_id(env_id)
        env = make_tabular(structure, s, a, x, seed=seed)
    else:
        raise ValueError(f"unknown environment id {env_id!r}")
    env.env_id = env_id
    return env


def clone(env):
    """A fresh copy of a `make_env` environment (seed 0), rebuilt from its
    `env_id` with the same reward mode and, if present, the same
    FullyObservableWrapper."""
    if isinstance(env, FullyObservableWrapper):
        return FullyObservableWrapper(clone(env.env))
    return make_env(env.env_id, reward_mode=env.reward_mode)
