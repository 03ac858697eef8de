"""Training algorithms for the latent adversarial imitation game.

One environment step drives exactly one discriminator, one critic, and
one actor update (after the warmup period). Only the critic loss trains
the feature extractor; the discriminator and actor consume latents behind
a stop-gradient.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import augment, nets
from .autodiff import apply, backward, input_gradient, tensor
from .envs import FullyObservableWrapper, clone
from .replay import ExpertWindowSampler, ReplayBuffer

ALGOS = ("laifo", "lail", "dacfo", "dac", "bc", "rl_plus_videos")
_ACTION_ALGOS = ("lail", "dac", "bc")
_FULL_STATE_ALGOS = ("dac", "dacfo")

METRICS_HEADER = ("frame", "episode", "eval_return", "disc_loss", "critic_loss",
                  "actor_loss", "imit_reward_mean", "wall_clock_s", "seed")


class CapabilityError(ValueError):
    """Algorithm/data/environment pairing violation."""


@dataclass
class Config:
    frames: int = 200_000
    sigma_start: float = 1.0
    sigma_end: float = 0.1
    sigma_decay_frames: int = 0      # 0 means half the frame budget
    d: int = 3
    pad: int = 4
    clip_c: float = 0.3
    tau: float = 0.01
    batch: int = 256
    lr: float = 1e-4
    disc_lr: float = 4e-4
    penalty_weight: float = 10.0
    gamma: float = 0.99
    z_dim: int = 50
    hidden: int = 256
    eval_interval: int = 10_000
    eval_episodes: int = 10
    seed: int = 0
    warmup: int = 2000
    capacity: int = 100_000
    imit_reward_scale: float = 1.0
    float32: bool = False

    def __post_init__(self):
        self.validate()

    def validate(self):
        checks = (
            (0.0 <= self.gamma < 1.0, "gamma must satisfy 0 <= gamma < 1"),
            (self.batch >= 1, "batch must be >= 1"),
            (self.penalty_weight >= 0, "penalty_weight must be >= 0"),
            (self.clip_c > 0, "clip_c must be > 0"),
            (self.d >= 1, "d must be >= 1"),
            (self.frames >= 1, "frames must be >= 1"),
            (0.0 <= self.tau <= 1.0, "tau must be in [0, 1]"),
            (self.sigma_start >= 0 and self.sigma_end >= 0, "sigma must be >= 0"),
            (self.pad >= 0, "pad must be >= 0"),
            (self.eval_episodes >= 1, "eval_episodes must be >= 1"),
            (self.eval_interval >= 1, "eval_interval must be >= 1"),
            (self.z_dim >= 1, "z_dim must be >= 1"),
            (self.hidden >= 1, "hidden must be >= 1"),
            (self.sigma_decay_frames >= 0, "sigma_decay_frames must be >= 0"),
            (self.warmup >= 0, "warmup must be >= 0"),
            (self.lr > 0, "lr must be > 0"),
            (self.disc_lr > 0, "disc_lr must be > 0"),
        )
        for ok, msg in checks:
            if not ok:
                raise ValueError(msg)

    @property
    def dtype(self):
        return np.float32 if self.float32 else np.float64


def sigma_schedule(cfg, t):
    """Linear decay from sigma_start to sigma_end over the decay window,
    constant afterwards."""
    decay = cfg.sigma_decay_frames or max(cfg.frames // 2, 1)
    frac = min(max(t, 0) / decay, 1.0)
    return cfg.sigma_start + (cfg.sigma_end - cfg.sigma_start) * frac


@dataclass
class ReportRow:
    frame: int
    episode: int
    eval_return: float
    disc_loss: float
    critic_loss: float
    actor_loss: float
    imit_reward_mean: float
    wall_clock_s: float
    seed: int


@dataclass
class TrainReport:
    algo: str
    env_id: str  # the make_env id, e.g. "pointmass-v"
    seed: int
    rows: list[ReportRow] = field(default_factory=list)
    expert_score: float | None = None
    bundle: object = field(default=None, repr=False, compare=False)

    def final_return(self):
        if not self.rows:
            raise ValueError("empty report")
        return self.rows[-1].eval_return

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(METRICS_HEADER)
            for r in self.rows:
                w.writerow([r.frame, r.episode, f"{r.eval_return:.10g}",
                            f"{r.disc_loss:.10g}", f"{r.critic_loss:.10g}",
                            f"{r.actor_loss:.10g}", f"{r.imit_reward_mean:.10g}",
                            f"{r.wall_clock_s:.3f}", r.seed])


class Adam:
    """Adaptive-moment optimizer with the standard constants."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]
        self.t = 0

    def step(self, grads):
        """One update from `grads`, a list in the order of `self.params`
        (what `backward(loss, self.params)` returns)."""
        self.t += 1
        b1t = 1.0 - self.b1 ** self.t
        b2t = 1.0 - self.b2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v, strict=True):
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            p.values = p.values - self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


@dataclass
class AgentBundle:
    """Encoder (the parameterless `nets.FlattenEncoder` for fully observable
    learners), actor, twin critics, discriminator (a `nets.Mlp` over
    (z, right) rows, right being z' or a as `pairing` says; None for
    behavioral cloning), and their optimizers; the critic optimizer also
    steps the encoder."""

    actor: nets.Actor
    critics: nets.TwinCritics
    enc: object
    disc: nets.Mlp = None
    actor_opt: Adam = None
    critic_opt: Adam = None
    disc_opt: Adam = None
    pairing: str = "transition"

    def named_params(self):
        parts = [self.actor, self.critics, self.enc]
        if self.disc is not None:
            parts.append(self.disc)
        return nets.named_params(*parts)

    def save(self, path):
        nets.save_checkpoint(path, self.named_params())


def build_bundle(cfg, obs_shape, act_dim, pairing, rng, full_state=False,
                 with_disc=True):
    """Networks and optimizers. The encoder flattens the state for
    `full_state` learners, and is convolutional on 2-D (pixel) observations."""
    dtype = cfg.dtype
    if full_state:
        enc = nets.FlattenEncoder(obs_shape)
    elif len(obs_shape) == 2:
        enc = nets.PixelEncoder(rng, obs_shape[0], cfg.d, cfg.z_dim, dtype=dtype)
    else:
        enc = nets.VectorEncoder(rng, obs_shape[0], cfg.d, cfg.z_dim,
                                 hidden=cfg.hidden, dtype=dtype)
    z_dim = enc.z_dim
    actor = nets.Actor(rng, z_dim, act_dim, hidden=cfg.hidden, dtype=dtype)
    critics = nets.TwinCritics(rng, z_dim, act_dim, hidden=cfg.hidden, dtype=dtype)
    disc = None
    if with_disc:
        right = act_dim if pairing == "action" else z_dim
        disc = nets.Mlp(rng, [z_dim + right, cfg.hidden, cfg.hidden, 1],
                        name="disc", dtype=dtype)
    return AgentBundle(
        actor=actor, critics=critics, enc=enc, disc=disc,
        actor_opt=Adam(actor.params(), cfg.lr),
        critic_opt=Adam(critics.params() + enc.params(), cfg.lr),
        disc_opt=Adam(disc.params(), cfg.disc_lr) if disc is not None else None,
        pairing=pairing,
    )


# ---------------------------------------------------------------------------
# Losses and update steps
# ---------------------------------------------------------------------------

def gradient_penalty(disc, expert_pairs, agent_pairs, lam, rng):
    """lam * E[(||grad of the discriminator score at interpolated pairs|| - 1)^2]
    as a differentiable node; interpolants are uniform per pair along the
    segment between the expert and agent rows."""
    expert_pairs = np.asarray(expert_pairs)
    agent_pairs = np.asarray(agent_pairs)
    if expert_pairs.shape != agent_pairs.shape:
        raise ValueError(
            f"pair sets differ: {expert_pairs.shape} vs {agent_pairs.shape}")
    # u takes the discriminator's precision: pairs may be float32 (raw
    # observations) under a float64 learner
    u = rng.uniform(size=(len(expert_pairs), 1)).astype(disc.params()[0].dtype)
    interp = tensor(u * expert_pairs + (1.0 - u) * agent_pairs)
    total = apply("sum", [disc.forward(interp)])
    grad = input_gradient(total, interp)
    norms = apply("l2norm", [grad], axis=1)
    return lam * apply("mean", [apply("square", [norms - 1.0])])


def update_discriminator(bundle, expert_pairs, agent_pairs, cfg, rng):
    """One minimization step of the negated adversarial objective plus the
    gradient penalty; encoder parameters are never touched (the latents
    arrive as constants)."""
    if len(expert_pairs) == 0 or len(agent_pairs) == 0:
        raise ValueError("empty batch")
    disc = bundle.disc
    d_e = apply("sigmoid", [disc.forward(np.asarray(expert_pairs))])
    d_a = apply("sigmoid", [disc.forward(np.asarray(agent_pairs))])
    main = -(apply("mean", [apply("log", [d_e])])
             + apply("mean", [apply("log", [1.0 - d_a])]))
    if cfg.penalty_weight > 0:
        pen = gradient_penalty(disc, expert_pairs, agent_pairs,
                               cfg.penalty_weight, rng)
        loss = main + pen
        pen_value = pen.values.item()
    else:
        loss = main
        pen_value = 0.0
    bundle.disc_opt.step(backward(loss, bundle.disc_opt.params))
    return main.values.item(), pen_value


def update_critic(bundle, batch, cfg, sigma, rng, use_env_reward=False):
    """Regress both critics and the encoder onto the bootstrapped target;
    the target itself carries no gradient. The reward is the scaled
    imitation reward (0 without a discriminator), plus the environment
    reward when `use_env_reward`. Returns the critic loss and the mean of
    the imitation term alone."""
    win = augment.random_shift_batch(batch.windows, cfg.pad, rng)
    nxt = augment.random_shift_batch(batch.next_windows, cfg.pad, rng)
    z_node = bundle.enc.forward(win)
    z = z_node.values
    z_next = bundle.enc.values(nxt)
    actions = batch.actions.astype(z.dtype)
    if bundle.disc is not None:
        right = actions if bundle.pairing == "action" else z_next
        pairs = np.concatenate([z, right], axis=1)
        r = cfg.imit_reward_scale * nets.discriminate(bundle.disc, pairs)
    else:
        r = np.zeros(len(z))
    imit_mean = float(r.mean())
    if use_env_reward:
        r = r + batch.rewards
    a_next = nets.act(bundle.actor, z_next, sigma, cfg.clip_c, rng)
    q1t, q2t = bundle.critics.values(z_next, a_next, use_target=True)
    y = tensor((r + cfg.gamma * np.minimum(q1t, q2t))[:, None].astype(z.dtype))

    q1, q2 = bundle.critics.forward(z_node, tensor(actions))
    loss = apply("mean", [apply("square", [q1 - y])]) + \
        apply("mean", [apply("square", [q2 - y])])
    bundle.critic_opt.step(backward(loss, bundle.critic_opt.params))
    bundle.critics.soft_update(cfg.tau)
    return loss.values.item(), imit_mean


def update_actor(bundle, windows, cfg, sigma, rng):
    """Ascend min_k Q(z, pi(z) + clipped noise) in the actor parameters
    only; encoder and critics read but do not move."""
    z = bundle.enc.values(augment.random_shift_batch(windows, cfg.pad, rng))
    pi = bundle.actor.forward(tensor(z))
    eps = rng.normal(0.0, sigma, size=pi.shape)
    if sigma > 0:
        eps = np.clip(eps, -cfg.clip_c, cfg.clip_c)
    a_node = pi + tensor(eps.astype(z.dtype))
    q1, q2 = bundle.critics.forward(tensor(z), a_node)
    loss = -apply("mean", [apply("minimum", [q1, q2])])
    bundle.actor_opt.step(backward(loss, bundle.actor_opt.params))
    return loss.values.item()


# ---------------------------------------------------------------------------
# Rollout helpers
# ---------------------------------------------------------------------------

class WindowPolicy:
    """Deterministic policy (encoder + actor) over the window of the d most
    recent observations, repeat-padded at episode start. Training acts
    through the same window, adding exploration noise to the actor."""

    def __init__(self, bundle, d):
        self.bundle = bundle
        self.d = d
        self.frames = None

    def reset(self, obs):
        self.frames = [np.asarray(obs)] * self.d

    def observe(self, obs):
        self.frames = self.frames[1:] + [np.asarray(obs)]

    def latent(self):
        return self.bundle.enc.values(np.stack(self.frames)[None])

    def action(self):
        return self.bundle.actor.values(self.latent())[0]


def evaluate(env, policy, episodes, seed):
    """Mean undiscounted return of the deterministic policy over episodes
    seeded `seed + k`, on a fresh copy of `env` (`envs.clone`), so the
    caller's environment is left as it was."""
    env = clone(env)
    total = 0.0
    for k in range(episodes):
        obs = env.reset(seed=seed + k)
        policy.reset(obs)
        done = False
        while not done:
            obs, r, done = env.step(policy.action())
            policy.observe(obs)
            total += r
    return total / episodes


def _evaluate_bundle(env, bundle, cfg):
    """Every row's evaluation: the episodes seeded (seed + 1) * 1_000_003 + k."""
    return evaluate(env, WindowPolicy(bundle, cfg.d), cfg.eval_episodes,
                    seed=(cfg.seed + 1) * 1_000_003)


# ---------------------------------------------------------------------------
# Trainers
# ---------------------------------------------------------------------------

def _check_capabilities(algo, env, expert_data):
    """Refuse pairings the learner cannot train, and return the environment
    as the learner sees it (the privileged state for full-state learners)."""
    if algo not in ALGOS:
        raise CapabilityError(f"unknown algorithm {algo!r}; choose from {ALGOS}")
    if not hasattr(env, "env_id"):
        raise ValueError("train on environments built by envs.make_env")
    if algo in _FULL_STATE_ALGOS and not isinstance(env, FullyObservableWrapper):
        env = FullyObservableWrapper(env)
    if algo in _ACTION_ALGOS:
        if expert_data is None or not expert_data.has_actions:
            raise CapabilityError(
                f"{algo}: expert actions required, but the dataset has none")
    if algo != "rl_plus_videos" and expert_data is None:
        raise CapabilityError(f"{algo} requires an expert dataset")
    if expert_data is not None:
        want = env.obs_shape
        if tuple(expert_data.obs_shape) != tuple(want):
            raise CapabilityError(
                f"expert dataset observations {tuple(expert_data.obs_shape)} do not "
                f"match the environment's {tuple(want)} (fully observable learners "
                f"need state-recorded datasets)")
        if tuple(expert_data.act_shape) != (env.act_dim,):
            raise CapabilityError(
                f"expert dataset actions {tuple(expert_data.act_shape)} do not "
                f"match the environment's {(env.act_dim,)}")
    return env


def train(algo, env, expert_data, cfg, out_dir=None, *, frames=None):
    """Run one training job and return its TrainReport.

    `env` must come from `envs.make_env`. It is consumed for interaction;
    every evaluation episode runs on a fresh copy rebuilt from its
    `env_id` (`envs.clone`). A learner handed a `FullyObservableWrapper`
    (`dac` and `dacfo` wrap theirs) flattens one privileged state (d = 1).
    `rl_plus_videos` adds the environment reward and needs no data; that
    is the expert. A discriminator needs data and a nonzero
    `imit_reward_scale`.
    `frames`, when given, replaces `cfg.frames`; it counts environment
    frames, or gradient steps for `bc`. A budget of 0 only evaluates the
    initial policy, in one row at frame 0.
    """
    env = _check_capabilities(algo, env, expert_data)
    fully_obs = isinstance(env, FullyObservableWrapper)
    frames = cfg.frames if frames is None else frames
    cfg = replace(cfg, frames=max(frames, 1), d=1 if fully_obs else cfg.d)
    if algo == "bc":
        report = train_bc(env, expert_data, cfg, frames)
        if out_dir is not None:
            _write_run_dir(out_dir, report, cfg)
        return report

    pairing = "action" if algo in ("lail", "dac") else "transition"
    rng = np.random.default_rng(cfg.seed)
    with_disc = expert_data is not None and cfg.imit_reward_scale != 0
    bundle = build_bundle(cfg, env.obs_shape, env.act_dim, pairing, rng,
                          full_state=fully_obs, with_disc=with_disc)
    buffer = ReplayBuffer(cfg.capacity, env.obs_shape, (env.act_dim,))
    sampler = ExpertWindowSampler(expert_data, cfg.d) if with_disc else None
    use_env_reward = algo == "rl_plus_videos"

    report = TrainReport(algo=algo, env_id=env.env_id, seed=cfg.seed, bundle=bundle)
    if expert_data is not None and expert_data.has_rewards:
        report.expert_score = expert_data.mean_return()

    obs = env.reset(seed=cfg.seed)
    buffer.push(obs, None)
    policy = WindowPolicy(bundle, cfg.d)
    policy.reset(obs)
    episode = 0
    start = time.perf_counter()
    disc_loss = critic_loss = actor_loss = 0.0
    imit_sum, imit_n = 0.0, 0

    def eval_row(t):
        return ReportRow(
            frame=t, episode=episode, eval_return=_evaluate_bundle(env, bundle, cfg),
            disc_loss=disc_loss, critic_loss=critic_loss, actor_loss=actor_loss,
            imit_reward_mean=imit_sum / max(imit_n, 1),
            wall_clock_s=time.perf_counter() - start, seed=cfg.seed)

    for t in range(1, frames + 1):
        sigma_t = sigma_schedule(cfg, t)
        if t <= cfg.warmup:
            a = rng.uniform(-1.0, 1.0, env.act_dim)
        else:
            a = nets.act(bundle.actor, policy.latent(), sigma_t, None, rng)[0]
        obs, r, done = env.step(a)
        buffer.push(obs, a, r, done)
        policy.observe(obs)
        if done:
            episode += 1
            obs = env.reset()
            buffer.push(obs, None)
            policy.reset(obs)

        if t > cfg.warmup:
            if with_disc:
                disc_loss, _ = _disc_step(bundle, buffer, sampler, cfg, rng)
            batch = buffer.sample_stacked(cfg.batch, cfg.d, rng)
            critic_loss, imit_mean = update_critic(
                bundle, batch, cfg, sigma_t, rng, use_env_reward)
            imit_sum += imit_mean
            imit_n += 1
            actor_loss = update_actor(bundle, batch.windows, cfg, sigma_t, rng)

        if t % cfg.eval_interval == 0 or t == frames:
            report.rows.append(eval_row(t))
            imit_sum, imit_n = 0.0, 0
    if frames == 0:
        report.rows.append(eval_row(0))

    if out_dir is not None:
        _write_run_dir(out_dir, report, cfg)
    return report


def _disc_step(bundle, buffer, sampler, cfg, rng):
    with_actions = bundle.pairing == "action"
    agent = buffer.sample_stacked(cfg.batch, cfg.d, rng)
    expert = sampler.sample(cfg.batch, rng, with_actions)

    def pairs(batch):
        # (z, a) or (z, z') rows from independently augmented windows
        w_t, w_t1 = augment.augment_pair(batch.windows, batch.next_windows,
                                         cfg.pad, rng)
        z = bundle.enc.values(w_t)
        right = (batch.actions.astype(z.dtype) if with_actions
                 else bundle.enc.values(w_t1))
        return np.concatenate([z, right], axis=1)

    agent_pairs = pairs(agent)  # first, so the augmentation draws keep their order
    return update_discriminator(bundle, pairs(expert), agent_pairs, cfg, rng)


def train_bc(env, expert_data, cfg, steps):
    """Supervised regression of expert actions from observation windows,
    for `steps` gradient steps."""
    rng = np.random.default_rng(cfg.seed)
    bundle = build_bundle(cfg, env.obs_shape, env.act_dim, "action", rng,
                          full_state=isinstance(env, FullyObservableWrapper),
                          with_disc=False)
    sampler = ExpertWindowSampler(expert_data, cfg.d)
    params = bundle.actor.params() + bundle.enc.params()
    opt = Adam(params, cfg.lr)
    report = TrainReport(algo="bc", env_id=env.env_id, seed=cfg.seed, bundle=bundle)
    if expert_data.has_rewards:
        report.expert_score = expert_data.mean_return()
    start = time.perf_counter()
    loss_value = 0.0

    def eval_row(step):
        return ReportRow(
            frame=step, episode=0, eval_return=_evaluate_bundle(env, bundle, cfg),
            disc_loss=0.0, critic_loss=0.0, actor_loss=loss_value,
            imit_reward_mean=0.0, wall_clock_s=time.perf_counter() - start,
            seed=cfg.seed)

    for step in range(1, steps + 1):
        batch = sampler.sample(cfg.batch, rng, with_actions=True)
        pred = bundle.actor.forward(bundle.enc.forward(batch.windows))
        target = tensor(batch.actions.astype(cfg.dtype))
        loss = apply("mean", [apply("square", [pred - target])])
        opt.step(backward(loss, opt.params))
        loss_value = loss.values.item()
        if step % cfg.eval_interval == 0 or step == steps:
            report.rows.append(eval_row(step))
    if steps == 0:
        report.rows.append(eval_row(0))
    return report


def _write_run_dir(out_dir, report, cfg):
    os.makedirs(out_dir, exist_ok=True)
    report.to_csv(os.path.join(out_dir, "metrics.csv"))
    report.bundle.save(os.path.join(out_dir, "final.ckpt"))
    with open(os.path.join(out_dir, "config.txt"), "w") as f:
        for fld in fields(Config):
            f.write(f"{fld.name}={getattr(cfg, fld.name)}\n")
