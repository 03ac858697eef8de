"""Training algorithms for the latent adversarial imitation game.

One environment step drives exactly one discriminator, one critic, and
one actor update (after the warmup period). Only the critic loss trains
the feature extractor; the discriminator and actor consume latents behind
a stop-gradient.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import augment, nets
from .autodiff import apply, backward, input_gradient, minimum, tensor
from .envs import FullyObservableWrapper, clone
from .replay import ExpertWindowSampler, ReplayBuffer

ALGOS = ("laifo", "lail", "dacfo", "dac", "bc", "rl_plus_videos")
# The privileged expert: the same learner on the full state with the
# environment reward and no discriminator. `expertgen.train_expert` runs
# it; it is not in ALGOS, so the imitation CLI does not offer it.
EXPERT = "expert-ddpg"
_ACTION_ALGOS = ("lail", "dac", "bc")
_FULL_STATE_ALGOS = ("dac", "dacfo", EXPERT)
_ENV_REWARD_ALGOS = ("rl_plus_videos", EXPERT)

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
    image_size: int = 84
    imit_reward_scale: float = 1.0
    bc_steps: int = 10_000
    stop_at_return: float = 0.0      # 0 disables early stopping
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

    def frames_to_return(self, threshold):
        """First frame whose eval return reaches the threshold, or None."""
        for row in self.rows:
            if row.eval_return >= threshold:
                return row.frame
        return None

    def to_csv(self, path_or_buf):
        close = False
        if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
            path_or_buf = open(path_or_buf, "w", newline="")
            close = True
        try:
            w = csv.writer(path_or_buf)
            w.writerow(METRICS_HEADER)
            for r in self.rows:
                w.writerow([r.frame, r.episode, f"{r.eval_return:.10g}",
                            f"{r.disc_loss:.10g}", f"{r.critic_loss:.10g}",
                            f"{r.actor_loss:.10g}", f"{r.imit_reward_mean:.10g}",
                            f"{r.wall_clock_s:.3f}", r.seed])
        finally:
            if close:
                path_or_buf.close()


class Adam:
    """Adaptive-moment optimizer with the standard constants."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
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
    """Encoder (None for fully observable learners), actor, twin critics,
    discriminator (None for behavioral cloning), and their optimizers; the
    critic optimizer also steps the encoder."""

    actor: nets.Actor
    critics: nets.TwinCritics
    enc: object = None
    disc: nets.Discriminator = None
    actor_opt: Adam = None
    critic_opt: Adam = None
    disc_opt: Adam = None

    def latent(self, windows):
        """Stop-gradient latents for a batch of windows."""
        if self.enc is None:
            return _squeeze_windows(windows)
        return self.enc.values(windows)

    def named_params(self):
        parts = [self.actor, self.critics]
        if self.enc is not None:
            parts.append(self.enc)
        if self.disc is not None:
            parts.append(self.disc)
        return nets.named_params(*parts)

    def save(self, path):
        nets.save_checkpoint(path, self.named_params())


def _squeeze_windows(windows):
    windows = np.asarray(windows)
    return windows.reshape(windows.shape[0], -1)


def build_bundle(cfg, obs_shape, act_dim, pairing, rng, encoder=True,
                 pixel=False, with_disc=True):
    dtype = cfg.dtype
    if encoder:
        if pixel:
            enc = nets.PixelEncoder(rng, obs_shape[0], cfg.d, cfg.z_dim, dtype=dtype)
        else:
            enc = nets.VectorEncoder(rng, obs_shape[0], cfg.d, cfg.z_dim,
                                     hidden=cfg.hidden, dtype=dtype)
        z_dim = cfg.z_dim
    else:
        enc = None
        z_dim = int(np.prod(obs_shape))
    actor = nets.Actor(rng, z_dim, act_dim, hidden=cfg.hidden, dtype=dtype)
    critics = nets.TwinCritics(rng, z_dim, act_dim, hidden=cfg.hidden, dtype=dtype)
    disc = None
    if with_disc:
        right = act_dim if pairing == "action" else z_dim
        disc = nets.Discriminator(rng, z_dim, right, pairing=pairing,
                                  hidden=cfg.hidden, dtype=dtype)
    return AgentBundle(
        actor=actor, critics=critics, enc=enc, disc=disc,
        actor_opt=Adam(actor.params(), cfg.lr),
        critic_opt=Adam(critics.params() + (enc.params() if enc is not None else []),
                        cfg.lr),
        disc_opt=Adam(disc.params(), cfg.disc_lr) if disc is not None else None,
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
    total = apply("sum", [disc.score(interp)])
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
    d_e = apply("sigmoid", [disc.score(np.asarray(expert_pairs))])
    d_a = apply("sigmoid", [disc.score(np.asarray(agent_pairs))])
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


def imitation_reward(disc, z, right):
    """r = D(z, z') (or D(z, a) in action pairing), strictly inside (0, 1)."""
    return nets.discriminate(disc, z, right)


def update_critic(bundle, batch, cfg, sigma, rng, pixel=False,
                  use_env_reward=False):
    """Regress both critics (and the encoder, when present) onto the
    bootstrapped target; the target itself carries no gradient."""
    if bundle.enc is not None:
        win = augment.random_shift_batch(batch.windows, cfg.pad if pixel else 0, rng)
        nxt = augment.random_shift_batch(batch.next_windows, cfg.pad if pixel else 0, rng)
        z_node = bundle.enc.forward(win)
        z = z_node.values
        z_next = bundle.enc.values(nxt)
    else:
        z = _squeeze_windows(batch.windows)
        z_node = tensor(z)
        z_next = _squeeze_windows(batch.next_windows)

    actions = batch.actions.astype(z.dtype)
    if bundle.disc is not None:
        right = actions if bundle.disc.pairing == "action" else z_next
        r = cfg.imit_reward_scale * imitation_reward(bundle.disc, z, right)
    else:
        r = np.zeros(len(z))
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
    return loss.values.item(), float(r.mean())


def update_actor(bundle, windows, cfg, sigma, rng, pixel=False):
    """Ascend min_k Q(z, pi(z) + clipped noise) in the actor parameters
    only; encoder and critics read but do not move."""
    if bundle.enc is not None:
        win = augment.random_shift_batch(windows, cfg.pad if pixel else 0, rng)
        z = bundle.enc.values(win)
    else:
        z = _squeeze_windows(windows)
    pi = bundle.actor.forward(tensor(z))
    eps = rng.normal(0.0, sigma, size=pi.shape)
    if sigma > 0:
        eps = np.clip(eps, -cfg.clip_c, cfg.clip_c)
    a_node = pi + tensor(eps.astype(z.dtype))
    q1, q2 = bundle.critics.forward(tensor(z), a_node)
    loss = -apply("mean", [minimum(q1, q2)])
    bundle.actor_opt.step(backward(loss, bundle.actor_opt.params))
    return loss.values.item()


# ---------------------------------------------------------------------------
# Rollout helpers
# ---------------------------------------------------------------------------

class OnlineWindow:
    """Maintains the stack of the d most recent observations, repeat-padded
    at episode start."""

    def __init__(self, d):
        self.d = d
        self.frames = None

    def reset(self, obs):
        self.frames = [np.asarray(obs)] * self.d

    def append(self, obs):
        self.frames = self.frames[1:] + [np.asarray(obs)]

    def stacked(self):
        return np.stack(self.frames)


class WindowPolicy:
    """Deterministic policy over observation windows (encoder + actor)."""

    def __init__(self, bundle, d):
        self.bundle = bundle
        self.window = OnlineWindow(d)

    def reset(self, obs):
        self.window.reset(obs)

    def observe(self, obs):
        self.window.append(obs)

    def action(self):
        z = self.bundle.latent(self.window.stacked()[None])
        return self.bundle.actor.values(z)[0]


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


# ---------------------------------------------------------------------------
# Trainers
# ---------------------------------------------------------------------------

def _check_capabilities(algo, env, expert_data):
    """Refuse pairings the learner cannot train, and return the environment
    as the learner sees it (the privileged state for full-state learners)."""
    if algo not in ALGOS and algo != EXPERT:
        raise CapabilityError(f"unknown algorithm {algo!r}; choose from {ALGOS}")
    if not hasattr(env, "env_id"):
        raise ValueError("train on environments built by envs.make_env")
    if env.env_id.startswith("tabular:"):
        raise CapabilityError(
            f"{env.env_id} is an exact model for verify-theory and cannot be "
            f"stepped; train on one of the control environments")
    if algo in _FULL_STATE_ALGOS and not isinstance(env, FullyObservableWrapper):
        env = FullyObservableWrapper(env)
    if algo in _ACTION_ALGOS:
        if expert_data is None or not expert_data.has_actions:
            raise CapabilityError(
                f"{algo}: expert actions required, but the dataset has none")
    if algo not in _ENV_REWARD_ALGOS and expert_data is None:
        raise CapabilityError(f"{algo} requires an expert dataset")
    if expert_data is not None:
        want = env.obs_shape
        if tuple(expert_data.obs_shape) != tuple(want):
            raise CapabilityError(
                f"expert dataset observations {tuple(expert_data.obs_shape)} do not "
                f"match the environment's {tuple(want)} (fully observable learners "
                f"need state-recorded datasets)")
    return env


def train(algo, env, expert_data, cfg, out_dir=None, *, frames=None):
    """Run one training job and return its TrainReport.

    `env` must come from `envs.make_env`. It is consumed for interaction;
    every evaluation episode runs on a fresh copy rebuilt from its
    `env_id` (`envs.clone`). The fully observable learners see the
    privileged state; an unwrapped environment is wrapped for them.
    `frames`, when given, replaces `cfg.frames`; a budget of 0 only
    evaluates the initial policy, in one row at frame 0.
    """
    env = _check_capabilities(algo, env, expert_data)
    if algo == "bc":
        return train_bc(env, expert_data, cfg)

    fully_obs = algo in _FULL_STATE_ALGOS
    expert = algo == EXPERT
    pairing = "action" if algo in ("lail", "dac") else "transition"
    pixel = len(env.obs_shape) == 2
    d = 1 if fully_obs else cfg.d
    frames = cfg.frames if frames is None else frames
    cfg = replace(cfg, d=d, frames=max(frames, 1))

    rng = np.random.default_rng(cfg.seed)
    bundle = build_bundle(cfg, env.obs_shape, env.act_dim, pairing, rng,
                          encoder=not fully_obs, pixel=pixel,
                          with_disc=expert_data is not None)
    buffer = ReplayBuffer(cfg.capacity, env.obs_shape, (env.act_dim,))
    sampler = ExpertWindowSampler(expert_data, d) if expert_data is not None else None
    use_env_reward = algo in _ENV_REWARD_ALGOS

    report = TrainReport(algo=algo, env_id=env.env_id, seed=cfg.seed, bundle=bundle)
    if expert_data is not None and expert_data.has_rewards:
        report.expert_score = expert_data.mean_return()

    obs = env.reset(seed=cfg.seed)
    buffer.push(obs, None)
    window = OnlineWindow(d)
    window.reset(obs)
    episode = 0
    start = time.perf_counter()
    disc_loss = critic_loss = actor_loss = 0.0
    imit_sum, imit_n = 0.0, 0

    def eval_row(t):
        # the expert is scored on the same episodes at every evaluation
        ret = evaluate(env, WindowPolicy(bundle, d), cfg.eval_episodes,
                       seed=(cfg.seed + 1) * 1_000_003 + (0 if expert else t))
        return ReportRow(
            frame=t, episode=episode, eval_return=ret,
            disc_loss=disc_loss, critic_loss=critic_loss, actor_loss=actor_loss,
            imit_reward_mean=0.0 if expert else imit_sum / max(imit_n, 1),
            wall_clock_s=time.perf_counter() - start, seed=cfg.seed)

    for t in range(1, frames + 1):
        sigma_t = sigma_schedule(cfg, t)
        if t <= cfg.warmup:
            a = rng.uniform(-1.0, 1.0, env.act_dim)
        else:
            z = bundle.latent(window.stacked()[None])
            a = nets.act(bundle.actor, z, sigma_t, None, rng)[0]
        obs, r, done = env.step(a)
        buffer.push(obs, a, r, done)
        window.append(obs)
        if done:
            episode += 1
            obs = env.reset()
            buffer.push(obs, None)
            window.reset(obs)

        if t > cfg.warmup:
            if bundle.disc is not None:
                disc_loss, _ = _disc_step(bundle, buffer, sampler, cfg, pairing,
                                          pixel, rng)
            batch = buffer.sample_stacked(cfg.batch, d, rng)
            critic_loss, imit_mean = update_critic(
                bundle, batch, cfg, sigma_t, rng, pixel, use_env_reward)
            imit_sum += imit_mean
            imit_n += 1
            actor_loss = update_actor(bundle, batch.windows, cfg, sigma_t, rng, pixel)

        if t % cfg.eval_interval == 0 or t == frames:
            report.rows.append(eval_row(t))
            imit_sum, imit_n = 0.0, 0
            if cfg.stop_at_return and report.rows[-1].eval_return >= cfg.stop_at_return:
                break
    if frames == 0:
        report.rows.append(eval_row(0))

    if out_dir is not None:
        _write_run_dir(out_dir, report, bundle, cfg)
    return report


def _disc_step(bundle, buffer, sampler, cfg, pairing, pixel, rng):
    batch = buffer.sample_stacked(cfg.batch, cfg.d, rng)
    e_win, e_act, e_nxt = sampler.sample(cfg.batch, rng,
                                         with_actions=pairing == "action")
    a_t, a_t1 = augment.augment_pair(batch.windows, batch.next_windows,
                                     cfg.pad if pixel else 0, rng)
    e_t, e_t1 = augment.augment_pair(e_win, e_nxt, cfg.pad if pixel else 0, rng)
    za, za_next = bundle.latent(a_t), bundle.latent(a_t1)
    ze, ze_next = bundle.latent(e_t), bundle.latent(e_t1)
    if pairing == "action":
        agent_pairs = np.concatenate([za, batch.actions.astype(za.dtype)], axis=1)
        expert_pairs = np.concatenate([ze, e_act.astype(ze.dtype)], axis=1)
    else:
        agent_pairs = np.concatenate([za, za_next], axis=1)
        expert_pairs = np.concatenate([ze, ze_next], axis=1)
    return update_discriminator(bundle, expert_pairs, agent_pairs, cfg, rng)


def train_bc(env, expert_data, cfg):
    """Supervised regression of expert actions from observation windows."""
    rng = np.random.default_rng(cfg.seed)
    pixel = len(env.obs_shape) == 2
    bundle = build_bundle(cfg, env.obs_shape, env.act_dim, "action", rng,
                          encoder=True, pixel=pixel, with_disc=False)
    sampler = ExpertWindowSampler(expert_data, cfg.d)
    params = bundle.actor.params() + bundle.enc.params()
    opt = Adam(params, cfg.lr)
    report = TrainReport(algo="bc", env_id=env.env_id, seed=cfg.seed, bundle=bundle)
    if expert_data.has_rewards:
        report.expert_score = expert_data.mean_return()
    start = time.perf_counter()
    loss_value = 0.0
    for step in range(1, cfg.bc_steps + 1):
        wins, acts, _ = sampler.sample(cfg.batch, rng, with_actions=True)
        z = bundle.enc.forward(wins)
        pred = bundle.actor.forward(z)
        loss = apply("mean", [apply("square", [pred - tensor(acts.astype(cfg.dtype))])])
        opt.step(backward(loss, opt.params))
        loss_value = loss.values.item()
        if step % cfg.eval_interval == 0 or step == cfg.bc_steps:
            policy = WindowPolicy(bundle, cfg.d)
            ret = evaluate(env, policy, cfg.eval_episodes,
                           seed=(cfg.seed + 1) * 1_000_003 + step)
            report.rows.append(ReportRow(
                frame=step, episode=0, eval_return=ret, disc_loss=0.0,
                critic_loss=0.0, actor_loss=loss_value, imit_reward_mean=0.0,
                wall_clock_s=time.perf_counter() - start, seed=cfg.seed))
    return report


def _write_run_dir(out_dir, report, bundle, cfg):
    import os
    os.makedirs(out_dir, exist_ok=True)
    report.to_csv(os.path.join(out_dir, "metrics.csv"))
    bundle.save(os.path.join(out_dir, "final.ckpt"))
    with open(os.path.join(out_dir, "config.txt"), "w") as f:
        for fld in fields(Config):
            f.write(f"{fld.name}={getattr(cfg, fld.name)}\n")
