import numpy as np
import pytest

from laifo import autodiff, imitate, nets
from laifo.autodiff import apply, backward, finite_diff_check, tensor
from laifo.envs import FullyObservableWrapper, make_env
from laifo.expertgen import record
from laifo.imitate import (Adam, AgentBundle, CapabilityError, Config,
                           build_bundle, gradient_penalty, sigma_schedule, train, update_actor, update_critic,
                           update_discriminator)
from laifo.replay import Episode, ExpertDataset, ExpertWindowSampler, ReplayBuffer


def small_cfg(**kw):
    base = dict(frames=100, batch=8, hidden=16, z_dim=6, d=2, warmup=10,
                eval_interval=50, eval_episodes=1, capacity=1000,
                sigma_decay_frames=50, penalty_weight=10.0, seed=0)
    base.update(kw)
    return Config(**base)


def _bundle(cfg, pairing="transition", encoder=True, obs=(2,), act=2, seed=0):
    return build_bundle(cfg, obs, act, pairing, np.random.default_rng(seed),
                        full_state=not encoder)


def _cloud_pairs(rng, n, center, dim=6):
    left = rng.normal(center, 0.3, size=(n, dim))
    right = rng.normal(center, 0.3, size=(n, dim))
    return np.concatenate([left, right], axis=1)


def test_config_validation():
    with pytest.raises(ValueError, match="gamma"):
        Config(gamma=1.1)
    with pytest.raises(ValueError, match="batch"):
        Config(batch=0)
    with pytest.raises(ValueError, match="clip_c"):
        Config(clip_c=0.0)
    for key, value in (("eval_interval", 0), ("eval_interval", -5), ("z_dim", 0),
                       ("hidden", 0), ("sigma_decay_frames", -1), ("frames", 0),
                       ("frames", -3), ("warmup", -5), ("lr", 0.0), ("lr", -1.0),
                       ("disc_lr", 0.0), ("disc_lr", -1.0)):
        with pytest.raises(ValueError, match=key):
            Config(**{key: value})


def test_sigma_schedule_linear():
    cfg = small_cfg(sigma_start=1.0, sigma_end=0.1, sigma_decay_frames=100)
    assert sigma_schedule(cfg, 0) == pytest.approx(1.0)
    assert sigma_schedule(cfg, 100) == pytest.approx(0.1)
    assert sigma_schedule(cfg, 1_000_000) == pytest.approx(0.1)
    assert sigma_schedule(cfg, 50) == pytest.approx(0.55)


def test_build_bundle_pairs_the_discriminator():
    cfg = small_cfg()
    for pairing, right in (("transition", cfg.z_dim), ("action", 2)):
        bundle = _bundle(cfg, pairing=pairing)
        assert bundle.pairing == pairing
        assert bundle.disc.weights[0].shape == (cfg.z_dim + right, cfg.hidden)


def test_gradient_penalty_linear_unit_norm_is_zero():
    cfg = small_cfg()
    rng = np.random.default_rng(0)
    disc = nets.Mlp(rng, [6, 4, 4, 1], name="disc")
    # collapse to an exactly linear score with unit-norm input weight
    w = np.zeros((6, 4))
    w[:, 0] = 1.0 / np.sqrt(6.0)
    disc.weights[0].values = w
    disc.biases[0].values = np.array([10.0, -1.0, -1.0, -1.0])  # keep relu active
    disc.weights[1].values = np.eye(4)
    disc.biases[1].values = np.zeros(4)
    disc.weights[2].values = np.array([[1.0], [0.0], [0.0], [0.0]])
    disc.biases[2].values = np.zeros(1)
    pairs = np.abs(np.random.default_rng(1).normal(0.1, 0.05, (5, 6)))
    pen = gradient_penalty(disc, pairs, pairs * 0.5, lam=7.0, rng=rng)
    assert pen.values.item() == pytest.approx(0.0, abs=1e-8)


def test_gradient_penalty_constant_scores_lambda():
    rng = np.random.default_rng(2)
    disc = nets.Mlp(rng, [6, 4, 4, 1], name="disc")
    for p in disc.params():
        p.values[...] = 0.0  # constant zero score
    pen = gradient_penalty(disc, rng.normal(size=(6, 6)), rng.normal(size=(6, 6)),
                           lam=10.0, rng=rng)
    # the norm's 1e-12 safety offset shifts (0 - 1)^2 by ~2e-6
    assert pen.values.item() == pytest.approx(10.0, abs=1e-4)


def test_gradient_penalty_matches_finite_difference_norms():
    rng = np.random.default_rng(3)
    disc = nets.Mlp(rng, [6, 8, 8, 1], name="disc")
    expert = rng.normal(size=(4, 6))
    agent = rng.normal(size=(4, 6))
    lam = 10.0
    pen = gradient_penalty(disc, expert, agent, lam, np.random.default_rng(7))
    # recompute the same interpolants, estimate grad norms by central
    # differences on the score function
    u = np.random.default_rng(7).uniform(size=(4, 1))
    interp = u * expert + (1 - u) * agent
    eps = 1e-6
    norms = []
    for row in interp:
        g = np.zeros(6)
        for i in range(6):
            hi = row.copy(); hi[i] += eps
            lo = row.copy(); lo[i] -= eps
            g[i] = (disc.values(hi[None])[0, 0] - disc.values(lo[None])[0, 0]) / (2 * eps)
        norms.append(np.linalg.norm(g))
    expected = lam * np.mean((np.array(norms) - 1.0) ** 2)
    assert pen.values.item() == pytest.approx(expected, abs=1e-3)


def test_gradient_penalty_float64_learner_keeps_float32_pairs_exact():
    # dac and dacfo feed raw float32 observations to a float64 learner; the
    # interpolants must be formed in float64, as if the pairs were float64
    cfg = small_cfg()
    rng = np.random.default_rng(13)
    expert = rng.normal(size=(8, 6)).astype(np.float32)
    agent = rng.normal(size=(8, 6)).astype(np.float32)
    bundles = [_bundle(cfg, pairing="action", encoder=False, obs=(4,), seed=14)
               for _ in range(2)]
    seen = []
    forward = bundles[0].disc.forward
    bundles[0].disc.forward = lambda x: seen.append(x.values) or forward(x)
    pen32 = gradient_penalty(bundles[0].disc, expert, agent, 10.0,
                             np.random.default_rng(15))
    pen64 = gradient_penalty(bundles[1].disc, expert.astype(np.float64),
                             agent.astype(np.float64), 10.0,
                             np.random.default_rng(15))
    u = np.random.default_rng(15).uniform(size=(8, 1))
    assert seen[0].dtype == np.float64
    assert np.array_equal(seen[0], u * expert + (1.0 - u) * agent)
    assert pen32.values.item() == pen64.values.item()
    del bundles[0].disc.forward
    for b, pairs in zip(bundles, ((expert, agent), (expert.astype(np.float64),
                                                    agent.astype(np.float64)))):
        update_discriminator(b, *pairs, cfg, np.random.default_rng(16))
    for p32, p64 in zip(bundles[0].disc.params(), bundles[1].disc.params()):
        assert p32.dtype == np.float64
        assert np.array_equal(p32.values, p64.values)


def test_gradient_penalty_length_mismatch():
    rng = np.random.default_rng(4)
    disc = nets.Mlp(rng, [4, 4, 4, 1], name="disc")
    with pytest.raises(ValueError, match="pair sets"):
        gradient_penalty(disc, np.zeros((3, 4)), np.zeros((2, 4)), 1.0, rng)


def test_update_discriminator_converges_to_half_on_identical_batches():
    cfg = small_cfg(penalty_weight=0.0, disc_lr=1e-3)
    bundle = _bundle(cfg, seed=5)
    rng = np.random.default_rng(6)
    pairs = rng.normal(size=(8, 12))
    for _ in range(2000):
        update_discriminator(bundle, pairs, pairs, cfg, rng)
    p = nets.discriminate(bundle.disc, pairs)
    assert np.mean(np.abs(p - 0.5)) < 0.05


def test_update_discriminator_separates_clouds_and_penalty_tames_gradients():
    rng = np.random.default_rng(7)
    expert = _cloud_pairs(rng, 64, +0.8)
    agent = _cloud_pairs(rng, 64, -0.8)

    def run(lam, steps=400):
        cfg = small_cfg(penalty_weight=lam, disc_lr=1e-3)
        bundle = _bundle(cfg, seed=8)
        r = np.random.default_rng(9)
        for _ in range(steps):
            update_discriminator(bundle, expert, agent, cfg, r)
        return bundle

    b_plain = run(0.0)
    p_e = nets.discriminate(b_plain.disc, expert)
    p_a = nets.discriminate(b_plain.disc, agent)
    assert p_e.mean() > p_a.mean()  # expert pairs scored higher

    b_pen = run(10.0)

    def penalty_dispersion(bundle):
        pen = gradient_penalty(bundle.disc, expert, agent, 1.0,
                               np.random.default_rng(10))
        return pen.values.item()  # E[(||grad|| - 1)^2] at the interpolants

    assert penalty_dispersion(b_pen) < penalty_dispersion(b_plain)


def test_update_discriminator_leaves_encoder_untouched():
    cfg = small_cfg()
    bundle = _bundle(cfg, seed=11)
    rng = np.random.default_rng(12)
    before = [p.values.copy() for p in bundle.enc.params()]
    wins = rng.standard_normal((8, 2, 2)).astype(np.float32)
    nxt = rng.standard_normal((8, 2, 2)).astype(np.float32)
    z, zn = bundle.enc.values(wins), bundle.enc.values(nxt)
    update_discriminator(bundle, np.concatenate([z, zn], 1),
                         np.concatenate([zn, z], 1), cfg, rng)
    for p, b in zip(bundle.enc.params(), before):
        assert np.array_equal(p.values, b)


def test_update_discriminator_rejects_empty():
    cfg = small_cfg()
    bundle = _bundle(cfg)
    with pytest.raises(ValueError, match="empty"):
        update_discriminator(bundle, np.zeros((0, 12)), np.zeros((0, 12)), cfg,
                             np.random.default_rng(0))


def _toy_batch(rng, cfg, obs_dim=2, act_dim=2, n=8):
    from laifo.replay import StackedBatch
    return StackedBatch(
        windows=rng.standard_normal((n, cfg.d, obs_dim)).astype(np.float32),
        actions=rng.uniform(-1, 1, (n, act_dim)).astype(np.float32),
        rewards=rng.uniform(0, 1, n),
        next_windows=rng.standard_normal((n, cfg.d, obs_dim)).astype(np.float32),
    )


def test_update_critic_gamma_zero_targets_reward_only():
    cfg = small_cfg(gamma=0.0)
    bundle = _bundle(cfg, seed=13)
    rng = np.random.default_rng(14)
    batch = _toy_batch(rng, cfg)
    z = bundle.enc.values(batch.windows)
    z_next = bundle.enc.values(batch.next_windows)
    r = nets.discriminate(bundle.disc, np.concatenate([z, z_next], axis=1))
    # critics have zero-initialized heads, so loss = mean(r^2) * 2 exactly
    loss, imit_mean = update_critic(bundle, batch, cfg, sigma=0.1, rng=rng)
    assert loss == pytest.approx(2 * np.mean(r ** 2), rel=1e-12)
    assert imit_mean == pytest.approx(r.mean())
    assert loss >= 0.0


def test_update_critic_matches_hand_computed_loss():
    cfg = small_cfg(gamma=0.9)
    bundle = _bundle(cfg, seed=15)
    rng = np.random.default_rng(16)
    # give critics nonzero heads so targets differ from online values
    for p in bundle.critics.params():
        if not p.values.any():
            p.values[...] = np.random.default_rng(17).standard_normal(p.shape) * 0.1
    bundle.critics.soft_update(1.0)
    batch = _toy_batch(rng, cfg)

    z = bundle.enc.values(batch.windows)
    z_next = bundle.enc.values(batch.next_windows)
    r = nets.discriminate(bundle.disc, np.concatenate([z, z_next], axis=1))
    rng_clone = np.random.default_rng(18)
    a_next = nets.act(bundle.actor, z_next, 0.1, cfg.clip_c, rng_clone)
    q1t, q2t = bundle.critics.values(z_next, a_next, use_target=True)
    y = r + cfg.gamma * np.minimum(q1t, q2t)
    q1, q2 = bundle.critics.values(z, batch.actions.astype(np.float64))
    expected = np.mean((q1 - y) ** 2) + np.mean((q2 - y) ** 2)

    loss, _ = update_critic(bundle, batch, cfg, sigma=0.1,
                            rng=np.random.default_rng(18))
    assert loss == pytest.approx(expected, abs=1e-10)


def test_update_critic_trains_encoder_and_actor_update_does_not():
    cfg = small_cfg()
    bundle = _bundle(cfg, seed=19)
    rng = np.random.default_rng(20)
    batch = _toy_batch(rng, cfg)
    enc_before = [p.values.copy() for p in bundle.enc.params()]
    # two steps: the zero-initialized critic heads pass no gradient to the
    # encoder until they have moved once
    update_critic(bundle, batch, cfg, sigma=0.2, rng=rng)
    update_critic(bundle, batch, cfg, sigma=0.2, rng=rng)
    assert any(not np.array_equal(p.values, b)
               for p, b in zip(bundle.enc.params(), enc_before))

    enc_before = [p.values.copy() for p in bundle.enc.params()]
    crit_before = [p.values.copy() for p in bundle.critics.params()]
    update_actor(bundle, batch.windows, cfg, sigma=0.2, rng=rng)
    for p, b in zip(bundle.enc.params(), enc_before):
        assert np.array_equal(p.values, b)
    for p, b in zip(bundle.critics.params(), crit_before):
        assert np.array_equal(p.values, b)


def test_update_actor_flat_critic_gives_zero_gradient():
    cfg = small_cfg()
    bundle = _bundle(cfg, seed=21)
    for p in bundle.critics.params():
        p.values[...] = 0.0  # constant critics
    before = [p.values.copy() for p in bundle.actor.params()]
    update_actor(bundle, _toy_batch(np.random.default_rng(22), cfg).windows,
                 cfg, sigma=0.0, rng=np.random.default_rng(23))
    # Adam with exactly zero gradient leaves parameters unchanged
    for p, b in zip(bundle.actor.params(), before):
        assert np.array_equal(p.values, b)


def test_update_actor_converges_to_quadratic_optimum():
    # critic Q = -(a - 0.3)^2 in closed form: the actor should settle at 0.3
    cfg = small_cfg(lr=5e-3)
    rng = np.random.default_rng(24)
    actor = nets.Actor(rng, z_dim=2, act_dim=1, hidden=16)

    class QuadraticCritics:
        def forward(self, z, a):
            diff = a - 0.3
            q = -apply("square", [diff])
            return q, q

        def params(self):
            return []

    bundle = AgentBundle(actor=actor, critics=QuadraticCritics(),
                         enc=nets.FlattenEncoder((2,)),
                         actor_opt=Adam(actor.params(), cfg.lr))
    windows = rng.standard_normal((8, 1, 2)).astype(np.float32)
    for _ in range(500):
        update_actor(bundle, windows, cfg, sigma=0.0, rng=rng)
    out = actor.values(windows.reshape(8, 2))
    assert np.all(np.abs(out - 0.3) < 0.01)


def test_update_actor_differentiates_only_the_actor(monkeypatch):
    cfg = small_cfg()
    bundle = _bundle(cfg, encoder=False, obs=(2,), seed=36)
    rng = np.random.default_rng(37)
    windows = rng.standard_normal((8, 1, 2))
    calls = []
    matmul = autodiff._EagerExec.matmul

    def counted(self, a, b):
        calls.append(1)
        return matmul(self, a, b)

    monkeypatch.setattr(autodiff._EagerExec, "matmul", counted)
    critics_before = [p.values.copy() for p in bundle.critics.params()]
    update_actor(bundle, windows, cfg, sigma=0.1, rng=rng)
    # critics: dX of 3 layers each; actor: dW of 3 layers and dX of the
    # upper 2 (its input is a constant)
    assert len(calls) == 11
    assert all(np.array_equal(p.values, q)
               for p, q in zip(bundle.critics.params(), critics_before))


def test_losses_pass_finite_difference_checks():
    # acceptance-style gradient check on every loss, tiny nets
    cfg = small_cfg(penalty_weight=10.0)
    bundle = _bundle(cfg, seed=25)
    rng = np.random.default_rng(26)
    batch = _toy_batch(rng, cfg, n=4)
    z = bundle.enc.values(batch.windows)
    z_next = bundle.enc.values(batch.next_windows)
    expert_pairs = np.concatenate([z_next, z], axis=1)
    agent_pairs = np.concatenate([z, z_next], axis=1)

    def disc_loss(_):
        d_e = apply("sigmoid", [bundle.disc.forward(expert_pairs)])
        d_a = apply("sigmoid", [bundle.disc.forward(agent_pairs)])
        main = -(apply("mean", [apply("log", [d_e])])
                 + apply("mean", [apply("log", [1.0 - d_a])]))
        return main + gradient_penalty(bundle.disc, expert_pairs, agent_pairs,
                                       cfg.penalty_weight, np.random.default_rng(1))

    assert finite_diff_check(disc_loss, bundle.disc.params(), eps=1e-5) < 1e-4


def _linear_expert_dataset(rng, n_episodes=6, length=12, k=(0.8, -0.5)):
    eps = []
    for _ in range(n_episodes):
        obs = rng.uniform(-1, 1, (length, 2)).astype(np.float32)
        acts = np.clip(obs[:-1] * np.asarray(k, dtype=np.float32), -1, 1)
        rews = np.ones(length - 1, dtype=np.float32)
        eps.append(Episode(obs, acts, rews))
    return ExpertDataset("pointmass-v", (2,), (2,), eps)


def test_bc_recovers_linear_policy():
    rng = np.random.default_rng(27)
    ds = _linear_expert_dataset(rng)
    cfg = small_cfg(d=1, frames=3000, lr=1e-3, batch=32, eval_interval=10**9)
    env = make_env("pointmass-v")
    report = train("bc", env, ds, cfg)
    batch = ExpertWindowSampler(ds, 1).sample(256, np.random.default_rng(28),
                                              with_actions=True)
    pred = report.bundle.actor.values(report.bundle.enc.values(batch.windows))
    mse = float(np.mean((pred - batch.actions) ** 2))
    assert mse < 1e-3


@pytest.mark.parametrize("algo", ["bc", "laifo"])
def test_zero_budget_evaluates_the_initial_policy(algo):
    ds = _linear_expert_dataset(np.random.default_rng(30))
    cfg = small_cfg()
    report = train(algo, make_env("pointmass-v"), ds, cfg, frames=0)
    assert [(r.frame, r.actor_loss) for r in report.rows] == [(0, 0.0)]
    fresh = build_bundle(cfg, (2,), 2, "action" if algo == "bc" else "transition",
                         np.random.default_rng(cfg.seed), with_disc=algo != "bc")
    for (name, got), (_, want) in zip(report.bundle.named_params(),
                                      fresh.named_params(), strict=True):
        assert np.array_equal(got, want), name


def test_capability_gating():
    env = make_env("pointmass-v")
    ds = _linear_expert_dataset(np.random.default_rng(29))
    no_actions = ExpertDataset("pointmass-v", (2,), (2,),
                               [Episode(e.observations, None, e.rewards)
                                for e in ds.episodes])
    cfg = small_cfg()
    with pytest.raises(CapabilityError, match="actions"):
        train("lail", env, no_actions, cfg)
    with pytest.raises(CapabilityError, match="unknown algorithm"):
        train("vmail", env, ds, cfg)
    with pytest.raises(CapabilityError, match="dataset"):
        train("laifo", env, None, cfg)
    # fully observable learner fed an observation-recorded dataset
    with pytest.raises(CapabilityError, match="state"):
        train("dac", env, ds, cfg)


def test_capability_rejects_dataset_action_shape():
    # refused before any environment step, naming both shapes
    env = make_env("pointmass-v")
    ds = _linear_expert_dataset(np.random.default_rng(29))
    wide = ExpertDataset("pointmass-v", (2,), (3,),
                         [Episode(e.observations, np.zeros((len(e) - 1, 3), np.float32),
                                  e.rewards) for e in ds.episodes])
    for algo in ("lail", "laifo"):
        with pytest.raises(CapabilityError, match=r"actions \(3,\).*\(2,\)"):
            train(algo, env, wide, small_cfg())
    assert env._t == 0


def test_train_deterministic_reports():
    env_a = make_env("pointmass-v")
    env_b = make_env("pointmass-v")
    ds = _linear_expert_dataset(np.random.default_rng(30), n_episodes=4)
    cfg = small_cfg(frames=120, warmup=40, eval_interval=60, batch=8)
    rep_a = train("laifo", env_a, ds, cfg)
    rep_b = train("laifo", env_b, ds, cfg)
    rows_a = [(r.frame, r.eval_return, r.disc_loss, r.critic_loss, r.actor_loss,
               r.imit_reward_mean) for r in rep_a.rows]
    rows_b = [(r.frame, r.eval_return, r.disc_loss, r.critic_loss, r.actor_loss,
               r.imit_reward_mean) for r in rep_b.rows]
    assert rows_a == rows_b
    assert len(rows_a) == 2


def test_every_evaluation_runs_the_same_episodes():
    # no update runs before the budget ends, so every row scores one policy
    ds = _linear_expert_dataset(np.random.default_rng(30), n_episodes=4)
    cfg = small_cfg(frames=120, warmup=120, eval_interval=30)
    report = train("laifo", make_env("pointmass-v"), ds, cfg)
    returns = [r.eval_return for r in report.rows]
    assert len(returns) == 4
    assert len(set(returns)) == 1


def test_rl_plus_videos_without_data_reports_no_imitation_reward():
    cfg = small_cfg(frames=80, warmup=20, eval_interval=40)
    report = train("rl_plus_videos", make_env("pointmass-v"), None, cfg)
    assert report.bundle.disc is None
    assert [r.imit_reward_mean for r in report.rows] == [0.0, 0.0]


def test_zero_imitation_scale_builds_no_discriminator():
    # the RL baseline with data trains exactly as without it
    ds = _linear_expert_dataset(np.random.default_rng(30), n_episodes=4)
    cfg = small_cfg(frames=80, warmup=20, eval_interval=40, imit_reward_scale=0.0)
    with_data = train("rl_plus_videos", make_env("pointmass-v"), ds, cfg)
    without = train("rl_plus_videos", make_env("pointmass-v"), None, cfg)
    assert with_data.bundle.disc is None
    for (name, got), (_, want) in zip(with_data.bundle.named_params(),
                                      without.bundle.named_params(), strict=True):
        assert np.array_equal(got, want), name
    assert [r.disc_loss for r in with_data.rows] == [0.0, 0.0]


def test_learners_on_the_privileged_state_flatten_one_frame():
    env = FullyObservableWrapper(make_env("pointmass-v"))
    ds = record(env, _StandStill(2), 1, seed=0)
    for algo in ("bc", "laifo"):
        report = train(algo, env, ds, small_cfg(d=3), frames=0)
        assert isinstance(report.bundle.enc, nets.FlattenEncoder), algo
        assert report.bundle.enc.z_dim == 4


def test_train_loop_counts_one_update_per_step():
    env = make_env("pointmass-v")
    ds = _linear_expert_dataset(np.random.default_rng(31), n_episodes=4)
    cfg = small_cfg(frames=60, warmup=20, eval_interval=60, batch=4)
    calls = {"disc": 0, "critic": 0, "actor": 0}
    orig_disc, orig_critic, orig_actor = (imitate.update_discriminator,
                                          imitate.update_critic,
                                          imitate.update_actor)

    def count(name, fn):
        def wrapper(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)
        return wrapper

    imitate.update_discriminator = count("disc", orig_disc)
    imitate.update_critic = count("critic", orig_critic)
    imitate.update_actor = count("actor", orig_actor)
    try:
        train("laifo", env, ds, cfg)
    finally:
        imitate.update_discriminator = orig_disc
        imitate.update_critic = orig_critic
        imitate.update_actor = orig_actor
    assert calls == {"disc": 40, "critic": 40, "actor": 40}


def test_imitation_reward_bounds_and_target_bound():
    cfg = small_cfg()
    bundle = _bundle(cfg, seed=32)
    rng = np.random.default_rng(33)
    z = rng.standard_normal((100, cfg.z_dim))
    zn = rng.standard_normal((100, cfg.z_dim))
    r = nets.discriminate(bundle.disc, np.concatenate([z, zn], axis=1))
    assert np.all((r > 0) & (r < 1))
    # discounted imitation return is bounded by 1/(1-gamma)
    assert r.max() / (1 - 0.99) <= 100.0 + 1e-9


def test_rl_plus_videos_uses_env_reward():
    cfg = small_cfg(gamma=0.0)
    bundle = _bundle(cfg, seed=34)
    rng = np.random.default_rng(35)
    batch = _toy_batch(rng, cfg)
    z = bundle.enc.values(batch.windows)
    z_next = bundle.enc.values(batch.next_windows)
    r_imit = nets.discriminate(bundle.disc, np.concatenate([z, z_next], axis=1))
    loss, imit_mean = update_critic(bundle, batch, cfg, sigma=0.1, rng=rng,
                                    use_env_reward=True)
    y = r_imit + batch.rewards
    assert loss == pytest.approx(2 * np.mean(y ** 2), rel=1e-9)
    # the reported mean is the imitation term alone
    assert imit_mean == pytest.approx(np.mean(r_imit), rel=1e-12)


class _StandStill:
    def __init__(self, act_dim):
        self.act_dim = act_dim

    def action(self, state):
        return np.zeros(self.act_dim)


@pytest.mark.parametrize("algo, env_id", [("laifo", "pointmass-v"),
                                           ("rl_plus_videos", "pointmass-px32"),
                                           ("dac", "pointmass-v")])
def test_float32_config_keeps_every_array_float32(algo, env_id, monkeypatch):
    grad_dtypes = []
    step = Adam.step

    def recording_step(opt, grads):
        grad_dtypes.extend(g.dtype for g in grads)
        step(opt, grads)

    monkeypatch.setattr(Adam, "step", recording_step)
    env = make_env(env_id)
    data = record(FullyObservableWrapper(env) if algo == "dac" else env,
                  _StandStill(env.act_dim), 1, seed=0, env_id=env_id)
    cfg = Config(frames=14, warmup=10, batch=4, hidden=8, z_dim=4, d=2,
                 capacity=64, eval_interval=14, eval_episodes=1, float32=True)
    bundle = train(algo, env, data, cfg).bundle
    assert grad_dtypes and set(grad_dtypes) == {np.dtype(np.float32)}
    opts = [bundle.actor_opt, bundle.critic_opt, bundle.disc_opt]
    assert all(opt.t == 4 for opt in opts)
    for opt in opts:
        for arr in opt.m + opt.v + [p.values for p in opt.params]:
            assert arr.dtype == np.float32
    for name, values in bundle.named_params():
        assert values.dtype == np.float32, name
