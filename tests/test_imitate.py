import numpy as np
import pytest

from laifo import autodiff, imitate, nets
from laifo.autodiff import apply, backward, finite_diff_check, tensor
from laifo.envs import FullyObservableWrapper, make_env, make_tabular
from laifo.expertgen import record
from laifo.imitate import (Adam, AgentBundle, CapabilityError, Config,
                           build_bundle, gradient_penalty, sigma_schedule, train, update_actor, update_critic,
                           update_discriminator)
from laifo.replay import Episode, ExpertDataset, ExpertWindowSampler, ReplayBuffer
from laifo.theory import (TWO_LN_2, LatentScheme, enumerate_reachable, f_divergence,
                          occupancies, random_policy)


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


def _fit_to_latent_occupancies(penalty_weight, steps=1500, n_rows=400):
    """Train a discriminator through `update_discriminator` on fixed
    one-hot (z, z') rows sampled from two random policies' exact rho_zz on
    a tabular MDP. Returns the final main loss, the empirical row
    histograms of the expert and agent rows, and the balanced accuracy."""
    pomdp = make_tabular("mdp", 4, 2, seed=3)
    scheme = LatentScheme(1)
    rng = np.random.default_rng(4)
    n_z = len(enumerate_reachable(pomdp, scheme)[1])
    rows, hists = [], []
    for _ in range(2):  # expert, then agent
        rho = occupancies(pomdp, scheme, random_policy(n_z, 2, rng)).rho_zz.ravel()
        idx = rng.choice(rho.size, size=n_rows, p=rho / rho.sum())
        rows.append(np.concatenate([np.eye(n_z)[idx // n_z], np.eye(n_z)[idx % n_z]], 1))
        hists.append(np.bincount(idx, minlength=rho.size) / n_rows)
    disc = nets.Mlp(np.random.default_rng(5), [2 * n_z, 32, 32, 1], name="disc")
    bundle = AgentBundle(actor=None, critics=None, enc=None, disc=disc,
                         disc_opt=Adam(disc.params(), 1e-2))
    cfg = small_cfg(penalty_weight=penalty_weight)
    for _ in range(steps):
        main, _ = update_discriminator(bundle, rows[0], rows[1], cfg, rng)
    acc = 0.5 * (np.mean(nets.discriminate(disc, rows[0]) > 0.5)
                 + np.mean(nets.discriminate(disc, rows[1]) < 0.5))
    return main, hists[0], hists[1], acc


def test_update_discriminator_reaches_the_bayes_optimal_loss_on_exact_occupancies():
    # at D* = p_E / (p_E + p_A) the main loss is 2 ln 2 - JS(p_E, p_A) of the
    # rows' histograms (JS as the sum of two KLs), the least any D attains;
    # no classifier separates the rows better than their TV allows
    main, p_e, p_a, acc = _fit_to_latent_occupancies(penalty_weight=0.0)
    optimum = TWO_LN_2 - f_divergence("js", p_e, p_a)
    assert 0.05 < f_divergence("js", p_e, p_a) < 1.0  # neither equal nor disjoint
    assert optimum - 1e-9 <= main < optimum + 0.01
    assert 2 * acc - 1 <= f_divergence("tv", p_e, p_a) + 1e-12


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


def _latents(bundle, batch):
    """What the training loop hands the critic: graph latents of the
    windows, the actions in their dtype, and plain successor latents."""
    z_node = bundle.enc.forward(batch.windows)
    return (z_node, batch.actions.astype(z_node.values.dtype),
            bundle.enc.values(batch.next_windows))


def test_update_critic_gamma_zero_targets_reward_only():
    cfg = small_cfg(gamma=0.0)
    bundle = _bundle(cfg, seed=13)
    rng = np.random.default_rng(14)
    batch = _toy_batch(rng, cfg)
    z_node, actions, z_next = _latents(bundle, batch)
    # critics have zero-initialized heads, so loss = mean(r^2) * 2 exactly
    loss = update_critic(bundle, z_node, actions, batch.rewards, z_next, cfg,
                         sigma=0.1, rng=rng)
    assert loss == pytest.approx(2 * np.mean(batch.rewards ** 2), rel=1e-12)
    assert loss > 0.0


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
    z_node, actions, z_next = _latents(bundle, batch)

    rng_clone = np.random.default_rng(18)
    a_next = nets.act(bundle.actor, z_next, 0.1, cfg.clip_c, rng_clone)
    q1t, q2t = bundle.critics.values(z_next, a_next, use_target=True)
    y = batch.rewards + cfg.gamma * np.minimum(q1t, q2t)
    q1, q2 = bundle.critics.values(z_node.values, actions)
    expected = np.mean((q1 - y) ** 2) + np.mean((q2 - y) ** 2)

    loss = update_critic(bundle, z_node, actions, batch.rewards, z_next, cfg,
                         sigma=0.1, rng=np.random.default_rng(18))
    assert loss == pytest.approx(expected, abs=1e-10)


def test_update_critic_trains_encoder_and_actor_update_does_not():
    cfg = small_cfg()
    bundle = _bundle(cfg, seed=19)
    rng = np.random.default_rng(20)
    batch = _toy_batch(rng, cfg)
    enc_before = [p.values.copy() for p in bundle.enc.params()]
    # two steps: the zero-initialized critic heads pass no gradient to the
    # encoder until they have moved once
    for _ in range(2):
        z_node, actions, z_next = _latents(bundle, batch)
        update_critic(bundle, z_node, actions, batch.rewards, z_next, cfg,
                      sigma=0.2, rng=rng)
    assert any(not np.array_equal(p.values, b)
               for p, b in zip(bundle.enc.params(), enc_before))

    enc_before = [p.values.copy() for p in bundle.enc.params()]
    crit_before = [p.values.copy() for p in bundle.critics.params()]
    update_actor(bundle, bundle.enc.values(batch.windows), cfg, sigma=0.2, rng=rng)
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
    z = bundle.enc.values(_toy_batch(np.random.default_rng(22), cfg).windows)
    update_actor(bundle, z, cfg, sigma=0.0, rng=np.random.default_rng(23))
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

    # the actor reads latents, never the encoder
    bundle = AgentBundle(actor=actor, critics=QuadraticCritics(), enc=None,
                         actor_opt=Adam(actor.params(), cfg.lr))
    z = rng.standard_normal((8, 2))
    for _ in range(500):
        update_actor(bundle, z, cfg, sigma=0.0, rng=rng)
    out = actor.values(z)
    assert np.all(np.abs(out - 0.3) < 0.01)


def test_update_actor_differentiates_only_the_actor(monkeypatch):
    cfg = small_cfg()
    bundle = _bundle(cfg, encoder=False, obs=(2,), seed=36)
    rng = np.random.default_rng(37)
    z = rng.standard_normal((8, 2))
    calls = []
    matmul = autodiff._EagerExec.matmul

    def counted(self, a, b):
        calls.append(1)
        return matmul(self, a, b)

    monkeypatch.setattr(autodiff._EagerExec, "matmul", counted)
    critics_before = [p.values.copy() for p in bundle.critics.params()]
    update_actor(bundle, z, cfg, sigma=0.1, rng=rng)
    # critics: dX of 3 layers each; actor: dW of 3 layers and dX of the
    # upper 2 (its input is a constant)
    assert len(calls) == 11
    assert all(np.array_equal(p.values, q)
               for p, q in zip(bundle.critics.params(), critics_before))


class _GradientRecorder:
    """An optimizer that keeps the gradients it is handed and moves nothing."""

    def __init__(self, params):
        self.params = params
        self.grads = None

    def step(self, grads):
        self.grads = grads


def test_losses_pass_finite_difference_checks():
    # the gradient each update hands its optimizer against central
    # differences of the loss it returns, on tiny nets; the rows and
    # latents come from one encoding of one batch, as in the training loop
    cfg = small_cfg(penalty_weight=10.0, hidden=4, tau=0.0)
    bundle = _bundle(cfg, seed=25)
    rng = np.random.default_rng(26)
    for p in bundle.actor.params() + bundle.critics.params():
        if not p.values.any():  # zero-initialized heads pass no gradient
            p.values[...] = rng.standard_normal(p.shape) * 0.1
    batch = _toy_batch(rng, cfg, n=4)
    z_node, actions, z_next = _latents(bundle, batch)
    z = z_node.values
    agent_pairs = np.concatenate([z, z_next], axis=1)
    expert_pairs = np.concatenate([z_next, z], axis=1)
    losses = {
        "disc_opt": lambda: sum(update_discriminator(
            bundle, expert_pairs, agent_pairs, cfg, np.random.default_rng(1))),
        "critic_opt": lambda: update_critic(
            bundle, bundle.enc.forward(batch.windows), actions, batch.rewards,
            z_next, cfg, 0.1, np.random.default_rng(2)),
        "actor_opt": lambda: update_actor(bundle, z, cfg, 0.1,
                                          np.random.default_rng(3)),
    }
    eps = 1e-5
    for name, loss in losses.items():
        opt = _GradientRecorder(getattr(bundle, name).params)
        setattr(bundle, name, opt)
        loss()
        worst = 0.0
        for p, grad in zip(opt.params, opt.grads, strict=True):
            flat = p.values.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = loss()
                flat[i] = orig - eps
                lo = loss()
                flat[i] = orig
                fd = (hi - lo) / (2 * eps)
                ad = grad.reshape(-1)[i]
                worst = max(worst, abs(ad - fd) / max(1.0, abs(ad), abs(fd)))
        assert worst < 1e-4, name


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


def test_train_loop_counts_one_update_per_step(monkeypatch):
    # one agent sample and four batch encoder passes per update: the
    # agent's windows (graph) and successors, and the expert's two
    env = make_env("pointmass-v")
    ds = _linear_expert_dataset(np.random.default_rng(31), n_episodes=4)
    cfg = small_cfg(frames=60, warmup=20, eval_interval=60, batch=4)
    calls = dict.fromkeys(("disc", "critic", "actor", "sample", "enc_passes"), 0)

    def count(name, fn, batched=False):
        def wrapper(*a, **kw):
            # batch-1 encoder passes are acting, not updates
            if not batched or len(a[1]) > 1:
                calls[name] += 1
            return fn(*a, **kw)
        return wrapper

    for name, attr in (("disc", "update_discriminator"), ("critic", "update_critic"),
                       ("actor", "update_actor")):
        monkeypatch.setattr(imitate, attr, count(name, getattr(imitate, attr)))
    monkeypatch.setattr(ReplayBuffer, "sample_stacked",
                        count("sample", ReplayBuffer.sample_stacked))
    for attr in ("forward", "values"):
        monkeypatch.setattr(nets.VectorEncoder, attr, count(
            "enc_passes", getattr(nets.VectorEncoder, attr), batched=True))
    train("laifo", env, ds, cfg)
    assert calls == {"disc": 40, "critic": 40, "actor": 40, "sample": 40,
                     "enc_passes": 160}


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


def test_rl_plus_videos_uses_env_reward(monkeypatch):
    # the critic's reward is the scaled imitation reward on the batch's own
    # rows plus the environment reward; imit_reward_mean is the imitation
    # term alone
    ds = _linear_expert_dataset(np.random.default_rng(30), n_episodes=4)
    cfg = small_cfg(frames=30, warmup=20, eval_interval=30, imit_reward_scale=0.5)
    batches, scores, rewards = [], [], []

    def recorder(fn, out, pick):
        def wrapper(*a, **kw):
            result = fn(*a, **kw)
            out.append(pick(a, result))
            return result
        return wrapper

    monkeypatch.setattr(ReplayBuffer, "sample_stacked", recorder(
        ReplayBuffer.sample_stacked, batches, lambda a, res: res))
    monkeypatch.setattr(nets, "discriminate", recorder(
        nets.discriminate, scores, lambda a, res: res))
    monkeypatch.setattr(imitate, "update_critic", recorder(
        imitate.update_critic, rewards, lambda a, res: a[3]))
    report = train("rl_plus_videos", make_env("pointmass-v"), ds, cfg)
    assert len(batches) == len(scores) == len(rewards) == 10
    assert any(b.rewards.any() for b in batches)
    for batch, score, reward in zip(batches, scores, rewards):
        assert np.array_equal(reward, 0.5 * score + batch.rewards)
    assert report.rows[-1].imit_reward_mean == pytest.approx(
        np.mean([0.5 * score.mean() for score in scores]), rel=1e-12)


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
