import numpy as np
import pytest

from laifo import nets
from laifo.autodiff import apply, backward, finite_diff_check, tensor
from laifo.nets import (Actor, Discriminator, PixelEncoder, TwinCritics,
                        VectorEncoder, act, discriminate, load_checkpoint,
                        save_checkpoint)


def make_rng(seed=0):
    return np.random.default_rng(seed)


def test_encoder_zero_window_zero_head_gives_zero_latent():
    enc = VectorEncoder(make_rng(), obs_dim=2, d=3, z_dim=4, hidden=8)
    # zero input through a zero-initialized final layer: latent is the
    # (zero) bias carried through the normalized trunk
    for p in enc.params():
        p.values[...] = 0.0
    z = enc.values(np.zeros((3, 2)))
    assert np.allclose(z, 0.0)
    # a nonzero head bias passes through standardization then the squash
    bias = np.array([0.1, -0.2, 0.3, 0.0])
    enc.mlp.biases[-1].values[...] = bias
    c = bias - bias.mean()
    expected = np.tanh(c / np.sqrt((c ** 2).mean()))
    assert np.allclose(enc.values(np.zeros((3, 2))), expected[None], atol=1e-6)


def test_encoder_deterministic_and_validates_frames():
    enc = VectorEncoder(make_rng(1), obs_dim=2, d=3, z_dim=4, hidden=8)
    win = make_rng(2).standard_normal((3, 2))
    assert np.array_equal(enc.values(win), enc.values(win))
    with pytest.raises(ValueError, match="frames"):
        enc.values(np.zeros((2, 2)))


def test_encoder_local_lipschitz_estimate():
    enc = VectorEncoder(make_rng(3), obs_dim=2, d=3, z_dim=4, hidden=8)
    rng = make_rng(4)
    win = rng.standard_normal((3, 2))
    base = enc.values(win)
    # measure a local Lipschitz constant by sampling, then check a fresh
    # perturbation stays within it (small safety factor for nonlinearity)
    lip = 0.0
    for _ in range(64):
        delta = rng.standard_normal((3, 2)) * 1e-4
        lip = max(lip, np.linalg.norm(enc.values(win + delta) - base)
                  / np.linalg.norm(delta))
    probe = rng.standard_normal((3, 2))
    probe *= 1e-6 / np.linalg.norm(probe)
    assert np.linalg.norm(enc.values(win + probe) - base) <= 2.0 * lip * 1e-6


def test_actor_sigma_zero_is_deterministic_tanh_output():
    actor = Actor(make_rng(5), z_dim=4, act_dim=2, hidden=8)
    z = make_rng(6).standard_normal(4)
    a = act(actor, z, sigma=0.0, clip_c=None, rng=make_rng(7))
    assert np.array_equal(a, actor.values(z[None])[0])
    assert np.all(np.abs(a) <= 1.0)


def test_actor_clipped_noise_stays_inside_clip():
    actor = Actor(make_rng(8), z_dim=4, act_dim=2, hidden=8)
    z = np.zeros(4)
    mean = actor.values(z[None])[0]
    rng = make_rng(9)
    for _ in range(200):
        a = act(actor, z, sigma=0.2, clip_c=0.3, rng=rng)
        assert np.all(np.abs(a - mean) <= 0.3 + 1e-12)


def test_actor_noise_std_matches_sigma():
    actor = Actor(make_rng(10), z_dim=4, act_dim=1, hidden=8)  # zero-init head
    z = np.zeros((100_000, 4))
    rng = make_rng(11)
    a = act(actor, z, sigma=0.2, clip_c=None, rng=rng)
    std = a.std()
    assert abs(std - 0.2) / 0.2 < 0.02


def test_actor_output_bounded_for_wild_inputs():
    actor = Actor(make_rng(12), z_dim=3, act_dim=2, hidden=8)
    for p in actor.params():
        p.values[...] = make_rng(13).standard_normal(p.shape) * 10
    z = make_rng(14).standard_normal((50, 3)) * 100
    out = actor.values(z)
    assert np.all(np.abs(out) <= 1.0)


def test_critics_zero_init_outputs_zero_and_min_property():
    crit = TwinCritics(make_rng(15), z_dim=4, act_dim=2, hidden=8)
    z = make_rng(16).standard_normal((5, 4))
    a = make_rng(17).uniform(-1, 1, (5, 2))
    q1, q2 = crit.values(z, a)
    assert np.allclose(q1, 0.0) and np.allclose(q2, 0.0)
    qt1, qt2 = crit.values(z, a, use_target=True)
    assert np.array_equal(qt1, q1) and np.array_equal(qt2, q2)
    assert np.all(np.minimum(q1, q2) <= q1) and np.all(np.minimum(q1, q2) <= q2)


def test_soft_update_exact_affine():
    crit = TwinCritics(make_rng(18), z_dim=3, act_dim=1, hidden=8)
    for p in crit.q1.params():
        p.values[...] = 1.0
    for t in crit.t1:
        t[...] = 0.0
    crit.soft_update(0.01)
    for t in crit.t1:
        assert np.allclose(t, 0.01, atol=0, rtol=0)
    crit.soft_update(1.0)
    for t, p in zip(crit.t1, crit.q1.params()):
        assert np.array_equal(t, p.values)
    before = [t.copy() for t in crit.t2]
    crit.soft_update(0.0)
    for t, b in zip(crit.t2, before):
        assert np.array_equal(t, b)
    with pytest.raises(ValueError, match="tau"):
        crit.soft_update(1.5)


def test_discriminator_zero_score_gives_half():
    disc = Discriminator(make_rng(19), z_dim=3, right_dim=3, hidden=8)
    for p in disc.params():
        p.values[...] = 0.0
    p = discriminate(disc, np.zeros((1, 3)), np.zeros((1, 3)))
    assert np.allclose(p, 0.5)


def test_discriminator_open_interval_over_random_inputs():
    disc = Discriminator(make_rng(20), z_dim=4, right_dim=4, hidden=8)
    rng = make_rng(21)
    left = rng.standard_normal((10_000, 4)) * 50
    right = rng.standard_normal((10_000, 4)) * 50
    p = discriminate(disc, left, right)
    assert np.all(p > 0.0) and np.all(p < 1.0)


def test_discriminator_pairing_width_checked():
    disc = Discriminator(make_rng(22), z_dim=4, right_dim=2, pairing="action", hidden=8)
    with pytest.raises(ValueError, match="action"):
        disc.score_values(np.zeros((1, 4)), np.zeros((1, 4)))


def test_network_gradients_match_finite_differences():
    rng = make_rng(23)
    enc = VectorEncoder(rng, obs_dim=2, d=2, z_dim=3, hidden=5)
    actor = Actor(rng, z_dim=3, act_dim=2, hidden=5)
    crit = TwinCritics(rng, z_dim=3, act_dim=2, hidden=5)
    # give zero-initialized heads some structure so gradients are nontrivial
    for p in actor.params() + crit.params():
        if not p.values.any():
            p.values[...] = rng.standard_normal(p.shape) * 0.1
    win = rng.standard_normal((4, 2, 2))
    a = rng.uniform(-1, 1, (4, 2))

    def critic_loss(_):
        z = enc.forward(win)
        q1, q2 = crit.forward(z, tensor(a))
        y = tensor(np.ones((4, 1)))
        return apply("mean", [apply("square", [q1 - y])]) + \
            apply("mean", [apply("square", [q2 - y])])

    params = enc.params() + crit.params()
    assert finite_diff_check(critic_loss, params, eps=1e-5) < 1e-4

    def actor_loss(_):
        z = enc.values(win)
        pi = actor.forward(tensor(z))
        q1, q2 = crit.forward(tensor(z), pi)
        from laifo.autodiff import minimum
        return -apply("mean", [minimum(q1, q2)])

    assert finite_diff_check(actor_loss, actor.params(), eps=1e-5) < 1e-4


def test_pixel_encoder_forward_matches_values_and_differentiates():
    rng = make_rng(24)
    enc = PixelEncoder(rng, image_size=12, d=2, z_dim=3, channels=(3, 4))
    win = rng.uniform(0, 1, (2, 2, 12, 12))
    node = enc.forward(win)
    assert np.allclose(node.values, enc.values(win))

    def loss(_):
        return apply("mean", [apply("square", [enc.forward(win)])])

    assert finite_diff_check(loss, enc.params(), eps=1e-5) < 1e-4


def test_checkpoint_roundtrip(tmp_path):
    rng = make_rng(25)
    actor = Actor(rng, z_dim=3, act_dim=2, hidden=8)
    crit = TwinCritics(rng, z_dim=3, act_dim=2, hidden=8)
    path = tmp_path / "bundle.ckpt"
    save_checkpoint(path, nets.named_params(actor, crit))
    loaded = load_checkpoint(path)
    for name, arr in nets.named_params(actor, crit):
        assert np.array_equal(loaded[name], arr)

    actor2 = Actor(make_rng(99), z_dim=3, act_dim=2, hidden=8)
    nets.load_into([actor2], loaded)
    z = rng.standard_normal((3, 3))
    assert np.array_equal(actor2.values(z), actor.values(z))


def test_checkpoint_cut_or_padded_raises_value_error(tmp_path):
    path = tmp_path / "bundle.ckpt"
    save_checkpoint(path, [("a", np.ones((2, 3))), ("b", np.zeros(4))])
    raw = path.read_bytes()
    bad = tmp_path / "bad.ckpt"
    # every cut: inside the magic, the manifest length, the manifest, and
    # each array, and at each boundary between them
    for cut in range(len(raw)):
        bad.write_bytes(raw[:cut])
        with pytest.raises(ValueError):
            load_checkpoint(bad)
    bad.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(bad)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOT-A-CKPT-1" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)
