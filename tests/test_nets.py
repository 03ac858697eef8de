import struct

import numpy as np
import pytest

from laifo import nets
from laifo.autodiff import (EAGER, GRAPH, ShapeMismatchError, apply, backward,
                            finite_diff_check, pack, tensor)
from laifo.nets import (CKPT_MAGIC, Mlp, PixelEncoder, TwinCritics, VectorEncoder, act,
                        discriminate, load_checkpoint, make_actor, save_checkpoint)


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
    actor = make_actor(make_rng(5), z_dim=4, act_dim=2, hidden=8)
    z = make_rng(6).standard_normal(4)
    a = act(actor, z, sigma=0.0, clip_c=None, rng=make_rng(7))
    assert np.array_equal(a, actor.values(z[None])[0])
    assert np.all(np.abs(a) <= 1.0)


def test_actor_clipped_noise_stays_inside_clip():
    actor = make_actor(make_rng(8), z_dim=4, act_dim=2, hidden=8)
    z = np.zeros(4)
    mean = actor.values(z[None])[0]
    rng = make_rng(9)
    for _ in range(200):
        a = act(actor, z, sigma=0.2, clip_c=0.3, rng=rng)
        assert np.all(np.abs(a - mean) <= 0.3 + 1e-12)


def test_actor_noise_std_matches_sigma():
    actor = make_actor(make_rng(10), z_dim=4, act_dim=1, hidden=8)  # zero-init head
    z = np.zeros((100_000, 4))
    rng = make_rng(11)
    a = act(actor, z, sigma=0.2, clip_c=None, rng=rng)
    std = a.std()
    assert abs(std - 0.2) / 0.2 < 0.02


def test_actor_output_bounded_for_wild_inputs():
    actor = make_actor(make_rng(12), z_dim=3, act_dim=2, hidden=8)
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
    for t in crit.t1.params():
        t.values[...] = 0.0
    crit.soft_update(0.01)
    for t in crit.t1.params():
        assert np.allclose(t.values, 0.01, atol=0, rtol=0)
    crit.soft_update(1.0)
    for t, p in zip(crit.t1.params(), crit.q1.params()):
        assert np.array_equal(t.values, p.values)
    before = [t.values.copy() for t in crit.t2.params()]
    crit.soft_update(0.0)
    for t, b in zip(crit.t2.params(), before):
        assert np.array_equal(t.values, b)
    with pytest.raises(ValueError, match="tau"):
        crit.soft_update(1.5)


def test_soft_update_refuses_heads_that_do_not_lead_their_flat_array():
    crit = TwinCritics(make_rng(18), z_dim=3, act_dim=1, hidden=8)
    pack([tensor(np.ones(5))] + crit.params())  # an optimizer listing the heads last
    with pytest.raises(ValueError, match="heads must lead"):
        crit.soft_update(0.5)


def test_discriminator_zero_score_gives_half():
    disc = Mlp(make_rng(19), [6, 8, 8, 1], name="disc")
    for p in disc.params():
        p.values[...] = 0.0
    p = discriminate(disc, np.zeros((1, 6)))
    assert np.allclose(p, 0.5)


def test_discriminator_open_interval_over_random_inputs():
    disc = Mlp(make_rng(20), [8, 8, 8, 1], name="disc")
    rng = make_rng(21)
    left = rng.standard_normal((10_000, 4)) * 50
    right = rng.standard_normal((10_000, 4)) * 50
    p = discriminate(disc, np.concatenate([left, right], axis=1))
    assert np.all(p > 0.0) and np.all(p < 1.0)


def test_discriminator_pairing_width_checked():
    # a (z, a) discriminator fed (z, z') rows: the first layer refuses them
    disc = Mlp(make_rng(22), [6, 8, 8, 1], name="disc")
    with pytest.raises(ValueError):
        disc.values(np.zeros((1, 8)))
    with pytest.raises(ShapeMismatchError, match="affine"):
        disc.forward(np.zeros((1, 8)))


def test_network_gradients_match_finite_differences():
    rng = make_rng(23)
    enc = VectorEncoder(rng, obs_dim=2, d=2, z_dim=3, hidden=5)
    actor = make_actor(rng, z_dim=3, act_dim=2, hidden=5)
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
        return -apply("mean", [apply("minimum", [q1, q2])])

    assert finite_diff_check(actor_loss, actor.params(), eps=1e-5) < 1e-4


def _forward_case(name, dtype):
    """(parameters, graph pass, eager pass as a 2-D array) of one network,
    with every parameter non-zero."""
    rng = make_rng(24)
    z = rng.standard_normal((5, 4)).astype(dtype)
    a = rng.uniform(-1, 1, (5, 2)).astype(dtype)
    if name == "VectorEncoder":
        net = VectorEncoder(rng, obs_dim=2, d=3, z_dim=3, hidden=8, dtype=dtype)
        win = rng.standard_normal((5, 3, 2)).astype(dtype)
        return net.params(), lambda: net.forward(win), lambda: net.values(win)
    if name == "PixelEncoder":
        net = PixelEncoder(rng, image_size=12, d=2, z_dim=3, channels=(3, 4), dtype=dtype)
        win = rng.uniform(0, 1, (2, 2, 12, 12)).astype(dtype)
        return net.params(), lambda: net.forward(win), lambda: net.values(win)
    if name == "Actor":
        net = make_actor(rng, z_dim=4, act_dim=2, hidden=8, dtype=dtype)
        net.weights[-1].values[...] = rng.standard_normal((8, 2))
        net.biases[-1].values[...] = rng.standard_normal(2)
        return net.params(), lambda: net.forward(z), lambda: net.values(z)
    if name.startswith("TwinCritics"):
        net = TwinCritics(rng, z_dim=4, act_dim=2, hidden=8, dtype=dtype)
        for p in net.params():
            p.values[...] = rng.standard_normal(p.shape)
        net.soft_update(0.5)  # targets differ from the live heads
        target = name.endswith("target")
        params = (net.t1.params() + net.t2.params()) if target else net.params()
        return (params,
                lambda: apply("concat", list(net.run(GRAPH, z, a, target)), axis=1),
                lambda: np.stack(net.values(z, a, use_target=target), axis=1))
    net = Mlp(rng, [6, 8, 8, 1], name="disc", dtype=dtype)
    pairs = np.concatenate([z, a], axis=1)
    return net.params(), lambda: net.forward(pairs), lambda: net.values(pairs)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("name", ["VectorEncoder", "PixelEncoder", "Actor", "TwinCritics",
                                  "TwinCritics-target", "Discriminator"])
def test_forward_matches_values_and_differentiates(name, dtype):
    params, forward, values = _forward_case(name, dtype)
    node, out = forward(), values()
    assert out.dtype == node.dtype == dtype
    assert np.array_equal(node.values, out)
    if dtype is np.float64:
        def loss(_):
            return apply("mean", [apply("square", [forward()])])

        assert finite_diff_check(loss, params, eps=1e-5) < 1e-4


def test_pixel_encoder_dtype_cast_changes_no_number():
    rng = make_rng(26)
    enc = PixelEncoder(rng, image_size=12, d=3, z_dim=4, channels=(4, 5))
    win32 = rng.uniform(0, 1, (6, 3, 12, 12)).astype(np.float32)
    win64 = win32.astype(np.float64)  # float32 -> float64 is exact
    assert enc._check(win32).dtype == np.float64
    # the uncast path: float32 columns against float64 weights
    raw32 = np.ascontiguousarray(win32.transpose(0, 2, 3, 1))
    outs = [enc.values(win32), enc.values(win64), enc.run(EAGER, raw32)]
    nodes = [enc.forward(win32), enc.forward(win64), enc.run(GRAPH, raw32)]
    grads = [backward(apply("sum", [apply("square", [n])]), enc.params()) for n in nodes]
    for out, node in zip(outs[1:], nodes[1:]):
        assert out.dtype == node.dtype == np.float64
        assert out.tobytes() == outs[0].tobytes()
        assert node.values.tobytes() == nodes[0].values.tobytes()
    assert all(g.tobytes() == g0.tobytes() for g, g0 in zip(grads[1], grads[0]))
    # numpy's mixed-dtype matmul hands BLAS a C-ordered float64 copy of
    # cols^T, the cast-once path a transposed view of float64 cols; for some
    # shapes BLAS sums the two in a different order
    for g, g0 in zip(grads[2], grads[0]):
        assert np.allclose(g, g0, rtol=1e-12, atol=1e-15)


def test_checkpoint_roundtrip(tmp_path):
    rng = make_rng(25)
    actor = make_actor(rng, z_dim=3, act_dim=2, hidden=8)
    crit = TwinCritics(rng, z_dim=3, act_dim=2, hidden=8)
    path = tmp_path / "bundle.ckpt"
    save_checkpoint(path, nets.named_params(actor, crit))
    loaded = load_checkpoint(path)
    for name, arr in nets.named_params(actor, crit):
        assert np.array_equal(loaded[name], arr)

    actor2 = make_actor(make_rng(99), z_dim=3, act_dim=2, hidden=8)
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


def test_checkpoint_manifest_missing_keys_raise_value_error(tmp_path):
    bad = tmp_path / "bad.ckpt"
    for manifest, key in ((b"{}", "params"), (b'{"params": [{"shape": [1]}]}', "name"),
                          (b'{"params": [{"name": "a"}]}', "shape")):
        bad.write_bytes(CKPT_MAGIC + struct.pack("<I", len(manifest)) + manifest)
        with pytest.raises(ValueError, match=f"checkpoint manifest.*'{key}'"):
            load_checkpoint(bad)


@pytest.mark.parametrize("manifest, key, kind", [
    (b'{"params": 5}', "params", "list"),
    (b'{"params": {"a": [1]}}', "params", "list"),
    (b'{"params": [{"name": "a", "shape": 3}]}', "shape", "a list of ints"),
    (b'{"params": [{"name": "a", "shape": [1.5]}]}', "shape", "a list of ints"),
    (b'{"params": [{"name": ["a"], "shape": [1]}]}', "name", "str")])
def test_checkpoint_manifest_value_of_wrong_type_refused(tmp_path, manifest, key, kind):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(CKPT_MAGIC + struct.pack("<I", len(manifest)) + manifest + bytes(8))
    with pytest.raises(ValueError, match=f"checkpoint manifest.* entry '{key}' must be {kind}"):
        load_checkpoint(bad)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOT-A-CKPT-1" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)
