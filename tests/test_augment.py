import numpy as np
import pytest

from laifo.augment import augment_pair, random_shift_batch


def _batch(rng, b=4, d=3, size=8):
    return rng.uniform(0, 1, (b, d, size, size))


def test_pad_zero_is_identity():
    rng = np.random.default_rng(0)
    w = _batch(rng)
    assert np.array_equal(random_shift_batch(w, 0, rng), w)


def test_constant_image_invariant_under_shift():
    rng = np.random.default_rng(1)
    w = np.full((20, 3, 8, 8), 0.7)
    assert np.array_equal(random_shift_batch(w, 4, rng), w)


def test_shape_range_and_temporal_consistency():
    rng = np.random.default_rng(2)
    # a distinct dot per frame at the same location: after the sample's one
    # shared shift the dots must still coincide across its frames
    w = np.zeros((16, 3, 16, 16))
    w[:, :, 8, 8] = [0.3, 0.6, 0.9]
    out = random_shift_batch(w, 4, rng)
    assert out.shape == w.shape
    assert out.min() >= 0.0 and out.max() <= 1.0
    for sample in out:
        pos = [np.unravel_index(np.argmax(sample[k]), sample[k].shape) for k in range(3)]
        assert pos[0] == pos[1] == pos[2]
        assert np.allclose([sample[k][pos[k]] for k in range(3)], [0.3, 0.6, 0.9])


def test_offsets_uniform_over_grid():
    rng = np.random.default_rng(3)
    pad = 4
    w = np.zeros((1_000, 1, 32, 32))
    w[:, 0, 16, 16] = 1.0
    counts = {}
    n = 10_000
    for _ in range(n // len(w)):
        out = random_shift_batch(w, pad, rng)
        for sample in out:
            dot = np.unravel_index(np.argmax(sample[0]), sample[0].shape)
            counts[dot] = counts.get(dot, 0) + 1
    cells = (2 * pad + 1) ** 2
    assert len(counts) == cells
    expected = n / cells
    # per-cell sd is ~9% of the mean at n=1e4, so check each cell at a 4-sigma
    # band and the ensemble with a chi-square bound
    band = 4 * np.sqrt(expected)
    for c in counts.values():
        assert abs(c - expected) <= band
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 2 * cells


def test_replicate_edge_padding_values_stay_in_range():
    rng = np.random.default_rng(4)
    w = np.zeros((50, 2, 8, 8))
    w[:, :, :, 0] = 1.0  # bright left edge gets replicated, never wrapped
    out = random_shift_batch(w, 3, rng)
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert set(np.unique(out)) <= {0.0, 1.0}


def test_vector_mode_identity_with_notice(caplog):
    rng = np.random.default_rng(5)
    import laifo.augment as aug
    aug._warned_vector = False
    w = rng.standard_normal((8, 3, 4))
    with caplog.at_level("INFO", logger="laifo.augment"):
        out = random_shift_batch(w, 4, rng)
    assert np.array_equal(out, w)
    assert any("identity" in r.message for r in caplog.records)


def test_augment_pair_independent_draws():
    rng = np.random.default_rng(6)
    w = np.zeros((50, 2, 16, 16))
    w[:, :, 8, 8] = 1.0
    a, b = augment_pair(w, w, 4, rng)
    assert a.shape == b.shape == w.shape
    diff = sum(not np.array_equal(a[i], b[i]) for i in range(len(w)))
    assert diff > 0  # shared frames may differ after augmentation
    a, b = augment_pair(w, w, 0, rng)
    assert np.array_equal(a, w) and np.array_equal(b, w)


def test_batch_shift_per_sample():
    rng = np.random.default_rng(7)
    batch = np.zeros((8, 2, 16, 16))
    batch[:, :, 8, 8] = 1.0
    out = random_shift_batch(batch, 4, rng)
    assert out.shape == batch.shape
    dots = {np.unravel_index(np.argmax(out[i, 0]), (16, 16)) for i in range(8)}
    assert len(dots) > 1  # independent offsets across the batch
    vec = rng.standard_normal((8, 3, 4))
    assert np.array_equal(random_shift_batch(vec, 4, rng), vec)


def test_negative_pad_rejected():
    with pytest.raises(ValueError, match="pad"):
        random_shift_batch(np.zeros((2, 1, 4, 4)), -1, np.random.default_rng(0))


def test_deterministic_given_seed():
    w = np.random.default_rng(8).uniform(0, 1, (6, 3, 12, 12))
    a = random_shift_batch(w, 4, np.random.default_rng(99))
    b = random_shift_batch(w, 4, np.random.default_rng(99))
    assert np.array_equal(a, b)
