"""Random-shift augmentation of batches of observation windows (pad +
random crop).

Each sample of a (B, d, H, W) batch moves by its own offset, and all d
frames inside one window move by that same offset so the stack stays
temporally coherent. The two windows of a transition get independent
draws. Vector batches (B, d, n) pass through unchanged.
"""

from __future__ import annotations

import numpy as np


def augment_pair(windows_t, windows_t1, pad, rng):
    """Independently augmented batches (windows_t, windows_t1)."""
    return (random_shift_batch(windows_t, pad, rng),
            random_shift_batch(windows_t1, pad, rng))


def random_shift_batch(windows, pad, rng):
    """Shift every window of a batch (B, d, H, W) by its own offset drawn
    uniformly from {-pad..pad}^2, with replicate-edge padding; identity
    for vector batches (B, d, n)."""
    if pad < 0:
        raise ValueError("pad must be >= 0")
    windows = np.asarray(windows)
    if windows.ndim < 4 or pad == 0:
        return windows
    b, d, h, w = windows.shape
    padded = np.pad(windows, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="edge")
    offsets = rng.integers(0, 2 * pad + 1, size=(b, 2))
    # crops[i, :, oy, ox] is sample i's window at offset (oy, ox); one
    # gather copies each sample's crop, giving (B, d, H, W)
    crops = np.lib.stride_tricks.sliding_window_view(padded, (h, w), axis=(2, 3))
    return crops[np.arange(b), :, offsets[:, 0], offsets[:, 1]]
