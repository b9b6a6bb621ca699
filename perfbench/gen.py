"""Seeded input generators for the benchmark workloads.

Everything here is the benchmark's own code: it writes the libsvm-like text
format and the ``.meta.json`` sidecar directly, so a change to the package's
dataset classes cannot change what the workloads feed the CLI.
"""

from __future__ import annotations

import json

import numpy as np


def write_libsvm(path: str, labels, rows, num_classes: int, num_features: int) -> int:
    """Write 0-based ``labels`` and ``rows`` of (indices, values) as 1-based text.

    Values are written with ``repr`` so a reload reads back the same floats.
    Returns the number of stored entries (nnz).
    """
    nnz = 0
    with open(path, "w", encoding="utf-8") as fh:
        for label, (idx, val) in zip(labels, rows):
            pairs = " ".join(f"{i + 1}:{v!r}" for i, v in zip(idx.tolist(), val.tolist()))
            fh.write(f"{label + 1} {pairs}\n")
            nnz += len(idx)
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump({"K": num_classes, "D": num_features}, fh)
        fh.write("\n")
    return nnz


def extreme_rows(rng: np.random.Generator, n: int, num_classes: int, num_features: int,
                 indicator_classes: int | None = None):
    """Acceptance-9-shaped rows: 10 stored entries per row.

    A 2-wide class indicator (value 1.0) at features 2h, 2h+1 with
    h = label mod ``indicator_classes`` (all classes by default), plus 8
    distinct Gaussian noise features drawn above the indicator block.
    Labels are uniform over the classes and balanced: the classes in a
    random order, repeated to length n, then shuffled. With n >= K every
    class appears n // K or n // K + 1 times, so which classes a split
    covers does not depend on the seed.
    """
    h = num_classes if indicator_classes is None else indicator_classes
    lo = 2 * h
    if num_features - lo < 8:
        raise ValueError(f"need at least {lo + 8} features, got {num_features}")
    y = rng.permutation(np.resize(rng.permutation(num_classes), n))
    noise_idx = rng.integers(lo, num_features, size=(n, 8))
    while True:
        srt = np.sort(noise_idx, axis=1)
        bad = np.flatnonzero((np.diff(srt, axis=1) == 0).any(axis=1))
        if bad.size == 0:
            break
        noise_idx[bad] = rng.integers(lo, num_features, size=(bad.size, 8))
    noise_val = rng.normal(size=(n, 8))
    order = np.argsort(noise_idx, axis=1)
    noise_idx = np.take_along_axis(noise_idx, order, axis=1)
    noise_val = np.take_along_axis(noise_val, order, axis=1)
    ind = 2 * (y % h)
    idx = np.concatenate((ind[:, None], ind[:, None] + 1, noise_idx), axis=1)
    val = np.concatenate((np.ones((n, 2)), noise_val), axis=1)
    return y, list(zip(idx, val))


def _smooth(field: np.ndarray, passes: int) -> np.ndarray:
    for _ in range(passes):
        field = (
            field
            + np.roll(field, 1, -1)
            + np.roll(field, -1, -1)
            + np.roll(field, 1, -2)
            + np.roll(field, -1, -2)
        ) / 5.0
    return field


def mnistlike_rows(rng: np.random.Generator, n: int, num_classes: int = 10,
                   label_noise: float = 0.1, sample_rng: np.random.Generator | None = None):
    """MNIST-shaped rows: 28x28 = 784 features, about 17% stored.

    Each class has a smooth 20x20 prototype (half shared, half its own),
    placed in the centre of the 28x28 canvas with a border that is always
    blank. An instance is its class prototype shifted by up to 2 pixels,
    plus pixel noise, thresholded so about 17% of all pixels are on, with
    intensities in (0, 1]. A share ``label_noise`` of labels is then
    redrawn uniformly. With 1000 rows, L-BFGS takes hundreds of iterations
    on this data at lam = 1, as it does on MNIST.

    The prototypes are drawn from ``rng`` and the instances from
    ``sample_rng`` (``rng`` itself by default), so splits drawn with
    different ``sample_rng`` from equally seeded ``rng`` share their classes.
    """
    side, canvas, shift = 20, 28, 2
    base = _smooth(rng.random((side, side)), 4)
    own = _smooth(rng.random((num_classes, side, side)), 4)
    protos = 0.5 * (own - own.mean()) / own.std() + 0.5 * (base - base.mean()) / base.std()
    if sample_rng is not None:
        rng = sample_rng
    y = rng.integers(0, num_classes, size=n)
    dy = rng.integers(-shift, shift + 1, size=n)
    dx = rng.integers(-shift, shift + 1, size=n)
    imgs = np.empty((n, side, side))
    for i in range(n):
        imgs[i] = np.roll(protos[y[i]], (dy[i], dx[i]), axis=(0, 1))
    imgs += 0.8 * rng.normal(size=imgs.shape)
    pixels = imgs.reshape(n, -1)
    cut = np.quantile(pixels, 1.0 - 0.17 * canvas**2 / side**2)
    on = np.where(pixels > cut, np.minimum(1.0, (pixels - cut) * 1.5 + 0.2), 0.0)
    pad = (canvas - side) // 2
    full = np.zeros((n, canvas, canvas))
    full[:, pad : pad + side, pad : pad + side] = on.reshape(n, side, side)
    flat = full.reshape(n, -1)
    flip = rng.random(n) < label_noise
    y = np.where(flip, rng.integers(0, num_classes, size=n), y)
    rows = []
    for i in range(n):
        idx = np.flatnonzero(flat[i])
        rows.append((idx, flat[i, idx]))
    return y, rows
