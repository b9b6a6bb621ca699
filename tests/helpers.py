"""Dataset makers, a sparse writer and probes shared by the test modules."""

import json
import tracemalloc

import numpy as np

from softmax_bounds import trainer
from softmax_bounds.bounds import _as_scores, _log_sigmoid_impl
from softmax_bounds.datasets import SparseDataset
from softmax_bounds.rng import substream


def dense_dataset(rng, n, num_classes, num_features, density=0.6):
    """Gaussian features with about ``density`` of them nonzero, uniform labels."""
    raw = rng.normal(size=(n, num_features))
    raw *= rng.random(size=raw.shape) < density
    labels = rng.integers(0, num_classes, size=n)
    return SparseDataset.from_dense(raw, labels, num_classes)


def record_sampler_calls(monkeypatch, module):
    """Make ``module``'s rival sampler append each call's row count to the
    returned list."""
    calls = []
    sampler = module.sample_rival_classes

    def recording(rng, labels, *args, **kwargs):
        calls.append(len(labels))
        return sampler(rng, labels, *args, **kwargs)

    monkeypatch.setattr(module, "sample_rival_classes", recording)
    return calls


def record_kernel_calls(monkeypatch):
    """Make ``train``'s step kernel append, per call, its instance count and
    its number of gathered weight slots to the returned list."""
    calls = []
    kernel = trainer._sgd_step

    def recording(ptr, owner, slots, values, classes, *args):
        calls.append((classes.shape[0], slots.size))
        return kernel(ptr, owner, slots, values, classes, *args)

    monkeypatch.setattr(trainer, "_sgd_step", recording)
    return calls


def ove_log_bound_all(f) -> np.ndarray:
    """One-vs-each bound for every class at once.

    Returns a length-K array whose k-th entry equals ``ove_log_bound(f, k)``.
    Materializes the K x K difference matrix: the oracle of the blocked
    walk that ``nonparam`` evaluates the count objective with.
    """
    arr = _as_scores(f)
    ls = _log_sigmoid_impl(arr[:, None] - arr[None, :])
    # diagonal contributes log sigmoid(0) = -log 2 to each row sum
    return ls.sum(axis=1) - np.diag(ls)


def traced_peak(fn, *args, **kwargs):
    """Peak bytes traced while ``fn`` runs (numpy reports its buffers to
    tracemalloc), counting what it returns."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write_sparse(dataset: SparseDataset, path: str, sidecar: bool = False) -> None:
    """Write a dataset in the libsvm-like format (1-based on disk).

    Values are formatted with repr, so write -> load round-trips exactly.
    With ``sidecar=True`` a ``<path>.meta.json`` pinning K and D is written
    alongside (otherwise a reload infers both as observed maxima).
    """
    mat, labels = dataset.to_csr()
    pairs = list(map("{}:{!r}".format, (mat.indices + 1).tolist(), mat.data.tolist()))
    bounds = zip(mat.indptr[:-1].tolist(), mat.indptr[1:].tolist(), (labels + 1).tolist())
    with open(path, "w") as fh:
        for start, end, label in bounds:
            fh.write(" ".join([str(label), *pairs[start:end]]) + "\n")
    if sidecar:
        with open(path + ".meta.json", "w") as fh:
            json.dump({"K": dataset.num_classes, "D": dataset.num_features}, fh)
            fh.write("\n")


def gen_toy_5class(n: int, seed: int) -> SparseDataset:
    """Two-dimensional 5-class Gaussian mixture.

    Class means sit on a circle of radius 3 at angles 2*pi*k/5, unit
    covariance, classes as balanced as n allows (n % 5 spilled over the
    first classes). Geometry is an artifact choice, fixed for
    reproducibility. Deterministic given seed. Every row stores both
    coordinates.
    """
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    rng = substream(seed, "toy-data")
    per = [n // 5 + (1 if k < n % 5 else 0) for k in range(5)]
    points = []
    for k, count in enumerate(per):
        angle = 2.0 * np.pi * k / 5.0
        mean = np.array([3.0 * np.cos(angle), 3.0 * np.sin(angle)])
        points.append(rng.normal(size=(count, 2)) + mean)
    indptr, indices = np.arange(0, 2 * n + 1, 2), np.tile([0, 1], n)
    values, labels = np.concatenate(points).ravel(), np.repeat(np.arange(5), per)
    return SparseDataset(indptr, indices, values, labels, 2, 5)


def to_dense(delta, num_classes, num_features):
    """The dense (K, D) weight and (K,) bias gradients of a ``SparseDelta``."""
    grad_w = np.zeros(num_classes * num_features)
    np.add.at(grad_w, delta.slots, delta.coeffs[delta.owner] * delta.values[:, None])
    grad_b = np.zeros(num_classes)
    np.add.at(grad_b, delta.classes, delta.coeffs)
    return grad_w.reshape(num_classes, num_features), grad_b
