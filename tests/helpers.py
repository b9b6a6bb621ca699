"""Dataset builders and probes shared by the test modules."""

import tracemalloc

from softmax_bounds.datasets import SparseDataset


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


def traced_peak(fn, *args, **kwargs):
    """Peak bytes traced while ``fn`` runs (numpy reports its buffers to
    tracemalloc), counting what it returns."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
