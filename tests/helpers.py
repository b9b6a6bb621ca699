"""Dataset builders and probes shared by the test modules."""

from softmax_bounds.datasets import SparseDataset, SparseVector


def dense_dataset(rng, n, num_classes, num_features, density=0.6):
    """Gaussian features with about ``density`` of them nonzero, uniform labels."""
    raw = rng.normal(size=(n, num_features))
    raw *= rng.random(size=raw.shape) < density
    labels = rng.integers(0, num_classes, size=n)
    return SparseDataset.from_dense(raw, labels, num_classes)


def rows_of(data):
    """The dataset's instances as (SparseVector, label) pairs, the form the
    per-instance APIs take."""
    mat, labels = data.to_csr()
    bounds = zip(mat.indptr[:-1], mat.indptr[1:], labels)
    return [(SparseVector(mat.indices[a:b], mat.data[a:b]), int(y)) for a, b, y in bounds]


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
