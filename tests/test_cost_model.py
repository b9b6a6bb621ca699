"""The paper's cost model as deterministic gates: count the work, not the clock.

One doubly stochastic step over b instances costs O(b * (S + 1) * nnz),
whatever K and D are, and a full-batch evaluation costs a fixed number of
passes over the scores. Wall clock on a shared host drifts; the counts
below do not, so these gates pin them exactly. ``train``'s traced memory
peak is gated the same way, in units of one K x D weight array.
"""

import numpy as np
import pytest

from softmax_bounds import linear_model, trainer
from softmax_bounds.config import OptimizerSettings, TrainConfig
from softmax_bounds.datasets import SparseDataset
from softmax_bounds.linear_model import KIND_BOUCHARD, KIND_EXACT, KIND_OVE, LinearModel, Objective
from softmax_bounds.rng import substream

from helpers import dense_dataset, record_kernel_calls, traced_peak


def record_gathered_nnz(monkeypatch):
    """Make ``trainer._gather`` append the summed nnz of each call's chosen
    rows to the returned list."""
    nnz = []
    gather = trainer._gather

    def recording(indptr, indices, data, chosen, *args):
        nnz.append(int((indptr[chosen + 1] - indptr[chosen]).sum()))
        return gather(indptr, indices, data, chosen, *args)

    monkeypatch.setattr(trainer, "_gather", recording)
    return nnz


def ragged_dataset(rng, n, num_classes, num_features, max_nnz):
    """Rows of 0 to ``max_nnz`` distinct random features, uniform labels."""
    counts = rng.integers(0, max_nnz + 1, size=n)
    indices = np.concatenate(
        [np.sort(rng.choice(num_features, c, replace=False)) for c in counts])
    indptr = np.concatenate(([0], np.cumsum(counts)))
    labels = rng.integers(0, num_classes, size=n)
    return SparseDataset(indptr, indices, rng.normal(size=indices.size), labels,
                         num_features, num_classes)


@pytest.mark.parametrize("batch_size", [1, 100])
@pytest.mark.parametrize("num_classes", [1_000, 100_000])
def test_train_gathers_s_plus_one_slots_per_nonzero(num_classes, batch_size, monkeypatch):
    # every epoch chooses each row once, and the step kernel reads one
    # weight per (nonzero, class) pair: the label and S rivals, no more
    num_sampled, epochs, d = 5, 2, 16
    data = ragged_dataset(substream(60, "cost"), 600, num_classes, d, max_nnz=10)
    kernel = record_kernel_calls(monkeypatch)
    gathered = record_gathered_nnz(monkeypatch)
    cfg = TrainConfig(batch_size=batch_size, num_sampled=num_sampled, lr0=0.1, epochs=epochs,
                      lam=0.1, seed=8)
    trainer.train(LinearModel.zeros(num_classes, d), data, cfg)
    assert sum(gathered) == epochs * data.to_csr()[0].nnz
    assert sum(m for m, _ in kernel) == epochs * len(data)
    assert sum(slots for _, slots in kernel) == (num_sampled + 1) * sum(gathered)


@pytest.mark.parametrize("epochs", [1, 4])
def test_train_peak_is_one_weight_array(epochs):
    # train holds one K x D copy of the weights, decayed lazily, and the
    # plan of one chunk at a time, so the peak neither doubles nor grows
    # with the epochs (about 1.16 x K * D * 8 bytes here)
    k = d = 1000
    data = ragged_dataset(substream(62, "cost"), 2000, k, d, max_nnz=10)
    model = LinearModel.zeros(k, d)
    cfg = TrainConfig(batch_size=1, num_sampled=5, lr0=0.1, epochs=epochs, lam=0.1, seed=9)
    assert traced_peak(trainer.train, model, data, cfg) <= 1.5 * k * d * 8


@pytest.mark.parametrize("kind, passes", [(KIND_EXACT, 2), (KIND_OVE, 1), (KIND_BOUCHARD, 3)])
def test_full_batch_score_passes_per_evaluation(kind, passes, monkeypatch):
    # one evaluation is one full_gradient call with the value beside it:
    # soft scores twice (value and gradient), ove once (its value walks
    # blocks of classes instead), bouchard three times (alphas too)
    calls = {"scores_matrix": 0, "full_gradient": 0}

    def count(module, name):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(linear_model, "scores_matrix")
    count(trainer, "full_gradient")
    data = dense_dataset(substream(61, "cost"), 120, 8, 10)
    trainer.fit_full_batch(LinearModel.zeros(8, 10), data, Objective(kind=kind, lam=1.0),
                           OptimizerSettings(grad_tol=1e-6))
    assert calls["full_gradient"] > 10
    assert calls["scores_matrix"] == passes * calls["full_gradient"]
