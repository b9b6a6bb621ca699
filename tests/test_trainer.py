import csv
import importlib.util
import pathlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from softmax_bounds import nonparam, trainer
from softmax_bounds.bounds import ConvergenceError, _log_sigmoid_impl, _sigmoid_impl
from softmax_bounds.config import ConfigError, NumericalError, OptimizerSettings, TrainConfig
from softmax_bounds.datasets import SparseDataset, load_sparse
from softmax_bounds.linear_model import (
    KIND_BOUCHARD,
    KIND_EXACT,
    KIND_OVE,
    LinearModel,
    Objective,
    bouchard_loglik,
    exact_loglik,
    full_gradient,
    optimal_alphas,
    ove_loglik,
)
from softmax_bounds.nonparam import sample_rival_classes
from softmax_bounds.rng import substream
from softmax_bounds.trainer import (
    _RENORM_THRESHOLD,
    TrainTrace,
    _lbfgs,
    fit_full_batch,
    stochastic_gradient,
    train,
)

from helpers import (
    dense_dataset,
    gen_toy_5class,
    record_kernel_calls,
    record_sampler_calls,
    to_dense,
)

PERFBENCH_GEN = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


@pytest.fixture(scope="module")
def toy200():
    return gen_toy_5class(200, seed=7)


@pytest.fixture(scope="module")
def mnistlike(tmp_path_factory):
    """The training split of the benchmark's ``fullbatch-mnistlike``
    workload: 150 rows, K=10, D=784, from its own generator."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    labels, rows = gen.mnistlike_rows(np.random.default_rng([4, 2]), 150)
    path = tmp_path_factory.mktemp("mnistlike") / "train.txt"
    gen.write_libsvm(str(path), labels, rows, 10, 784)
    return load_sparse(str(path))


@pytest.fixture(scope="module")
def toy_ove_fit(toy200):
    model = LinearModel.zeros(5, 2)
    fitted, _ = fit_full_batch(model, toy200, Objective(kind=KIND_OVE, lam=1.0))
    return fitted


class TestStochasticGradient:
    def test_degenerate_draw_is_exact_batch_gradient(self):
        rng = substream(3, "data")
        data = dense_dataset(rng, 6, 5, 4)
        model = LinearModel(
            weights=rng.normal(size=(5, 4)) * 0.3, biases=rng.normal(size=5) * 0.3
        )
        delta, _ = stochastic_gradient(model, data, np.arange(6), 4, substream(3, "draw"))
        dw, db = to_dense(delta, 5, 4)
        gw, gb = full_gradient(model, data, Objective(kind=KIND_OVE, lam=0.0))
        np.testing.assert_allclose(dw, gw, atol=1e-12)
        np.testing.assert_allclose(db, gb, atol=1e-12)

    def test_zero_model_single_rival_magnitude(self):
        # at f = 0 every sigmoid is 1/2, so the label row gains
        # (K-1)/2 * x and the one sampled rival loses the same
        k = 7
        x = np.array([0.5, -2.0, 1.25])
        label = 2
        data = SparseDataset.from_dense([x], [label], k)
        model = LinearModel.zeros(k, 3)
        seed_rng = substream(9, "draw")
        expected_rival = sample_rival_classes(
            substream(9, "draw"), np.array([label]), num_classes=k, num_sampled=1
        )[0][0]
        delta, bound = stochastic_gradient(model, data, np.array([0]), 1, seed_rng)
        dw, db = to_dense(delta, k, 3)
        expected = np.zeros((k, 3))
        expected[label] = (k - 1) * 0.5 * x
        expected[expected_rival] = -(k - 1) * 0.5 * x
        np.testing.assert_allclose(dw, expected, atol=1e-14)
        assert db[label] == pytest.approx((k - 1) * 0.5)
        assert db[expected_rival] == pytest.approx(-(k - 1) * 0.5)
        assert bound == pytest.approx((k - 1) * np.log(0.5))

    def test_touches_only_sampled_rows(self):
        rng = substream(4, "data")
        data = dense_dataset(rng, 3, 12, 5)
        model = LinearModel.zeros(12, 5)
        draw = substream(4, "draw")
        labels = data.labels()
        expected_rivals = sample_rival_classes(
            substream(4, "draw"), labels, num_classes=12, num_sampled=2
        )
        delta, _ = stochastic_gradient(model, data, np.arange(3), 2, draw)
        allowed = set(labels.tolist()) | set(expected_rivals.ravel().tolist())
        assert set(np.unique(delta.classes).tolist()) <= allowed

    def test_unbiased_mean_matches_full_gradient(self):
        rng = substream(5, "data")
        k, d, n = 6, 4, 8
        data = dense_dataset(rng, n, k, d)
        model = LinearModel(
            weights=rng.normal(size=(k, d)) * 0.4, biases=rng.normal(size=k) * 0.2
        )
        gw, gb = full_gradient(model, data, Objective(kind=KIND_OVE, lam=0.0))
        draw = substream(5, "draw")
        reps = 10_000
        acc_w = np.zeros((k, d))
        acc_b = np.zeros(k)
        sq_w = np.zeros((k, d))
        sq_b = np.zeros(k)
        rows = np.arange(n)
        for _ in range(reps):
            delta, _ = stochastic_gradient(model, data, rows, 2, draw)
            dw, db = to_dense(delta, k, d)
            acc_w += dw
            acc_b += db
            sq_w += dw * dw
            sq_b += db * db
        mean_w, mean_b = acc_w / reps, acc_b / reps
        se_w = np.sqrt(np.maximum(sq_w / reps - mean_w**2, 0.0) / reps)
        se_b = np.sqrt(np.maximum(sq_b / reps - mean_b**2, 0.0) / reps)
        assert np.all(np.abs(mean_w - gw) <= 3.0 * se_w + 1e-12)
        assert np.all(np.abs(mean_b - gb) <= 3.0 * se_b + 1e-12)

    def test_rejects_bad_input(self):
        model = LinearModel.zeros(4, 2)
        data = SparseDataset.from_dense([[1.0, 0.0], [0.0, 2.0]], [0, 3], 4)
        rng = substream(0, "draw")
        bad_rows = (
            np.array([], dtype=np.int64),  # empty
            np.array([[0, 1]]),  # 2-D
            np.array([0.0, 1.0]),  # float
            np.array([0, -1]),  # out of range, either side
            np.array([2, 0]),
        )
        for rows in bad_rows:
            with pytest.raises(ConfigError, match="rows must"):
                stochastic_gradient(model, data, rows, 1, rng)
        good = np.array([1, 0])
        with pytest.raises(ConfigError):
            stochastic_gradient(model, data, good, 4, rng)
        for other in (LinearModel.zeros(5, 2), LinearModel.zeros(4, 3)):
            with pytest.raises(ConfigError, match="but data is 4 x 2"):
                stochastic_gradient(other, data, good, 1, rng)
        delta, _ = stochastic_gradient(model, data, good, 1, rng)
        assert delta.classes[:, 0].tolist() == [3, 0]

    @pytest.mark.parametrize("index", [-1, 2, 3])
    def test_rejects_feature_out_of_range(self, index):
        # index -1 would alias the last weight of W and 2 the next class's
        # row. A 2-feature dataset refuses the row, naming it, and a dataset
        # wide enough to hold the index does not match a 2-feature model
        model = LinearModel.zeros(4, 2)
        arrays = [0, 1, 2], [0, index], [1.0, 1.0], [0, 1]
        with pytest.raises(ValueError, match="row 1: feature index out of range for 2"):
            SparseDataset(*arrays, 2, 4)
        if index >= 0:
            wide = SparseDataset(*arrays, index + 1, 4)
            with pytest.raises(ConfigError, match=f"model is 4 x 2 but data is 4 x {index + 1}"):
                stochastic_gradient(model, wide, np.array([0, 1]), 1, substream(0, "draw"))


class TestTrain:
    def test_bit_identical_given_seed(self, toy200):
        model = LinearModel.zeros(5, 2)
        cfg = TrainConfig(
            batch_size=10, num_sampled=1, lr0=0.05, lr_decay=0.95, epochs=4,
            lam=1.0, seed=12, log_every=7,
        )
        m1, t1 = train(model, toy200, cfg)
        m2, t2 = train(model, toy200, cfg)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.biases, m2.biases)
        assert [r[:4] for r in t1.rows] == [r[:4] for r in t2.rows]

    def test_seed_changes_trajectory(self, toy200):
        model = LinearModel.zeros(5, 2)
        base = dict(batch_size=10, num_sampled=1, lr0=0.05, lr_decay=0.95,
                    epochs=2, lam=1.0, log_every=10)
        m1, _ = train(model, toy200, TrainConfig(seed=0, **base))
        m2, _ = train(model, toy200, TrainConfig(seed=1, **base))
        assert not np.array_equal(m1.weights, m2.weights)

    def test_input_model_not_mutated(self, toy200):
        model = LinearModel.zeros(5, 2)
        cfg = TrainConfig(batch_size=20, num_sampled=2, lr0=0.05, epochs=1, seed=0)
        train(model, toy200, cfg)
        assert np.all(model.weights == 0.0)
        assert np.all(model.biases == 0.0)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_degenerate_config_is_gradient_ascent(self, lam):
        rng = substream(6, "data")
        k, d, n = 5, 3, 12
        data = dense_dataset(rng, n, k, d)
        model = LinearModel(
            weights=rng.normal(size=(k, d)) * 0.2, biases=rng.normal(size=k) * 0.1
        )
        lr = 0.3
        epochs = 5
        cfg = TrainConfig(
            batch_size=n, num_sampled=k - 1, lr0=lr, lr_decay=1.0,
            epochs=epochs, lam=lam, seed=2,
        )
        got, _ = train(model, data, cfg)

        w, b = model.weights.copy(), model.biases.copy()
        for _ in range(epochs):
            gw, gb = full_gradient(
                LinearModel(w, b), data, Objective(kind=KIND_OVE, lam=lam)
            )
            w = w + lr * gw
            b = b + lr * gb
        np.testing.assert_allclose(got.weights, w, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(got.biases, b, rtol=1e-10, atol=1e-12)

    def test_lazy_decay_matches_eager_reference(self):
        rng = substream(7, "data")
        k, d, n = 6, 5, 12
        data = dense_dataset(rng, n, k, d)
        model = LinearModel(
            weights=rng.normal(size=(k, d)) * 0.3, biases=rng.normal(size=k) * 0.1
        )
        # the second config takes one step of decay 0.01 per epoch, so the
        # decay scalar falls below the threshold and is folded into the
        # weights at an epoch start
        folding = TrainConfig(batch_size=n, num_sampled=2, lr0=0.99, lr_decay=1.0,
                              epochs=6, lam=1.0, seed=21)
        assert (1.0 - folding.lr0 * folding.lam) ** (folding.epochs - 1) < _RENORM_THRESHOLD
        for cfg in (
            TrainConfig(batch_size=3, num_sampled=2, lr0=0.2, lr_decay=0.9, epochs=4,
                        lam=0.7, seed=21),
            folding,
        ):
            self.check_against_eager_reference(model, data, cfg)

    @staticmethod
    def check_against_eager_reference(model, data, cfg):
        k, d, n = model.num_classes, model.num_features, len(data)
        got, _ = train(model, data, cfg)

        # dense re-implementation consuming the identical random streams
        shuffle_rng = substream(cfg.seed, "shuffle")
        class_rng = substream(cfg.seed, "classes")
        w, b = model.weights.copy(), model.biases.copy()
        labels_all = data.labels()
        dense_x = data.to_csr()[0].toarray()
        scale_factor = (k - 1) / cfg.num_sampled
        for epoch in range(cfg.epochs):
            lr = cfg.lr0 * cfg.lr_decay**epoch
            order = shuffle_rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                chosen = order[start : start + cfg.batch_size]
                batch_labels = labels_all[chosen]
                rivals = sample_rival_classes(
                    class_rng, batch_labels, num_classes=k, num_sampled=cfg.num_sampled
                )
                grad_w = np.zeros((k, d))
                grad_b = np.zeros(k)
                for row, i in enumerate(chosen):
                    x, label = dense_x[i], labels_all[i]
                    joint = np.concatenate(([label], rivals[row]))
                    scores = b[joint] + w[joint] @ x
                    sig = 1.0 / (1.0 + np.exp(scores[0] - scores[1:]))
                    grad_w[label] += scale_factor * sig.sum() * x
                    grad_b[label] += scale_factor * sig.sum()
                    for m, s in zip(rivals[row], sig):
                        grad_w[m] -= scale_factor * s * x
                        grad_b[m] -= scale_factor * s
                w = (1.0 - lr * cfg.lam * len(chosen) / n) * w + lr * grad_w
                b = b + lr * grad_b
        np.testing.assert_allclose(got.weights, w, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(got.biases, b, rtol=1e-10, atol=1e-12)

    def test_updates_touch_only_sampled_rows(self, monkeypatch):
        rng = substream(8, "data")
        k = 9
        data = dense_dataset(rng, 4, k, 3)
        start = LinearModel(
            weights=rng.normal(size=(k, 3)), biases=rng.normal(size=k)
        )
        cfg = TrainConfig(batch_size=1, num_sampled=2, lr0=0.1, epochs=1,
                          lam=0.0, seed=5)
        calls = record_kernel_calls(monkeypatch)
        final, _ = train(start, data, cfg)
        assert sum(m for m, _ in calls) == 4
        touched_ever = set(np.concatenate(calls.classes).ravel().tolist())
        labels = set(data.labels().tolist())
        assert labels <= touched_ever
        for r in range(k):
            if r not in touched_ever:
                assert np.array_equal(final.weights[r], start.weights[r])
                assert final.biases[r] == start.biases[r]

    def test_trace_schema(self, toy200):
        model = LinearModel.zeros(5, 2)
        cfg = TrainConfig(batch_size=10, num_sampled=1, lr0=0.05, lr_decay=0.9,
                          epochs=3, lam=1.0, seed=4, log_every=7)
        _, trace = train(model, toy200, cfg)
        trace.validate()
        steps_per_epoch = 20
        total = steps_per_epoch * 3
        assert trace.rows[0][0] == 0
        assert trace.rows[-1][0] == total - 1
        for it, est, lr, epoch, ms in trace.rows:
            assert np.isfinite(est)
            assert epoch == min(it // steps_per_epoch, 2)
            assert lr == pytest.approx(0.05 * 0.9**epoch)
            assert ms >= 0.0

    def test_trace_csv_round_trip(self, toy200, tmp_path):
        model = LinearModel.zeros(5, 2)
        cfg = TrainConfig(batch_size=20, num_sampled=2, lr0=0.05, epochs=2,
                          seed=9, log_every=3)
        _, trace = train(model, toy200, cfg)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["iteration", "raw_bound_estimate", "lr", "epoch", "elapsed_ms"]
        assert len(rows) == len(trace.rows)
        for parsed, (it, est, lr, epoch, _) in zip(rows, trace.rows):
            assert int(parsed[0]) == it
            assert float(parsed[1]) == est
            assert float(parsed[2]) == lr
            assert int(parsed[3]) == epoch
            float(parsed[4])

    def test_trace_rejects_unsorted_iterations(self):
        trace = TrainTrace(rows=[(0, 0.0, 0.1, 0, 0.0), (0, 0.0, 0.1, 0, 1.0)])
        with pytest.raises(ValueError):
            trace.validate()

    def test_aborts_on_overflowing_scores(self, toy200):
        model = LinearModel(
            weights=np.full((5, 2), 1e308), biases=np.zeros(5)
        )
        cfg = TrainConfig(batch_size=10, num_sampled=1, lr0=0.05, epochs=1, seed=0)
        with pytest.raises(NumericalError, match="non-finite"):
            train(model, toy200, cfg)

    def test_overflowed_update_is_numerical_error(self):
        # one step of 1e308 * 10 overflows the touched weight rows; K * D
        # spans several blocks of the final settle-and-check pass
        k, d = 100, 1000
        x = np.zeros((2, d))
        x[0, 0] = x[1, 1] = 10.0
        data = SparseDataset.from_dense(x, np.array([0, 1]), k)
        cfg = TrainConfig(batch_size=2, num_sampled=3, lr0=1e308, epochs=1, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="training produced non-finite"):
                train(LinearModel.zeros(k, d), data, cfg)

    def test_validation_errors(self, toy200):
        model = LinearModel.zeros(5, 2)
        with pytest.raises(ConfigError):
            train(LinearModel.zeros(4, 2), toy200, TrainConfig())
        with pytest.raises(ConfigError):
            train(model, toy200, TrainConfig(num_sampled=5))
        empty = SparseDataset.from_dense(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 5)
        with pytest.raises(ConfigError):
            train(model, empty, TrainConfig())

    def test_toy_run_approaches_full_batch_optimum(self, toy200, toy_ove_fit):
        model = LinearModel.zeros(5, 2)
        cfg = TrainConfig(batch_size=10, num_sampled=1, lr0=0.05, lr_decay=0.97,
                          epochs=100, lam=1.0, seed=19, log_every=1)
        fitted, trace = train(model, toy200, cfg)
        opt = ove_loglik(toy_ove_fit, toy200, lam=1.0)
        val = ove_loglik(fitted, toy200, lam=1.0)
        assert abs(val - opt) <= 0.02 * abs(opt)
        ests = np.array([r[1] for r in trace.rows])
        tail = ests[-len(ests) // 4 :]
        per_instance_opt = ove_loglik(toy_ove_fit, toy200, lam=0.0) / 200
        se = tail.std() / np.sqrt(len(tail))
        assert abs(tail.mean() - per_instance_opt) <= 3.5 * se


class TestStepKernel:
    """One step of ``train`` against per-instance references."""

    @staticmethod
    def one_step(data, model, seed, lr, num_sampled=2):
        cfg = TrainConfig(batch_size=len(data), num_sampled=num_sampled, lr0=lr,
                          epochs=1, lam=0.0, seed=seed)
        got, _ = train(model, data, cfg)
        order = substream(seed, "shuffle").permutation(len(data))
        return got, order

    def test_shared_label_and_feature_both_land(self):
        # instances 0 and 2 share label 2 and feature 1, so both add to the
        # weight (2, 1) in the same step; instance 1 has no features at all
        x = np.array([[1.5, 2.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                      [0.0, -0.5, 3.0, 0.0], [0.0, 1.0, 0.0, 2.5]])
        labels = np.array([2, 1, 2, 0])
        k, d = 5, 4
        data = SparseDataset.from_dense(x, labels, k)
        rng = substream(30, "model")
        model = LinearModel(weights=rng.normal(size=(k, d)) * 0.3,
                            biases=rng.normal(size=k) * 0.1)
        lr, seed, s = 0.5, 4, 2
        got, order = self.one_step(data, model, seed, lr, s)

        rivals = sample_rival_classes(
            substream(seed, "classes"), labels[order], num_classes=k, num_sampled=s
        )
        w, b = model.weights.copy(), model.biases.copy()
        for i, row in zip(order, rivals):
            joint = np.concatenate(([labels[i]], row))
            scores = model.biases[joint] + model.weights[joint] @ x[i]
            sig = 1.0 / (1.0 + np.exp(scores[0] - scores[1:]))
            coeffs = (k - 1) / s * np.concatenate(([sig.sum()], -sig))
            for c, coeff in zip(joint, coeffs):
                w[c] += lr * coeff * x[i]
                b[c] += lr * coeff
        np.testing.assert_allclose(got.weights, w, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got.biases, b, rtol=1e-12, atol=1e-15)

    def test_unit_step_adds_stochastic_gradient(self):
        rng = substream(31, "data")
        k, d, n = 7, 5, 6
        data = dense_dataset(rng, n, k, d)
        model = LinearModel(weights=rng.normal(size=(k, d)) * 0.3,
                            biases=rng.normal(size=k) * 0.1)
        seed = 8
        got, order = self.one_step(data, model, seed, lr=1.0)
        delta, _ = stochastic_gradient(model, data, order, 2, substream(seed, "classes"))
        dw, db = to_dense(delta, k, d)
        np.testing.assert_allclose(got.weights, model.weights + dw, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got.biases, model.biases + db, rtol=1e-12, atol=1e-15)

    def test_non_finite_score_names_instance_and_classes(self):
        # K - 1 rivals are the whole complement, so the classes are known;
        # only the instance with feature 0 reaches the overflowing weight
        x = np.array([[0.0, 1.0], [10.0, 0.0]])
        data = SparseDataset.from_dense(x, np.array([0, 1]), 3)
        weights = np.zeros((3, 2))
        weights[2, 0] = 1e308
        model = LinearModel(weights=weights, biases=np.zeros(3))
        seed = 3
        position = int(np.flatnonzero(substream(seed, "shuffle").permutation(2) == 1)[0])
        expected = f"non-finite score encountered (instance {position}, classes [1, 0, 2])"
        with pytest.raises(NumericalError) as exc:
            self.one_step(data, model, seed, lr=0.1, num_sampled=2)
        assert str(exc.value) == expected


def reference_train(model, data, config, probe=None):
    """``train`` one minibatch at a time: the step loop before steps with
    disjoint rows were fused, kept as the oracle the fused loop must match
    bit for bit. It draws the rivals as ``train`` does, one sampler call per
    chunk of ``nonparam._CHUNK`` instances rounded down to whole batches.
    It keeps the weights as ``g * values`` with one decay scalar ``g``, as
    ``train`` does, so that the comparison tests the fusion alone, not how
    the decay is represented. ``probe``, if given, receives each step's
    (label, rivals...) rows after its update. Returns (weights, biases,
    trace rows without elapsed_ms)."""
    n = len(data)
    mat, labels_all = data.to_csr()
    indptr, feat_idx, feat_val = mat.indptr, mat.indices, mat.data
    shuffle_rng = substream(config.seed, "shuffle")
    class_rng = substream(config.seed, "classes")
    num_classes, num_features = model.num_classes, model.num_features
    scale_factor = (num_classes - 1) / config.num_sampled
    lam = config.lam
    values = model.weights.copy()
    flat_values = values.reshape(-1)
    biases = model.biases.copy()
    g = 1.0
    rows_logged = []
    step = 0
    batch_size = min(config.batch_size, n)
    chunk = max(1, nonparam._CHUNK // batch_size) * batch_size
    last_logged = -1
    for epoch in range(config.epochs):
        lr = config.lr0 * config.lr_decay**epoch
        order = shuffle_rng.permutation(n)
        for start in range(0, n, batch_size):
            if start % chunk == 0:
                if g < _RENORM_THRESHOLD:
                    values *= g
                    g = 1.0
                chunk_rivals = sample_rival_classes(
                    class_rng, labels_all[order[start : start + chunk]],
                    num_classes=num_classes, num_sampled=config.num_sampled,
                )
            chosen = order[start : start + batch_size]
            batch_labels = labels_all[chosen]
            rivals = chunk_rivals[start % chunk : start % chunk + batch_size]
            classes = np.column_stack((batch_labels, rivals))

            b, width = classes.shape
            starts = indptr[chosen]
            counts = indptr[chosen + 1] - starts
            offsets = counts.cumsum() - counts
            owner = np.repeat(np.arange(b), counts)
            pos = (starts - offsets)[owner] + np.arange(owner.size)
            feat_values = feat_val[pos]
            slots = classes[owner] * num_features + feat_idx[pos][:, None]
            raw = np.zeros((b, width))
            nonempty = counts > 0
            with np.errstate(over="ignore", invalid="ignore"):
                terms = flat_values[slots] * feat_values[:, None]
                raw[nonempty] = np.add.reduceat(terms, offsets[nonempty], axis=0)
                scores = biases[classes] + g * raw
            if not np.isfinite(scores).all():
                i = int(np.argmin(np.isfinite(scores).all(axis=1)))
                raise NumericalError(
                    f"non-finite score encountered (instance {i}, classes {classes[i].tolist()})"
                )
            margins = scores[:, :1] - scores[:, 1:]
            bound = scale_factor * float(_log_sigmoid_impl(margins).sum()) / b
            sig = _sigmoid_impl(-margins)
            coeffs = np.empty((b, width))
            coeffs[:, 0] = scale_factor * sig.sum(axis=1)
            coeffs[:, 1:] = -scale_factor * sig

            g *= 1.0 - lr * lam * (len(chosen) / n)
            steps = lr * coeffs
            row_steps = (steps / g)[owner]
            np.add.at(flat_values, slots, row_steps * feat_values[:, None])
            np.add.at(biases, classes, steps)

            if probe is not None:
                probe(classes)
            if step % config.log_every == 0:
                rows_logged.append((step, bound, lr, epoch))
                last_logged = step
            step += 1
    if last_logged != step - 1:
        rows_logged.append((step - 1, bound, lr, epoch))
    values *= g
    return values, biases, rows_logged


def sparse_dataset(rng, n, num_classes, num_features, nnz, empty_share=0.0):
    """Rows of ``nnz`` random features, a share of them with none at all."""
    dense = np.zeros((n, num_features))
    for i in range(n):
        if rng.random() >= empty_share:
            dense[i, rng.choice(num_features, nnz, replace=False)] = rng.normal(size=nnz)
    return SparseDataset.from_dense(dense, rng.integers(0, num_classes, size=n), num_classes)


class TestFusedSteps:
    """``train`` runs disjoint steps as one group, bit-identical to one at a time."""

    @staticmethod
    def both(data, k, d, cfg, start_scale=0.1):
        rng = substream(40, "model")
        model = LinearModel(weights=rng.normal(size=(k, d)) * start_scale,
                            biases=rng.normal(size=k) * start_scale)
        with pytest.MonkeyPatch.context() as patch:
            calls = record_kernel_calls(patch)
            got, trace = train(model, data, cfg)
        expected = []
        w, b, rows = reference_train(model, data, cfg, probe=expected.append)
        assert np.array_equal(got.weights, w)
        assert np.array_equal(got.biases, b)
        assert [r[:4] for r in trace.rows] == rows
        assert np.array_equal(np.concatenate(calls.classes), np.concatenate(expected))

    @pytest.mark.parametrize("batch_size", [1, 3, 100])
    @pytest.mark.parametrize("lam", [0.0, 0.3])
    @pytest.mark.parametrize("k", [5, 3000])
    def test_matches_one_step_at_a_time(self, batch_size, lam, k):
        # 250 rows leave a partial last batch at b = 3 and b = 100; K = 5
        # with S = 2 makes every group one batch, K = 3000 runs groups of
        # ten and more steps at b = 1
        d = 40
        data = sparse_dataset(substream(41, "data"), 250, k, d, nnz=4, empty_share=0.1)
        cfg = TrainConfig(batch_size=batch_size, num_sampled=2, lr0=0.2, lr_decay=0.9,
                          epochs=3, lam=lam, seed=batch_size, log_every=7)
        self.both(data, k, d, cfg)

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_matches_across_small_chunks(self, batch_size, monkeypatch):
        # a chunk of 10 instances is 10 steps at b = 1 and 3 steps at b = 3,
        # so groups, the decay sums and the trace cross many chunk ends
        monkeypatch.setattr(nonparam, "_CHUNK", 10)
        k, d = 300, 30
        data = sparse_dataset(substream(42, "data"), 101, k, d, nnz=3, empty_share=0.1)
        cfg = TrainConfig(batch_size=batch_size, num_sampled=3, lr0=0.3, lr_decay=0.8,
                          epochs=2, lam=0.5, seed=6, log_every=4)
        self.both(data, k, d, cfg)

    def test_matches_through_renormalization(self):
        # each step decays by 1 - 0.99 / 2, so within 15 epochs of 2 steps
        # the decay scalar falls below the threshold and is folded into the
        # weights at an epoch start at least once
        k, d, n, b = 200, 20, 40, 20
        cfg = TrainConfig(batch_size=b, num_sampled=5, lr0=0.99, lr_decay=1.0,
                          epochs=15, lam=1.0, seed=3, log_every=5)
        assert (1.0 - cfg.lr0 * cfg.lam * b / n) ** (2 * cfg.epochs) < _RENORM_THRESHOLD
        data = sparse_dataset(substream(43, "data"), n, k, d, nnz=3)
        self.both(data, k, d, cfg, start_scale=1.0)

    def test_fuses_steps_at_large_k(self, monkeypatch):
        # at K = 3000 and S = 5 about ten consecutive steps write disjoint
        # rows; a plan that never fused would make one kernel call per step
        calls = record_kernel_calls(monkeypatch)
        k, d, n = 3000, 30, 400
        data = sparse_dataset(substream(44, "data"), n, k, d, nnz=3)
        cfg = TrainConfig(batch_size=1, num_sampled=5, lr0=0.1, epochs=2, lam=0.1, seed=2)
        train(LinearModel.zeros(k, d), data, cfg)
        assert sum(m for m, _ in calls) == 2 * n
        assert len(calls) < 2 * n / 4

    @pytest.mark.parametrize("batch_size, chunk", [(1, 1024), (3, 1023)])
    def test_one_sampler_call_per_chunk(self, batch_size, chunk, monkeypatch):
        # 2500 instances are two whole chunks and a partial one per epoch
        calls = record_sampler_calls(monkeypatch, nonparam)
        k, d, n = 300, 10, 2500
        data = sparse_dataset(substream(46, "data"), n, k, d, nnz=2)
        cfg = TrainConfig(batch_size=batch_size, num_sampled=5, lr0=0.1, epochs=2, seed=4)
        train(LinearModel.zeros(k, d), data, cfg)
        assert calls == 2 * [chunk, chunk, n - 2 * chunk]

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_overflow_inside_a_group_names_the_failing_step(self, batch_size, monkeypatch):
        # only instance 0 has feature 0, and every class weights it by 1e308,
        # so its score overflows whatever its classes; the seed puts it
        # inside a group, after at least one batch of that group
        k, d, n = 400, 3, 60
        x = np.zeros((n, d))
        x[:, 1] = 1.0
        x[0] = [10.0, 0.0, 0.0]
        data = SparseDataset.from_dense(x, substream(45, "labels").integers(0, k, size=n), k)
        weights = np.zeros((k, d))
        weights[:, 0] = 1e308
        model = LinearModel(weights=weights, biases=np.zeros(k))
        cfg = TrainConfig(batch_size=batch_size, num_sampled=2, lr0=0.1, epochs=1, seed=5)

        calls = record_kernel_calls(monkeypatch)
        with pytest.raises(NumericalError) as got:
            train(model, data, cfg)
        with pytest.raises(NumericalError) as expected:
            reference_train(model, data, cfg)
        assert str(got.value) == str(expected.value)
        position = int(np.flatnonzero(substream(cfg.seed, "shuffle").permutation(n) == 0)[0])
        group_start = sum(m for m, _ in calls[:-1])
        assert group_start + batch_size <= position < group_start + calls[-1][0]


@st.composite
def train_cases(draw):
    """A sparse dataset, its shape and a ``train`` config, with a chunk size
    for ``nonparam._CHUNK`` (None keeps the default): shapes small enough
    for ``reference_train``, with shared features, empty rows, partial last
    batches and all three sampler regimes."""
    n, k, d = draw(st.integers(1, 40)), draw(st.integers(2, 300)), draw(st.integers(1, 6))
    data = sparse_dataset(substream(draw(st.integers(0, 99)), "data"), n, k, d,
                          nnz=draw(st.integers(1, d)),
                          empty_share=draw(st.sampled_from([0.0, 0.3, 1.0])))
    cfg = TrainConfig(batch_size=draw(st.integers(1, 12)), num_sampled=draw(st.integers(1, k - 1)),
                      lr0=0.3, lr_decay=0.8, epochs=draw(st.integers(1, 2)),
                      lam=draw(st.sampled_from([0.0, 0.5])), seed=draw(st.integers(0, 99)),
                      log_every=draw(st.integers(1, 5)))
    return data, k, d, cfg, draw(st.none() | st.integers(1, 24))


class TestTrainProperties:
    """``train`` matches ``reference_train`` bit for bit on drawn cases."""

    @given(case=train_cases())
    def test_matches_one_step_at_a_time(self, case):
        data, k, d, cfg, chunk = case
        with mock.patch.object(nonparam, "_CHUNK", chunk or nonparam._CHUNK):
            TestFusedSteps.both(data, k, d, cfg)


class TestFitFullBatch:
    def test_gradient_small_at_solution(self, toy200):
        model = LinearModel.zeros(5, 2)
        for kind in (KIND_EXACT, KIND_OVE, KIND_BOUCHARD):
            fitted, trace = fit_full_batch(model, toy200, Objective(kind=kind, lam=1.0))
            if kind == KIND_BOUCHARD:
                obj = Objective(
                    kind=kind, lam=1.0,
                    per_instance_alpha=optimal_alphas(fitted, toy200),
                )
            else:
                obj = Objective(kind=kind, lam=1.0)
            gw, gb = full_gradient(fitted, toy200, obj)
            assert max(np.abs(gw).max(), np.abs(gb).max()) <= 1e-6
            values = [v for _, v in trace]
            assert values[-1] >= values[0]

    def test_fitted_objective_ordering(self, toy200):
        model = LinearModel.zeros(5, 2)
        vals = {}
        for kind in (KIND_EXACT, KIND_OVE, KIND_BOUCHARD):
            _, trace = fit_full_batch(model, toy200, Objective(kind=kind, lam=1.0))
            vals[kind] = trace[-1][1]
        assert vals[KIND_EXACT] > vals[KIND_OVE] > vals[KIND_BOUCHARD]

    def test_two_class_ove_matches_exact(self):
        rng = substream(10, "data")
        data = dense_dataset(rng, 30, 2, 3)
        model = LinearModel.zeros(2, 3)
        exact_fit, _ = fit_full_batch(model, data, Objective(kind=KIND_EXACT, lam=0.5))
        ove_fit, _ = fit_full_batch(model, data, Objective(kind=KIND_OVE, lam=0.5))
        assert exact_loglik(exact_fit, data, lam=0.5) == pytest.approx(
            ove_loglik(ove_fit, data, lam=0.5), abs=1e-7
        )

    def test_rejects_unknown_kind(self, toy200):
        for lam in (-1.0, float("nan")):
            with pytest.raises(ConfigError, match="lam"):
                fit_full_batch(
                    LinearModel.zeros(5, 2), toy200, Objective(kind=KIND_OVE, lam=lam)
                )
        with pytest.raises((ConfigError, ValueError)):
            fit_full_batch(
                LinearModel.zeros(5, 2), toy200, Objective(kind="huber", lam=0.0)
            )

    def test_dimension_mismatch(self, toy200):
        with pytest.raises(ConfigError):
            fit_full_batch(
                LinearModel.zeros(6, 2), toy200, Objective(kind=KIND_OVE)
            )

    @pytest.mark.parametrize("where", ["weights", "biases"])
    def test_nan_gradient_raises(self, where):
        # a NaN compares false with any tolerance, so it must fail the
        # convergence test instead of slipping through it
        def value_and_grad(m):
            gw, gb = np.zeros_like(m.weights), np.zeros_like(m.biases)
            (gw if where == "weights" else gb).flat[0] = np.nan
            return 0.0, (gw, gb)

        with pytest.raises(ConvergenceError, match="gradient inf-norm nan"):
            _lbfgs(value_and_grad, LinearModel.zeros(3, 2), OptimizerSettings())

    @pytest.mark.parametrize("kind", [KIND_EXACT, KIND_OVE, KIND_BOUCHARD])
    def test_evaluations_per_iteration(self, mnistlike, kind, monkeypatch):
        # the line search rarely backtracks from the unit quasi-Newton step
        evaluations = []
        maximize = trainer._maximize

        def counting(value_and_grad, x0, settings):
            def counted(x):
                evaluations.append(None)
                return value_and_grad(x)

            return maximize(counted, x0, settings)

        monkeypatch.setattr(trainer, "_maximize", counting)
        _, trace = fit_full_batch(LinearModel.zeros(10, 784), mnistlike,
                                  Objective(kind=kind, lam=1.0))
        assert len(evaluations) <= 1.5 * (len(trace) - 1)

    @pytest.mark.parametrize("kind", [KIND_EXACT, KIND_OVE, KIND_BOUCHARD])
    def test_stalled_fit_raises(self, kind):
        data = gen_toy_5class(50, seed=3)
        with pytest.raises(ConvergenceError, match="gradient inf-norm") as exc:
            fit_full_batch(
                LinearModel.zeros(5, 2), data, Objective(kind=kind, lam=1.0),
                OptimizerSettings(max_iter=2),
            )
        assert "after 2 iterations" in str(exc.value)

    @pytest.mark.parametrize("kind", [KIND_EXACT, KIND_OVE, KIND_BOUCHARD])
    def test_overflowing_trials_stall_the_line_search(self, kind):
        # the rows "1 1:1e308" and "2 2:-1e308": every trial step overflows
        # a score, which each objective rejects alike, without a warning
        data = SparseDataset.from_dense([[1e308, 0.0], [0.0, -1e308]], [0, 1], 2)
        with pytest.raises(ConvergenceError, match=r"\(line search step below 1e-18\)"):
            fit_full_batch(LinearModel.zeros(2, 2), data, Objective(kind=kind, lam=1.0))
