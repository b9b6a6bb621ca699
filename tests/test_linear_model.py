"""Tests for linear scores, the three objectives, and their gradients."""

import os
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from softmax_bounds.bounds import (
    _log_sigmoid_impl,
    _log_sum_exp_rows,
    _sigmoid_impl,
    _softmax_rows,
    _softplus_impl,
)
from softmax_bounds.config import NumericalError, TrainConfig
from softmax_bounds.datasets import SparseDataset
from softmax_bounds.linear_model import (
    _penalty,
    _score_blocks,
    KIND_BOUCHARD,
    KIND_EXACT,
    KIND_OVE,
    CheckpointError,
    LinearModel,
    Objective,
    bouchard_loglik,
    exact_loglik,
    full_gradient,
    optimal_alphas,
    ove_loglik,
    predict_proba_all,
    scores_matrix,
)
from softmax_bounds.manifest import sha256_file
from softmax_bounds.rng import substream
from softmax_bounds.trainer import train

from helpers import traced_peak


def make_data(rng, n, d, k, density=0.5):
    dense = rng.normal(size=(n, d)) * (rng.uniform(size=(n, d)) < density)
    labels = rng.integers(0, k, size=n)
    return SparseDataset.from_dense(dense, labels, k), dense, labels


def make_model(rng, k, d, scale=1.0):
    return LinearModel(rng.normal(scale=scale, size=(k, d)), rng.normal(size=k))


def one_row(indices, values, num_features, num_classes=2):
    """A one-row dataset, the form in which a single instance is scored."""
    indices = np.array(indices, dtype=np.int64)
    return SparseDataset([0, indices.size], indices, values, [0], num_features, num_classes)


class TestScores:
    def test_zero_model(self):
        m = LinearModel.zeros(4, 6)
        x = one_row([1, 3], [2.0, -1.0], 6, 4)
        np.testing.assert_array_equal(scores_matrix(m, x), np.zeros((1, 4)))

    def test_one_hot_picks_column(self):
        rng = substream(1, "scores")
        m = make_model(rng, 5, 8)
        x = one_row([3], [1.0], 8, 5)
        np.testing.assert_allclose(scores_matrix(m, x), [m.weights[:, 3] + m.biases])

    def test_matches_dense_oracle(self):
        rng = substream(2, "scores")
        m = make_model(rng, 6, 10)
        data, dense, _ = make_data(rng, 20, 10, 6)
        f = scores_matrix(m, data)
        expected = dense @ m.weights.T + m.biases
        np.testing.assert_allclose(f, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("k", [40, 10])
    def test_matches_one_product(self, k):
        # at D = 8000 a block holds 16 class rows: K = 40 spans three
        # blocks, K = 10 fits in one; either way every score is bit-equal
        rng = substream(4, "scores")
        d = 8000
        m = make_model(rng, k, d)
        data, _, _ = make_data(rng, 30, d, k, density=0.002)
        mat, _ = data.to_csr()
        assert np.array_equal(scores_matrix(m, data), mat @ m.weights.T + m.biases)

    def test_dimension_mismatch(self):
        m = LinearModel.zeros(3, 4)
        x = one_row([7], [1.0], 8, 3)
        with pytest.raises(ValueError, match="8 features, model has 4"):
            scores_matrix(m, x)
        with pytest.raises(ValueError, match="8 features, model has 4"):
            predict_proba_all(m, x)

    @pytest.mark.parametrize("index", [-1, 4])
    @pytest.mark.parametrize(
        "api",
        [
            pytest.param(scores_matrix, id="scores"),
            pytest.param(
                lambda m, x: np.argmax(predict_proba_all(m, x), axis=1), id="predict"
            ),
            pytest.param(predict_proba_all, id="predict_proba"),
        ],
    )
    def test_feature_index_out_of_range(self, api, index):
        # index -1 would read the last feature's column, and the argmax would
        # return a class; a row holding it is refused when its one-row
        # dataset is built, so no scoring path sees it
        m = LinearModel.zeros(3, 4)
        with pytest.raises(ValueError, match="row 0: feature index out of range for 4"):
            api(m, one_row([index], [1.0], 4, 3))

    def test_empty_row(self):
        rng = substream(3, "scores")
        m = make_model(rng, 3, 4)
        x = one_row([], [], 4, 3)
        np.testing.assert_array_equal(scores_matrix(m, x), [m.biases])


class TestLogliks:
    def test_exact_zero_model_two_points(self):
        data, _, _ = make_data(substream(4, "ll"), 2, 3, 2)
        m = LinearModel.zeros(2, 3)
        assert exact_loglik(m, data, 0.0) == pytest.approx(2 * np.log(0.5), rel=1e-12)

    def test_exact_single_instance_frozen(self):
        # scores [3,1,0], true label the first class in 0-based indexing:
        # log softmax = 3 - LSE([3,1,0]) = -0.16984601955628565 (mpmath, 50 dps)
        m = LinearModel(np.array([[3.0], [1.0], [0.0]]), np.zeros(3))
        data = SparseDataset.from_dense([[1.0]], [0], 3)
        assert exact_loglik(m, data, 0.0) == pytest.approx(
            -0.16984601955628565, rel=1e-12
        )

    def test_exact_bias_shift_invariance(self):
        rng = substream(5, "ll")
        m = make_model(rng, 4, 7)
        data, _, _ = make_data(rng, 15, 7, 4)
        base = exact_loglik(m, data, 0.7)
        shifted = LinearModel(m.weights.copy(), m.biases + 3.21)
        assert exact_loglik(shifted, data, 0.7) == pytest.approx(base, rel=1e-12)

    def test_ove_zero_model_k3(self):
        data = SparseDataset.from_dense([[1.0]], [1], 3)
        m = LinearModel.zeros(3, 1)
        assert ove_loglik(m, data, 0.0) == pytest.approx(2 * np.log(0.5), rel=1e-12)

    def test_ove_equals_exact_for_k2(self):
        rng = substream(6, "ll")
        m = make_model(rng, 2, 5)
        data, _, _ = make_data(rng, 25, 5, 2)
        for lam in (0.0, 1.0):
            assert ove_loglik(m, data, lam) == pytest.approx(
                exact_loglik(m, data, lam), rel=1e-12
            )

    def test_ove_below_exact(self):
        rng = substream(7, "ll")
        for _ in range(50):
            k = int(rng.integers(3, 8))
            d = int(rng.integers(2, 10))
            m = make_model(rng, k, d, scale=2.0)
            data, _, _ = make_data(rng, 10, d, k)
            assert ove_loglik(m, data, 0.0) <= exact_loglik(m, data, 0.0) + 1e-10

    def test_ove_composes_from_bound_kernel(self):
        from softmax_bounds.bounds import ove_log_bound

        rng = substream(8, "ll")
        m = make_model(rng, 5, 6)
        data, dense, labels = make_data(rng, 12, 6, 5)
        f = dense @ m.weights.T + m.biases
        expected = sum(ove_log_bound(f_n, y) for f_n, y in zip(f, labels))
        assert ove_loglik(m, data, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_bouchard_zero_model(self):
        data = SparseDataset.from_dense([[1.0]], [0], 2)
        m = LinearModel.zeros(2, 1)
        obj = Objective(KIND_BOUCHARD, 0.0, np.zeros(1))
        assert bouchard_loglik(m, data, obj) == pytest.approx(
            -2 * np.log(2), rel=1e-12
        )

    def test_bouchard_below_exact_any_alphas(self):
        rng = substream(9, "ll")
        for _ in range(50):
            k = int(rng.integers(2, 7))
            m = make_model(rng, k, 4, scale=1.5)
            data, _, _ = make_data(rng, 8, 4, k)
            alphas = rng.normal(scale=2.0, size=8)
            obj = Objective(KIND_BOUCHARD, 0.0, alphas)
            assert bouchard_loglik(m, data, obj) <= exact_loglik(m, data, 0.0) + 1e-10

    def test_bouchard_optimal_alphas_maximize(self):
        rng = substream(10, "ll")
        m = make_model(rng, 5, 6)
        data, _, _ = make_data(rng, 10, 6, 5)
        star = optimal_alphas(m, data)
        best = bouchard_loglik(m, data, Objective(KIND_BOUCHARD, 0.0, star))
        for _ in range(30):
            other = star + rng.normal(scale=0.3, size=star.size)
            val = bouchard_loglik(m, data, Objective(KIND_BOUCHARD, 0.0, other))
            assert val <= best + 1e-10

    def test_alpha_count_mismatch(self):
        data = SparseDataset.from_dense([[1.0]], [0], 2)
        m = LinearModel.zeros(2, 1)
        with pytest.raises(ValueError, match="alpha"):
            bouchard_loglik(m, data, Objective(KIND_BOUCHARD, 0.0, np.zeros(3)))

    def test_label_out_of_range(self):
        data = SparseDataset.from_dense([[1.0]], [4], 5)
        m = LinearModel.zeros(3, 1)
        with pytest.raises(ValueError, match="label"):
            exact_loglik(m, data, 0.0)


def _flatten(model):
    return np.concatenate([model.weights.ravel(), model.biases])


def _value(theta, k, d, data, objective):
    m = LinearModel(theta[: k * d].reshape(k, d), theta[k * d :])
    if objective.kind == KIND_EXACT:
        return exact_loglik(m, data, objective.lam)
    if objective.kind == KIND_OVE:
        return ove_loglik(m, data, objective.lam)
    return bouchard_loglik(m, data, objective)


def _fd_check(rng, objective_factory, reps=10):
    for _ in range(reps):
        k = int(rng.integers(2, 8))
        d = int(rng.integers(2, 15))
        n = int(rng.integers(1, 9))
        m = LinearModel(
            rng.normal(scale=1.0, size=(k, d)), rng.normal(scale=1.0, size=k)
        )
        data, _, _ = make_data(rng, n, d, k)
        objective = objective_factory(rng, m, data)
        gw, gb = full_gradient(m, data, objective)
        grad = np.concatenate([gw.ravel(), gb])
        theta = _flatten(m)
        h = 1e-5
        idx = rng.choice(theta.size, size=min(12, theta.size), replace=False)
        for j in idx:
            e = np.zeros_like(theta)
            e[j] = h
            fd = (
                _value(theta + e, k, d, data, objective)
                - _value(theta - e, k, d, data, objective)
            ) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-5 * max(1.0, abs(grad[j])), (
                f"coord {j}: analytic {grad[j]}, fd {fd}"
            )


class TestGradients:
    def test_exact_fd(self):
        _fd_check(substream(11, "fd"), lambda r, m, d: Objective(KIND_EXACT, 0.5))

    def test_ove_fd(self):
        _fd_check(substream(12, "fd"), lambda r, m, d: Objective(KIND_OVE, 0.5))

    def test_bouchard_fd(self):
        # alphas held fixed while differentiating
        _fd_check(
            substream(13, "fd"),
            lambda r, m, d: Objective(
                KIND_BOUCHARD, 0.5, r.normal(scale=1.0, size=len(d))
            ),
        )

    def test_ove_zero_model_hand_value(self):
        # zero model, one instance: every rival weight is sigmoid(0) = 1/2,
        # so row y gets +(K-1)/2 * x and each rival row gets -x/2
        dense_x = np.array([1.0, 0.0, 2.0])
        data = SparseDataset.from_dense([dense_x], [1], 4)
        m = LinearModel.zeros(4, 3)
        gw, gb = full_gradient(m, data, Objective(KIND_OVE, 0.0))
        np.testing.assert_allclose(gw[1], 1.5 * dense_x)
        for rival in (0, 2, 3):
            np.testing.assert_allclose(gw[rival], -0.5 * dense_x)
        np.testing.assert_allclose(gb, [-0.5, 1.5, -0.5, -0.5])

    def test_saturated_instance_vanishes(self):
        # f_y far above every rival: all sigmoid weights vanish
        m = LinearModel(np.array([[50.0], [0.0], [0.0]]), np.zeros(3))
        data = SparseDataset.from_dense([[1.0]], [0], 3)
        gw, gb = full_gradient(m, data, Objective(KIND_OVE, 0.0))
        assert np.max(np.abs(gw)) < 1e-20
        assert np.max(np.abs(gb)) < 1e-20

    def test_gradient_rejects_bad_objective(self):
        data = SparseDataset.from_dense([[1.0]], [0], 2)
        m = LinearModel.zeros(2, 1)
        with pytest.raises(ValueError):
            full_gradient(m, data, Objective("wat", 0.0))
        with pytest.raises(ValueError):
            full_gradient(m, data, Objective(KIND_EXACT, -1.0))
        with pytest.raises(ValueError, match="lam"):
            full_gradient(m, data, Objective(KIND_EXACT, float("nan")))
        with pytest.raises(ValueError):
            full_gradient(m, data, Objective(KIND_EXACT, 0.0, np.zeros(1)))


class TestConcavity:
    def test_line_sections_concave(self):
        rng = substream(14, "concave")
        data, _, _ = make_data(rng, 12, 6, 4)
        for kind in (KIND_EXACT, KIND_OVE, KIND_BOUCHARD):
            for _ in range(60):
                m0 = make_model(rng, 4, 6)
                dw = rng.normal(size=(4, 6))
                db = rng.normal(size=4)
                t = float(rng.uniform(0.05, 1.0))
                if kind == KIND_BOUCHARD:
                    alphas = rng.normal(size=12)
                    obj = Objective(kind, 1.0, alphas)
                else:
                    obj = Objective(kind, 1.0)

                def val(s):
                    m = LinearModel(m0.weights + s * dw, m0.biases + s * db)
                    return _value(_flatten(m), 4, 6, data, obj)

                assert val(0.0) >= 0.5 * (val(-t) + val(t)) - 1e-9


class TestPredict:
    def test_argmax_and_tie_break(self):
        # a prediction is the argmax of a predict_proba_all row
        m = LinearModel(np.array([[3.0], [1.0], [0.0]]), np.zeros(3))
        x = one_row([0], [1.0], 1, 3)
        assert np.argmax(predict_proba_all(m, x), axis=1).tolist() == [0]
        zero = LinearModel.zeros(4, 1)
        probs = predict_proba_all(zero, x)
        assert probs.tolist() == [[0.25] * 4]  # an exact tie: the lowest index wins
        assert np.argmax(probs, axis=1).tolist() == [0]

    def test_shift_invariance(self):
        rng = substream(15, "pred")
        m = make_model(rng, 5, 3)
        shifted = LinearModel(m.weights.copy(), m.biases + 11.0)
        data, _, _ = make_data(rng, 30, 3, 5)
        np.testing.assert_array_equal(
            np.argmax(scores_matrix(m, data), axis=1),
            np.argmax(scores_matrix(shifted, data), axis=1),
        )

    def test_proba_is_exact_softmax(self):
        from softmax_bounds.bounds import softmax

        rng = substream(16, "pred")
        m = make_model(rng, 4, 5)
        x = one_row([1, 4], [0.3, -2.0], 5, 4)
        dense = np.array([0.0, 0.3, 0.0, 0.0, -2.0])
        np.testing.assert_allclose(
            predict_proba_all(m, x)[0], softmax(m.weights @ dense + m.biases), rtol=1e-13
        )


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        rng = substream(17, "ckpt")
        m = make_model(rng, 6, 9)
        path = str(tmp_path / "m.bin")
        m.save(path)
        back = LinearModel.load(path)
        np.testing.assert_array_equal(back.weights, m.weights)
        np.testing.assert_array_equal(back.biases, m.biases)

    @given(st.integers(1, 6), st.integers(0, 6), st.data())
    def test_round_trip_property(self, k, d, data):
        # any finite parameters, -0.0 and subnormals included, come back
        # bit for bit, and save returns the digest of the file it wrote
        finite = st.floats(allow_nan=False, allow_infinity=False)
        w = data.draw(arrays(np.float64, (k, d), elements=finite))
        b = data.draw(arrays(np.float64, k, elements=finite))
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "m.bin")
            digest = LinearModel(w, b).save(path)
            assert digest == sha256_file(path)
            back = LinearModel.load(path)
        assert back.weights.shape == (k, d)
        assert back.weights.tobytes() == w.tobytes()
        assert back.biases.tobytes() == b.tobytes()

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            LinearModel.load(str(p))

    def test_rejects_truncation(self, tmp_path):
        rng = substream(18, "ckpt")
        m = make_model(rng, 3, 4)
        path = tmp_path / "m.bin"
        m.save(str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            LinearModel.load(str(path))

    def test_rejects_trailing_bytes(self, tmp_path):
        m = make_model(substream(20, "ckpt"), 3, 4)
        path = tmp_path / "m.bin"
        m.save(str(path))
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(CheckpointError, match=f"{size + 8} bytes, expected {size}"):
            LinearModel.load(str(path))

    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    def test_save_writes_the_row_major_layout(self, tmp_path, layout):
        # the layout the checkpoint has always had: header, then the
        # bytes of C-ordered little-endian copies of weights and biases
        rng = substream(21, "ckpt")
        w = rng.normal(size=(5, 14))
        w = {"C": w, "F": np.asfortranarray(w), "sliced": w[:, ::2]}[layout]
        m = LinearModel(w, rng.normal(size=5))
        path = tmp_path / "m.bin"
        m.save(str(path))
        expected = (
            b"SBLM"
            + struct.pack("<IQQ", 1, *w.shape)
            + np.ascontiguousarray(w, dtype="<f8").tobytes()
            + np.ascontiguousarray(m.biases, dtype="<f8").tobytes()
        )
        assert path.read_bytes() == expected

    def test_rejects_nonfinite_save(self, tmp_path):
        m = LinearModel(np.array([[np.nan]]), np.zeros(1))
        with pytest.raises(ValueError):
            m.save(str(tmp_path / "m.bin"))

    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    def test_save_returns_the_file_digest(self, tmp_path, layout):
        # K * D spans several blocks of the hashing pass
        rng = substream(26, "ckpt")
        w = rng.normal(size=(300, 250))
        w = {"C": w, "F": np.asfortranarray(w), "sliced": w[:, ::2]}[layout]
        path = str(tmp_path / "m.bin")
        assert LinearModel(w, rng.normal(size=300)).save(path) == sha256_file(path)

    @pytest.mark.parametrize("where", ["first weight", "last weight", "bias"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_save_leaves_no_file(self, tmp_path, where, bad):
        m = make_model(substream(27, "ckpt"), 300, 250)
        if where == "bias":
            m.biases[7] = bad
        else:
            m.weights[(0, 0) if where == "first weight" else (-1, -1)] = bad
        path = tmp_path / "m.bin"
        with pytest.raises(ValueError, match="non-finite"):
            m.save(str(path))
        assert not path.exists()

    @pytest.mark.parametrize("where", ["first weight", "last weight", "bias"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_load_rejects_nonfinite(self, tmp_path, where, bad):
        # save never writes such a file, so load treats it as malformed;
        # K * D spans several of the blocks load checks
        k, d = 300, 250
        path = tmp_path / "m.bin"
        make_model(substream(28, "ckpt"), k, d).save(str(path))
        offset = {"first weight": 0, "last weight": k * d - 1, "bias": k * d + 7}[where]
        blob = bytearray(path.read_bytes())
        blob[24 + 8 * offset : 32 + 8 * offset] = struct.pack("<d", bad)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="non-finite"):
            LinearModel.load(str(path))


def _ove_loglik_oracle(model, data, lam):
    """The unblocked formula: one (N, K) log-sigmoid matrix, one sum."""
    f = scores_matrix(model, data)
    y = data.labels()
    ls = _log_sigmoid_impl(f[np.arange(len(y)), y][:, None] - f)
    total = float(ls.sum()) + len(y) * np.log(2.0)
    return total - 0.5 * lam * float(np.sum(model.weights**2))


class TestDenseTail:
    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_ove_loglik_one_block_is_exact(self, lam):
        # N * K and K * D both fit in one block of rows
        rng = substream(22, "tail")
        m = make_model(rng, 7, 30, scale=2.0)
        data, _, _ = make_data(rng, 40, 30, 7)
        assert ove_loglik(m, data, lam) == _ove_loglik_oracle(m, data, lam)

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_ove_loglik_many_blocks(self, lam):
        # N * K = 50000 and K * D = 100000 span several blocks of rows
        rng = substream(23, "tail")
        m = make_model(rng, 1000, 100, scale=0.3)
        data, _, _ = make_data(rng, 50, 100, 1000, density=0.1)
        assert ove_loglik(m, data, lam) == pytest.approx(
            _ove_loglik_oracle(m, data, lam), rel=1e-12
        )

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_ove_loglik_streamed_over_class_blocks(self, lam):
        # empty rows, features shared between rows, and a last class block
        # shorter than the others
        rng = substream(28, "tail")
        k, d, n = 1000, 50, 300
        m = make_model(rng, k, d, scale=0.3)
        dense = rng.normal(size=(n, d)) * (rng.uniform(size=(n, d)) < 0.4)
        dense[::7] = 0.0
        data = SparseDataset.from_dense(dense, rng.integers(0, k, size=n), k)
        widths = [b.shape[1] for _, b in _score_blocks(m, data.to_csr()[0])]
        assert len(widths) >= 4 and k % widths[0] != 0
        assert ove_loglik(m, data, lam) == pytest.approx(
            _ove_loglik_oracle(m, data, lam), rel=1e-12
        )

    def test_feature_count_mismatch_is_value_error(self):
        rng = substream(29, "tail")
        data, _, _ = make_data(rng, 10, 6, 4)
        m = make_model(rng, 4, 7)
        for fn in (scores_matrix, ove_loglik, predict_proba_all):
            with pytest.raises(ValueError, match="dataset has 6 features, model has 7"):
                fn(m, data)

    def test_overflow_in_a_later_class_block_is_numerical_error(self):
        # one late class weighs every feature by 1e308, so its score
        # overflows to +inf, and it is every row's label: inf - inf
        rng = substream(30, "tail")
        k, d, n = 1000, 50, 300
        m = make_model(rng, k, d, scale=0.3)
        _, dense, _ = make_data(rng, n, d, k, density=0.4)
        data = SparseDataset.from_dense(np.abs(dense) * 1.5, np.full(n, k - 3), k)
        m.weights[k - 3] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="bound is nan"):
                ove_loglik(m, data)

    @staticmethod
    def huge_model(label_weight, rival_weight):
        """Two one-feature instances of class 0 whose scores 2 * w overflow
        where a weight is 1e308; class 1 weighs the feature by the other."""
        data = SparseDataset.from_dense(np.full((2, 1), 2.0), np.array([0, 0]), 2)
        weights = np.array([[label_weight], [rival_weight]])
        return LinearModel(weights=weights, biases=np.zeros(2)), data

    @pytest.mark.parametrize("rival_weight", [-1e308, 1e308])
    def test_overflowed_label_score_is_numerical_error(self, rival_weight):
        m, data = self.huge_model(1e308, rival_weight)
        with pytest.raises(NumericalError, match="bound is nan"):
            ove_loglik(m, data)
        with pytest.raises(NumericalError, match="non-finite score"):
            predict_proba_all(m, data)

    def test_overflowed_rival_score_is_numerical_error(self):
        # a finite label score below an infinite rival: the bound is -inf
        m, data = self.huge_model(1.0, 1e308)
        with pytest.raises(NumericalError, match="bound is -inf"):
            ove_loglik(m, data)
        with pytest.raises(NumericalError, match="non-finite score"):
            predict_proba_all(m, data)

    def test_overflowed_score_of_one_instance(self):
        # 1e308 * 2.0 overflows inside the dense product of scores
        m = LinearModel(np.array([[1e308], [0.0]]), np.zeros(2))
        x = one_row([0], [2.0], 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert scores_matrix(m, x).tolist() == [[np.inf, 0.0]]
            with pytest.raises(NumericalError, match="non-finite score"):
                predict_proba_all(m, x)

    @pytest.mark.parametrize("biases", [[np.inf, 0.0], [np.nan, 0.0], [-np.inf, -np.inf]])
    def test_predict_proba_of_non_finite_top_score_is_numerical_error(self, biases):
        m = LinearModel(np.zeros((2, 1)), np.array(biases))
        with pytest.raises(NumericalError, match="non-finite score"):
            predict_proba_all(m, one_row([0], [1.0], 1))

    def test_margin_beyond_float_range_is_finite(self):
        # 2 * 1e308 - 2 * (-1e308) overflows the margin to +inf, whose
        # log-sigmoid is 0 and whose probability is exactly 1
        m, data = self.huge_model(1e308 / 4, -1e308 / 1.5)
        assert ove_loglik(m, data) == 0.0
        assert np.array_equal(predict_proba_all(m, data), [[1.0, 0.0], [1.0, 0.0]])

    def test_zero_lam_ignores_weights_whose_square_overflows(self):
        # ||W||^2 overflows, but with lam = 0 the penalty is 0, not 0 * inf
        m, data = self.huge_model(1e160, -1e160)
        assert ove_loglik(m, data, lam=0.0) == 0.0

    @pytest.mark.parametrize("k", [6, 1000])
    def test_predict_proba_all_is_exact_softmax(self, k):
        rng = substream(24, "tail")
        m = make_model(rng, k, 12, scale=3.0)
        data, _, _ = make_data(rng, 40, 12, k)
        f = scores_matrix(m, data)
        e = np.exp(f - f.max(axis=1)[:, None])
        assert np.array_equal(predict_proba_all(m, data), e / e.sum(axis=1)[:, None])


# The full-batch bodies as they stood before full_gradient built its weights
# in place on the score matrix and the three evaluations shared one preamble,
# kept as oracles.
def oracle_coefficients(f, y, objective):
    """linear_model._coefficients: C with grad_W = C^T X and grad_b = sum_n C[n]."""
    rows = np.arange(len(y))
    if objective.kind == KIND_OVE:
        s = _sigmoid_impl(f - f[rows, y][:, None])  # sigmoid(f_m - f_y)
        s[rows, y] = 0.0
        c = -s
        c[rows, y] = s.sum(axis=1)
        return c
    if objective.kind == KIND_EXACT:
        c = _softmax_rows(f)
    else:
        a = np.asarray(objective.per_instance_alpha, dtype=np.float64)
        c = _sigmoid_impl(f - a[:, None])
    np.negative(c, out=c)
    c[rows, y] += 1.0
    return c


def oracle_full_gradient(model, data, objective):
    c = oracle_coefficients(scores_matrix(model, data), data.labels(), objective)
    mat, _ = data.to_csr()
    grad_w = np.asarray((mat.T @ c).T) - objective.lam * model.weights
    return grad_w, c.sum(axis=0)


def oracle_exact_loglik(model, data, lam):
    f, y = scores_matrix(model, data), data.labels()
    rows = np.arange(len(y))
    return float(np.sum(f[rows, y] - _log_sum_exp_rows(f))) - _penalty(model, lam)


def oracle_bouchard_loglik(model, data, objective):
    f, y = scores_matrix(model, data), data.labels()
    a = np.asarray(objective.per_instance_alpha, dtype=np.float64)
    rows = np.arange(len(y))
    bound = f[rows, y] - a - _softplus_impl(f - a[:, None]).sum(axis=1)
    return float(bound.sum()) - _penalty(model, objective.lam)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@st.composite
def full_batch_cases(draw):
    """(model, data, alphas): N in [1, 12], D in [1, 6], K in [2, 8], about
    half the features zero, scores |f| up to 1e4, and per-instance alphas
    that are either optimal or drawn on the scores' scale."""
    n, d, k = draw(st.integers(1, 12)), draw(st.integers(1, 6)), draw(st.integers(2, 8))
    scale = 10.0 ** draw(st.floats(-1.0, 4.0))
    unit = st.floats(-1.0, 1.0)
    x = draw(arrays(np.float64, (n, d), elements=unit)) * draw(arrays(np.bool_, (n, d)))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))
    # |b| + sum_j |W_kj x_j| <= scale / 2 + scale / 2
    model = LinearModel(draw(arrays(np.float64, (k, d), elements=unit)) * (0.5 * scale / d),
                        draw(arrays(np.float64, k, elements=unit)) * (0.5 * scale))
    data = SparseDataset.from_dense(x, labels, k)
    if draw(st.booleans()):
        alphas = optimal_alphas(model, data)
    else:
        alphas = draw(arrays(np.float64, n, elements=unit)) * scale
    return model, data, alphas


class TestFullBatchOracles:
    @given(case=full_batch_cases(), lam=st.sampled_from([0.0, 0.5]))
    def test_values_match_bitwise(self, case, lam):
        m, data, alphas = case
        assert same_bits(exact_loglik(m, data, lam), oracle_exact_loglik(m, data, lam))
        objective = Objective(KIND_BOUCHARD, lam, alphas)
        assert same_bits(bouchard_loglik(m, data, objective),
                         oracle_bouchard_loglik(m, data, objective))

    @given(case=full_batch_cases(), kind=st.sampled_from([KIND_EXACT, KIND_OVE, KIND_BOUCHARD]),
           lam=st.sampled_from([0.0, 0.5]))
    def test_gradients_match_bitwise(self, case, kind, lam):
        m, data, alphas = case
        objective = Objective(kind, lam, alphas if kind == KIND_BOUCHARD else None)
        grad_w, grad_b = full_gradient(m, data, objective)
        oracle_w, oracle_b = oracle_full_gradient(m, data, objective)
        assert same_bits(grad_w, oracle_w) and same_bits(grad_b, oracle_b)


@pytest.fixture(scope="module")
def wide():
    """N = K = 2000, D = 1000, 10 nnz per row: the score matrix is 32 MB and
    W 16 MB, so any whole-array temporary shows against either."""
    n = k = 2000
    d, nnz = 1000, 10
    rng = substream(25, "tail")
    indices = np.sort(np.argsort(rng.random((n, d)), axis=1)[:, :nnz], axis=1)
    data = SparseDataset(
        np.arange(0, n * nnz + 1, nnz), indices.ravel(), rng.normal(size=n * nnz),
        rng.integers(0, k, size=n), d, k,
    )
    return make_model(rng, k, d, scale=0.1), data


@pytest.fixture(scope="module")
def tall():
    """K = D = 2000 (W is 32 MB, K * D = 4e6) with 200 rows of 10 nnz: the
    work of the data is small next to any whole-W temporary."""
    k = d = 2000
    n, nnz = 200, 10
    rng = substream(31, "tail")
    indices = np.sort(np.argsort(rng.random((n, d)), axis=1)[:, :nnz], axis=1)
    data = SparseDataset(
        np.arange(0, n * nnz + 1, nnz), indices.ravel(), rng.normal(size=n * nnz),
        rng.integers(0, k, size=n), d, k,
    )
    return make_model(rng, k, d, scale=0.1), data


class TestDenseTailMemory:
    def test_ove_loglik_streams_class_blocks(self, wide):
        m, data = wide
        assert len(list(_score_blocks(m, data.to_csr()[0]))) >= 4
        peak = traced_peak(ove_loglik, m, data, 0.1)
        assert peak <= 0.05 * len(data) * m.num_classes * 8

    def test_save_is_blocked(self, tall, tmp_path):
        m, _ = tall
        peak = traced_peak(m.save, str(tmp_path / "m.bin"))
        assert peak <= 2 * 2**20

    def test_train_holds_only_the_returned_model(self, tall):
        m, data = tall
        cfg = TrainConfig(batch_size=10, num_sampled=5, lr0=0.01, epochs=1, lam=0.1, seed=3)
        peak = traced_peak(train, m, data, cfg)
        assert peak <= m.weights.nbytes + 0.05 * m.weights.nbytes

    def test_ove_loglik(self, wide):
        m, data = wide
        peak = traced_peak(ove_loglik, m, data, 0.1)
        assert peak < 1.25 * len(data) * m.num_classes * 8

    @pytest.mark.parametrize("kind, bound", [
        (KIND_EXACT, 2.6), (KIND_OVE, 3.2), (KIND_BOUCHARD, 3.2),
    ])
    def test_full_gradient(self, wide, kind, bound):
        # the weights C are built in place on the score matrix, which the
        # sigmoid kinds release once their weights exist (2.5 and 3.13 here)
        m, data = wide
        alphas = np.zeros(len(data)) if kind == KIND_BOUCHARD else None
        peak = traced_peak(full_gradient, m, data, Objective(kind, 0.1, alphas))
        assert peak <= bound * len(data) * m.num_classes * 8

    def test_exact_loglik(self, wide):
        m, data = wide
        peak = traced_peak(exact_loglik, m, data, 0.1)
        assert peak <= 2.1 * len(data) * m.num_classes * 8

    def test_bouchard_loglik(self, wide):
        m, data = wide
        objective = Objective(KIND_BOUCHARD, 0.1, np.zeros(len(data)))
        peak = traced_peak(bouchard_loglik, m, data, objective)
        assert peak <= 4.1 * len(data) * m.num_classes * 8

    def test_predict_proba_all(self, wide):
        m, data = wide
        peak = traced_peak(predict_proba_all, m, data)
        assert peak < 1.25 * len(data) * m.num_classes * 8

    def test_save(self, wide, tmp_path):
        m, _ = wide
        peak = traced_peak(m.save, str(tmp_path / "m.bin"))
        assert peak < 0.25 * m.weights.nbytes

    def test_load(self, wide, tmp_path):
        m, _ = wide
        path = str(tmp_path / "m.bin")
        m.save(path)
        peak = traced_peak(LinearModel.load, path)
        assert peak < 1.1 * m.weights.nbytes
