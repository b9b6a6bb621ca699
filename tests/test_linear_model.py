"""Tests for linear scores, the three objectives, and their gradients."""

import struct
import tracemalloc

import numpy as np
import pytest

from softmax_bounds.bounds import _log_sigmoid_impl
from softmax_bounds.config import NumericalError
from softmax_bounds.datasets import SparseDataset, SparseVector
from softmax_bounds.linear_model import (
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
    predict,
    predict_all,
    predict_proba,
    predict_proba_all,
    scores,
    scores_matrix,
)
from softmax_bounds.rng import substream

from helpers import rows_of


def make_data(rng, n, d, k, density=0.5):
    dense = rng.normal(size=(n, d)) * (rng.uniform(size=(n, d)) < density)
    labels = rng.integers(0, k, size=n)
    return SparseDataset.from_dense(dense, labels, k), dense, labels


def make_model(rng, k, d, scale=1.0):
    return LinearModel(rng.normal(scale=scale, size=(k, d)), rng.normal(size=k))


class TestScores:
    def test_zero_model(self):
        m = LinearModel.zeros(4, 6)
        x = SparseVector(np.array([1, 3]), np.array([2.0, -1.0]))
        np.testing.assert_array_equal(scores(m, x), np.zeros(4))

    def test_one_hot_picks_column(self):
        rng = substream(1, "scores")
        m = make_model(rng, 5, 8)
        x = SparseVector(np.array([3]), np.array([1.0]))
        np.testing.assert_allclose(scores(m, x), m.weights[:, 3] + m.biases)

    def test_matches_dense_oracle(self):
        rng = substream(2, "scores")
        m = make_model(rng, 6, 10)
        data, dense, _ = make_data(rng, 20, 10, 6)
        f = scores_matrix(m, data)
        expected = dense @ m.weights.T + m.biases
        np.testing.assert_allclose(f, expected, rtol=1e-12, atol=1e-12)
        for i, (x, _) in enumerate(rows_of(data)):
            np.testing.assert_allclose(scores(m, x), expected[i], rtol=1e-12, atol=1e-12)

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
        x = SparseVector(np.array([7]), np.array([1.0]))
        with pytest.raises(ValueError, match="out of range"):
            scores(m, x)

    @pytest.mark.parametrize("index", [-1, 4])
    @pytest.mark.parametrize("api", [scores, predict, predict_proba])
    def test_feature_index_out_of_range(self, api, index):
        # index -1 would read the last feature's column, and predict would
        # return a class
        m = LinearModel.zeros(3, 4)
        x = SparseVector(np.array([index]), np.array([1.0]))
        with pytest.raises(ValueError, match="row 0: feature index out of range for 4"):
            api(m, x)

    def test_empty_row(self):
        rng = substream(3, "scores")
        m = make_model(rng, 3, 4)
        x = SparseVector(np.array([], dtype=np.int64), np.array([]))
        np.testing.assert_array_equal(scores(m, x), m.biases)


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
        data, _, _ = make_data(rng, 12, 6, 5)
        expected = sum(
            ove_log_bound(scores(m, x), y) for x, y in rows_of(data)
        )
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
        x = SparseVector(np.array([0, 2]), np.array([1.0, 2.0]))
        data = SparseDataset.from_dense([x.to_dense(3)], [1], 4)
        m = LinearModel.zeros(4, 3)
        gw, gb = full_gradient(m, data, Objective(KIND_OVE, 0.0))
        dense_x = x.to_dense(3)
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
        m = LinearModel(np.array([[3.0], [1.0], [0.0]]), np.zeros(3))
        x = SparseVector(np.array([0]), np.array([1.0]))
        assert predict(m, x) == 0
        zero = LinearModel.zeros(4, 1)
        assert predict(zero, x) == 0  # tie: lowest index wins

    def test_shift_invariance(self):
        rng = substream(15, "pred")
        m = make_model(rng, 5, 3)
        shifted = LinearModel(m.weights.copy(), m.biases + 11.0)
        data, _, _ = make_data(rng, 30, 3, 5)
        np.testing.assert_array_equal(predict_all(m, data), predict_all(shifted, data))

    def test_proba_is_exact_softmax(self):
        from softmax_bounds.bounds import softmax

        rng = substream(16, "pred")
        m = make_model(rng, 4, 5)
        x = SparseVector(np.array([1, 4]), np.array([0.3, -2.0]))
        np.testing.assert_allclose(
            predict_proba(m, x), softmax(scores(m, x)), rtol=1e-13
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

    def test_json_round_trip(self):
        rng = substream(19, "ckpt")
        m = make_model(rng, 3, 4)
        back = LinearModel.from_json_dict(m.to_json_dict())
        np.testing.assert_array_equal(back.weights, m.weights)
        np.testing.assert_array_equal(back.biases, m.biases)


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


def _traced_peak(fn, *args):
    """Peak bytes traced while ``fn(*args)`` runs (numpy reports its buffers
    to tracemalloc), counting what it returns."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


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


class TestDenseTailMemory:
    def test_ove_loglik(self, wide):
        m, data = wide
        peak = _traced_peak(ove_loglik, m, data, 0.1)
        assert peak < 1.25 * len(data) * m.num_classes * 8

    def test_predict_proba_all(self, wide):
        m, data = wide
        peak = _traced_peak(predict_proba_all, m, data)
        assert peak < 1.25 * len(data) * m.num_classes * 8

    def test_save(self, wide, tmp_path):
        m, _ = wide
        peak = _traced_peak(m.save, str(tmp_path / "m.bin"))
        assert peak < 0.25 * m.weights.nbytes

    def test_load(self, wide, tmp_path):
        m, _ = wide
        path = str(tmp_path / "m.bin")
        m.save(path)
        peak = _traced_peak(LinearModel.load, path)
        assert peak < 1.1 * m.weights.nbytes
