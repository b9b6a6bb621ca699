import csv
import json

import numpy as np
import pytest

from softmax_bounds.datasets import SparseDataset
from softmax_bounds.linear_model import LinearModel, scores_matrix
from softmax_bounds.metrics import (
    MethodReport,
    error_rate,
    gauge_fix,
    nlpd,
    param_norm,
    smooth_trace,
    write_report_csv,
    write_report_json,
)
from softmax_bounds.rng import substream

from helpers import traced_peak


def random_model(rng, k=6, d=4):
    return LinearModel(weights=rng.normal(size=(k, d)), biases=rng.normal(size=k))


class TestGaugeFix:
    def test_removes_column_means(self):
        m = random_model(substream(0, "gf"))
        g = gauge_fix(m)
        np.testing.assert_allclose(g.weights.mean(axis=0), 0.0, atol=1e-15)
        assert g.biases.mean() == pytest.approx(0.0, abs=1e-15)

    def test_idempotent(self):
        m = random_model(substream(1, "gf"))
        g1 = gauge_fix(m)
        g2 = gauge_fix(g1)
        np.testing.assert_allclose(g2.weights, g1.weights, atol=1e-15)
        np.testing.assert_allclose(g2.biases, g1.biases, atol=1e-15)

    def test_collapses_shared_shifts(self):
        rng = substream(2, "gf")
        m = random_model(rng)
        shift = rng.normal(size=m.num_features)
        shifted = LinearModel(
            weights=m.weights + shift[None, :], biases=m.biases + 3.25
        )
        g1, g2 = gauge_fix(m), gauge_fix(shifted)
        np.testing.assert_allclose(g2.weights, g1.weights, atol=1e-12)
        np.testing.assert_allclose(g2.biases, g1.biases, atol=1e-12)

    def test_predictions_unchanged(self):
        rng = substream(3, "gf")
        m = random_model(rng)
        g = gauge_fix(m)
        data = SparseDataset.from_dense(
            rng.normal(size=(20, m.num_features)), np.zeros(20, dtype=np.int64), m.num_classes
        )
        np.testing.assert_array_equal(
            np.argmax(scores_matrix(m, data), axis=1), np.argmax(scores_matrix(g, data), axis=1)
        )


class TestParamNorm:
    def test_identity_is_zero(self):
        m = random_model(substream(4, "pn"))
        assert param_norm(m, m) == 0.0

    def test_doubling_is_one(self):
        m = random_model(substream(5, "pn"))
        doubled = LinearModel(weights=2 * m.weights, biases=2 * m.biases)
        assert param_norm(m, doubled) == pytest.approx(1.0, rel=1e-13)

    def test_scale_detecting(self):
        m = random_model(substream(6, "pn"))
        for c in (-1.5, 0.0, 0.25, 3.0):
            scaled = LinearModel(weights=c * m.weights, biases=c * m.biases)
            assert param_norm(m, scaled) == pytest.approx(abs(1 - c), rel=1e-12)

    def test_invariant_to_shared_shifts_of_either_side(self):
        rng = substream(7, "pn")
        a, b = random_model(rng), random_model(rng)
        shift = rng.normal(size=a.num_features)
        b_shifted = LinearModel(weights=b.weights + shift[None, :], biases=b.biases - 2.0)
        assert param_norm(a, b_shifted) == pytest.approx(param_norm(a, b), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            param_norm(LinearModel.zeros(3, 2), LinearModel.zeros(3, 4))

    def test_zero_reference_rejected(self):
        # constant rows vanish under gauge fixing
        flat = LinearModel(weights=np.ones((4, 3)), biases=np.full(4, 2.0))
        with pytest.raises(ValueError, match="zero"):
            param_norm(flat, random_model(substream(8, "pn"), k=4, d=3))


def concatenated_param_norm(reference, other):
    """The oracle: ``param_norm`` as the distance between two gauge-fixed
    models, each flattened into one vector of weights and biases."""
    g_ref, g_other = gauge_fix(reference), gauge_fix(other)
    ref_vec = np.concatenate((g_ref.weights.ravel(), g_ref.biases))
    other_vec = np.concatenate((g_other.weights.ravel(), g_other.biases))
    return float(np.linalg.norm(ref_vec - other_vec)) / float(np.linalg.norm(ref_vec))


class TestParamNormAtScale:
    def test_peak_is_at_most_two_weight_arrays(self):
        # the concatenated formula peaked at 5.0 x K * D * 8 bytes
        k = d = 2000
        rng = substream(9, "pn")
        a, b = random_model(rng, k, d), random_model(rng, k, d)
        assert traced_peak(param_norm, a, b) <= 2.1 * k * d * 8

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_concatenated_formula(self, seed):
        rng = substream(seed, "pn-oracle")
        k, d = int(rng.integers(2, 60)), int(rng.integers(1, 40))
        a, b = random_model(rng, k, d), random_model(rng, k, d)
        a.weights *= 10.0 ** rng.uniform(-3, 3)
        c = rng.choice([-2.5, -1.0, 0.0, 0.3, 0.5, 2.0, 7.0])
        shift_w, shift_b = rng.normal(size=d) * 5, rng.normal() * 5
        pairs = [
            (a, b),  # random
            (a, LinearModel(c * a.weights, c * a.biases)),  # scaled
            (a, LinearModel(b.weights + shift_w, b.biases + shift_b)),  # gauge-shifted
            (a, LinearModel(c * a.weights + shift_w, c * a.biases + shift_b)),  # both
        ]
        for ref, other in pairs:
            assert param_norm(ref, other) == pytest.approx(
                concatenated_param_norm(ref, other), rel=1e-12, abs=0.0)


class TestErrorRate:
    def test_identical(self):
        assert error_rate([1, 2, 3], [1, 2, 3]) == 0.0

    def test_disjoint(self):
        assert error_rate([0, 0, 0], [1, 2, 3]) == 1.0

    def test_fraction(self):
        assert error_rate([1, 1, 2, 2], [1, 1, 1, 1]) == 0.5

    def test_mismatch(self):
        with pytest.raises(ValueError):
            error_rate([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            error_rate([], [])


class TestNlpd:
    def test_uniform_rows(self):
        p = np.full((7, 10), 0.1)
        assert nlpd(p, np.arange(7) % 10) == pytest.approx(np.log(10.0), rel=1e-12)

    def test_delta_rows(self):
        p = np.eye(4)
        assert nlpd(p, np.arange(4)) == 0.0

    def test_floor_applies(self):
        p = np.array([[1.0, 0.0]])
        assert nlpd(p, [1]) == pytest.approx(-np.log(1e-12), rel=1e-12)

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            nlpd(np.array([[0.5, 0.6]]), [0])
        with pytest.raises(ValueError):
            nlpd(np.array([[1.2, -0.2]]), [0])
        with pytest.raises(ValueError):
            nlpd(np.array([[np.nan, 1.0]]), [0])
        with pytest.raises(ValueError):
            nlpd(np.array([[0.5, 0.5], [np.inf, 0.0]]), [0, 0])
        with pytest.raises(ValueError):
            nlpd(np.array([[0.5, 0.5], [1.0, -np.inf]]), [0, 0])
        with pytest.raises(ValueError):
            nlpd(np.array([[0.5, 0.5]]), [2])

    def test_mean_over_rows(self):
        p = np.array([[0.5, 0.5], [0.25, 0.75]])
        expected = (-np.log(0.5) - np.log(0.75)) / 2
        assert nlpd(p, [0, 1]) == pytest.approx(expected, rel=1e-12)


class TestSmoothTrace:
    def test_window_one_is_identity(self):
        x = [3.0, -1.0, 2.5]
        np.testing.assert_array_equal(smooth_trace(x, 1), x)

    def test_constant_unchanged(self):
        x = np.full(9, 4.2)
        np.testing.assert_allclose(smooth_trace(x, 4), x, rtol=1e-15)

    def test_small_example(self):
        np.testing.assert_allclose(
            smooth_trace([0.0, 1.0, 2.0, 3.0], 2), [0.0, 0.5, 1.5, 2.5]
        )

    def test_matches_naive_reference(self):
        rng = substream(9, "st")
        x = rng.normal(size=257) * 100
        for window in (1, 3, 16, 257, 400):
            got = smooth_trace(x, window)
            ref = np.array(
                [x[max(0, i - window + 1) : i + 1].mean() for i in range(len(x))]
            )
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)

    def test_thinning(self):
        x = np.arange(10, dtype=float)
        full = smooth_trace(x, 3)
        np.testing.assert_array_equal(smooth_trace(x, 3, thin=4), full[::4])

    def test_empty(self):
        assert smooth_trace([], 5).size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            smooth_trace([1.0], 0)
        with pytest.raises(ValueError):
            smooth_trace([1.0], 1, thin=0)
        with pytest.raises(ValueError):
            smooth_trace(np.zeros((2, 2)), 1)


class TestMethodReport:
    def test_validation(self):
        MethodReport(method="a", error=0.1, nlpd=0.3, bound_final=-5.0).validate()
        with pytest.raises(ValueError):
            MethodReport(method="a", error=1.5, nlpd=0.3, bound_final=0.0).validate()
        with pytest.raises(ValueError):
            MethodReport(method="a", error=0.1, nlpd=-0.3, bound_final=0.0).validate()
        with pytest.raises(ValueError):
            MethodReport(
                method="a", error=0.1, nlpd=0.3, bound_final=0.0, norm=-1.0
            ).validate()

    def test_csv_shape(self, tmp_path):
        reports = [
            MethodReport(method="exact_softmax", error=0.074, nlpd=0.271, bound_final=-1.0),
            MethodReport(method="ove", error=0.082, nlpd=0.287, bound_final=-2.0, norm=0.5),
        ]
        path = tmp_path / "report.csv"
        write_report_csv(reports, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "norm", "error", "nlpd"]
        assert rows[1] == ["exact_softmax", "", "0.074", "0.271"]
        assert rows[2][0] == "ove"
        assert float(rows[2][1]) == 0.5

    def test_json_round_trip(self, tmp_path):
        reports = [
            MethodReport(method="ove", error=0.1, nlpd=0.2, bound_final=-3.5, norm=0.4)
        ]
        path = tmp_path / "report.json"
        write_report_json(reports, path)
        with open(path) as fh:
            loaded = json.load(fh)
        assert loaded == [
            {"method": "ove", "norm": 0.4, "error": 0.1, "nlpd": 0.2, "bound_final": -3.5}
        ]
