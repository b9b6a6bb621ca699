"""Tests for the stable kernels and the bound inequalities.

Expected constants were computed independently with mpmath at 50 decimal
digits (see the docstrings on each test); property tests then check the
inequalities the bounds must satisfy on randomized inputs.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from softmax_bounds import bounds
from softmax_bounds.bounds import (
    ConvergenceError,
    LabelPartition,
    _log_sum_exp_rows,
    _softmax_rows,
    bouchard_log_bound,
    bouchard_lse_upper,
    hierarchical_log_bound,
    log_sigmoid,
    log_sum_exp,
    optimize_alpha,
    optimize_alpha_batch,
    ove_log_bound,
    sigmoid,
    softmax,
    softmax_prob,
    softplus,
)

from helpers import ove_log_bound_all


class TestStableKernels:
    def test_sigmoid_scalar_and_array(self):
        assert sigmoid(0.0) == 0.5
        np.testing.assert_allclose(
            sigmoid(np.array([-2.0, 0.0, 2.0])),
            [0.11920292202211755, 0.5, 0.8807970779778823],
            rtol=1e-15,
        )

    def test_sigmoid_extremes_no_overflow(self):
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == 0.0
        assert 0 < sigmoid(-700.0) < 1e-300

    def test_log_sigmoid_values(self):
        # mpmath: logsig(40) = -4.2483542552915889863e-18
        assert log_sigmoid(0.0) == pytest.approx(-np.log(2), rel=1e-15)
        assert log_sigmoid(40.0) == pytest.approx(-4.248354255291589e-18, rel=1e-12)
        assert log_sigmoid(-745.0) == pytest.approx(-745.0, rel=1e-15)
        assert np.isfinite(log_sigmoid(-5000.0))
        assert log_sigmoid(-5000.0) == -5000.0

    def test_softplus_values(self):
        # mpmath: softplus(-40) = 4.2483542552915889863e-18
        assert softplus(0.0) == pytest.approx(np.log(2), rel=1e-15)
        assert softplus(40.0) == pytest.approx(40.0, rel=1e-15)
        assert softplus(-40.0) == pytest.approx(4.248354255291589e-18, rel=1e-12)
        assert softplus(800.0) == 800.0  # no overflow

    def test_shape_preserved(self):
        z = np.linspace(-3, 3, 12).reshape(3, 4)
        assert sigmoid(z).shape == (3, 4)
        assert log_sigmoid(z).shape == (3, 4)
        assert softplus(z).shape == (3, 4)

    def test_identities(self):
        z = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(log_sigmoid(z), -softplus(-z), rtol=1e-14)
        np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), 1.0, rtol=1e-14)


class TestLogSumExp:
    def test_frozen_values(self):
        # mpmath 50 dps: LSE([0,1,2]) = 2.4076059644443803045
        assert log_sum_exp([0.0, 1.0, 2.0]) == pytest.approx(
            2.4076059644443803, rel=1e-15
        )
        # LSE([3,1,0]) = 3.1698460195562856488
        assert log_sum_exp([3.0, 1.0, 0.0]) == pytest.approx(
            3.1698460195562856, rel=1e-15
        )

    def test_shift_stability(self):
        # LSE([1000,1000]) = 1000 + log 2; LSE([-1000,-1001]) = -999.68673831...
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(
            1000.6931471805599453, rel=1e-15
        )
        assert log_sum_exp([-1000.0, -1001.0]) == pytest.approx(
            -999.6867383124817772, rel=1e-15
        )

    def test_minus_inf_entries(self):
        assert log_sum_exp([-np.inf, 0.0]) == pytest.approx(0.0, abs=1e-15)
        assert log_sum_exp([-np.inf, -np.inf]) == -np.inf

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            log_sum_exp([np.nan, 1.0])

    def test_softmax_frozen(self):
        p = softmax([3.0, 1.0, 0.0])
        np.testing.assert_allclose(
            p,
            [0.84379473448133947, 0.11419519938459448, 0.042010066134066051],
            rtol=1e-14,
        )
        assert p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_softmax_prob_matches_softmax(self):
        f = np.array([3.0, 1.0, 0.0])
        assert softmax_prob(f, 0) == pytest.approx(0.84379473448133947, rel=1e-14)
        for k in range(3):
            assert softmax_prob(f, k) == pytest.approx(
                float(softmax(f)[k]), rel=1e-12
            )
        assert sum(softmax_prob(f, k) for k in range(3)) == pytest.approx(
            1.0, abs=1e-12
        )


class TestOveBound:
    def test_frozen_values(self):
        # mpmath: logsig(2)+logsig(3) = -0.1755153626167145552
        assert ove_log_bound([3.0, 1.0, 0.0], 0) == pytest.approx(
            -0.17551536261671456, rel=1e-14
        )
        # logsig(-2)+logsig(1) = -2.4401896985611953305
        assert ove_log_bound([3.0, 1.0, 0.0], 1) == pytest.approx(
            -2.4401896985611953, rel=1e-14
        )

    def test_exact_for_two_classes(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            f = rng.normal(scale=3.0, size=2)
            for k in (0, 1):
                assert ove_log_bound(f, k) == pytest.approx(
                    np.log(softmax_prob(f, k)), rel=1e-12, abs=1e-12
                )

    def test_lower_bounds_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            k_classes = rng.integers(2, 51)
            f = rng.normal(scale=rng.uniform(0.1, 5.0), size=k_classes)
            k = int(rng.integers(k_classes))
            assert ove_log_bound(f, k) <= np.log(softmax_prob(f, k)) + 1e-12

    def test_bound_probabilities_subnormalized(self):
        # sum_k exp(ove_k) <= 1: the bound never allocates more than unit mass
        rng = np.random.default_rng(13)
        for _ in range(300):
            k_classes = rng.integers(2, 30)
            f = rng.normal(scale=2.0, size=k_classes)
            total = np.exp(ove_log_bound_all(f)).sum()
            assert total <= 1.0 + 1e-12

    def test_all_matches_single(self):
        rng = np.random.default_rng(14)
        f = rng.normal(size=17)
        all_bounds = ove_log_bound_all(f)
        for k in range(17):
            assert all_bounds[k] == pytest.approx(ove_log_bound(f, k), rel=1e-13)

    def test_index_validation(self):
        with pytest.raises(IndexError):
            ove_log_bound([0.0, 1.0], 2)
        with pytest.raises(IndexError):
            ove_log_bound([0.0, 1.0], -1)
        with pytest.raises(ValueError):
            ove_log_bound([0.0], 0)
        with pytest.raises(ValueError):
            ove_log_bound([0.0, np.inf], 0)


class TestHierarchicalBound:
    def test_single_block_is_exact(self):
        # one block holding all rivals: -softplus(LSE([1,0]) - 3) = -0.16984601955628564878
        part = LabelPartition(target=0, blocks=((1, 2),))
        got = hierarchical_log_bound([3.0, 1.0, 0.0], part)
        assert got == pytest.approx(-0.16984601955628565, rel=1e-14)
        assert got == pytest.approx(
            np.log(softmax_prob([3.0, 1.0, 0.0], 0)), rel=1e-14
        )

    def test_singletons_reduce_to_ove(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            k_classes = int(rng.integers(3, 12))
            f = rng.normal(size=k_classes)
            k = int(rng.integers(k_classes))
            part = LabelPartition(
                target=k, blocks=tuple((m,) for m in range(k_classes) if m != k)
            )
            assert hierarchical_log_bound(f, part) == pytest.approx(
                ove_log_bound(f, k), rel=1e-13
            )

    def test_merging_blocks_tightens(self):
        # merging any two blocks can only raise the bound
        rng = np.random.default_rng(22)
        for _ in range(200):
            k_classes = int(rng.integers(4, 14))
            f = rng.normal(scale=2.0, size=k_classes)
            k = int(rng.integers(k_classes))
            rivals = [m for m in range(k_classes) if m != k]
            rng.shuffle(rivals)
            n_blocks = int(rng.integers(2, len(rivals) + 1))
            cut = sorted(rng.choice(np.arange(1, len(rivals)), size=n_blocks - 1, replace=False))
            blocks = [tuple(chunk) for chunk in np.split(np.array(rivals), cut)]
            loose = LabelPartition(target=k, blocks=tuple(blocks))
            i, j = rng.choice(len(blocks), size=2, replace=False)
            merged = [b for idx, b in enumerate(blocks) if idx not in (i, j)]
            merged.append(tuple(blocks[i]) + tuple(blocks[j]))
            tight = LabelPartition(target=k, blocks=tuple(merged))
            assert hierarchical_log_bound(f, tight) >= hierarchical_log_bound(
                f, loose
            ) - 1e-12

    def test_between_ove_and_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            k_classes = int(rng.integers(3, 14))
            f = rng.normal(scale=2.0, size=k_classes)
            k = int(rng.integers(k_classes))
            rivals = [m for m in range(k_classes) if m != k]
            rng.shuffle(rivals)
            n_blocks = int(rng.integers(1, len(rivals) + 1))
            cuts = sorted(
                rng.choice(np.arange(1, len(rivals)), size=n_blocks - 1, replace=False)
            )
            blocks = tuple(tuple(c) for c in np.split(np.array(rivals), cuts))
            part = LabelPartition(target=k, blocks=blocks)
            h = hierarchical_log_bound(f, part)
            assert ove_log_bound(f, k) <= h + 1e-12
            assert h <= np.log(softmax_prob(f, k)) + 1e-12

    def test_partition_validation(self):
        f = [0.0, 1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            hierarchical_log_bound(f, LabelPartition(0, ((1,), (1, 2, 3))))
        with pytest.raises(ValueError):
            hierarchical_log_bound(f, LabelPartition(0, ((1, 2),)))  # 3 missing
        with pytest.raises(IndexError):
            hierarchical_log_bound(f, LabelPartition(0, ((0, 1, 2, 3),)))
        with pytest.raises(ValueError):
            hierarchical_log_bound(f, LabelPartition(0, ()))


class TestBouchard:
    def test_upper_frozen_value(self):
        # mpmath: upper bound at alpha = 1.5 for f = [3,1,0] is 3.8769035401456115
        assert bouchard_lse_upper([3.0, 1.0, 0.0], 1.5) == pytest.approx(
            3.8769035401456115, rel=1e-14
        )

    def test_upper_dominates_lse(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            k_classes = int(rng.integers(2, 51))
            f = rng.normal(scale=rng.uniform(0.1, 4.0), size=k_classes)
            alpha = float(rng.normal(scale=3.0))
            assert bouchard_lse_upper(f, alpha) >= log_sum_exp(f) - 1e-12

    def test_optimize_alpha_frozen(self):
        # mpmath root of sum sigmoid(f - a) = 1 for f = [3,1,0]:
        # alpha* = 2.2441955464695331852, giving upper = 3.7389986008553339
        a = optimize_alpha([3.0, 1.0, 0.0])
        assert a == pytest.approx(2.2441955464695332, rel=1e-10)
        assert bouchard_lse_upper([3.0, 1.0, 0.0], a) == pytest.approx(
            3.7389986008553339, rel=1e-12
        )

    def test_optimize_alpha_two_class_midpoint(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            f = rng.normal(scale=5.0, size=2)
            assert optimize_alpha(f) == pytest.approx(
                0.5 * (f[0] + f[1]), abs=1e-8
            )

    def test_optimize_alpha_is_minimizer(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            k_classes = int(rng.integers(2, 40))
            f = rng.normal(scale=2.0, size=k_classes)
            a = optimize_alpha(f)
            best = bouchard_lse_upper(f, a)
            for da in (-0.1, -1e-3, 1e-3, 0.1):
                assert best <= bouchard_lse_upper(f, a + da) + 1e-13

    def test_lower_bound_frozen(self):
        a = 2.2441955464695332
        assert bouchard_log_bound([3.0, 1.0, 0.0], 0, a) == pytest.approx(
            -0.73899860085533392, rel=1e-12
        )

    def test_lower_bounds_exact_any_alpha(self):
        rng = np.random.default_rng(34)
        for _ in range(1000):
            k_classes = int(rng.integers(2, 51))
            f = rng.normal(scale=2.0, size=k_classes)
            k = int(rng.integers(k_classes))
            alpha = float(rng.normal(scale=3.0))
            assert bouchard_log_bound(f, k, alpha) <= np.log(softmax_prob(f, k)) + 1e-12

    def test_two_class_gap_to_ove_is_log2(self):
        # at alpha = f_k with K = 2 the bound equals the pairwise bound minus log 2
        rng = np.random.default_rng(35)
        for _ in range(100):
            f = rng.normal(scale=3.0, size=2)
            for k in (0, 1):
                b = bouchard_log_bound(f, k, float(f[k]))
                o = ove_log_bound(f, k)
                assert b == pytest.approx(o - np.log(2), abs=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(37)
        scores = rng.normal(scale=3.0, size=(64, 9))
        alphas = optimize_alpha_batch(scores)
        for i in range(64):
            assert alphas[i] == pytest.approx(optimize_alpha(scores[i]), abs=1e-9)

    def test_alpha_rejects_bad_input(self):
        with pytest.raises(ValueError):
            optimize_alpha([1.0])
        with pytest.raises(ValueError):
            optimize_alpha([np.nan, 1.0])
        with pytest.raises(ValueError):
            bouchard_lse_upper([0.0, 1.0], np.inf)

    def test_alpha_solve_stall_is_convergence_error(self, monkeypatch):
        # one evaluation at the start LSE = log 3 leaves |r| = 1/4
        monkeypatch.setattr(bounds, "ALPHA_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match=r"stalled on 1 rows: worst "
                           r"\|sum sigmoid\(f - alpha\) - 1\| = 2.500e-01 > 1.0e-10 "
                           r"after 1 iterations"):
            optimize_alpha([0.0, 0.0, 0.0])

    def test_alpha_converges_even_when_tight(self):
        # huge spread still converges (bracket is adaptive)
        f = np.array([500.0, -500.0, 0.0])
        a = optimize_alpha(f)
        s = 1.0 / (1.0 + np.exp(np.clip(a - f, -700, 700)))
        assert abs(s.sum() - 1.0) <= 1e-10


@st.composite
def extreme_scores(draw):
    """(f, k): K in [2, 50] scores of magnitude up to 1e4, and a class.

    The scores are scale * (center + unit) / 2 with center and the entries
    of unit in [-1, 1], so both tight clusters far from zero and spreads
    wide enough to overflow an unshifted exp come up.
    """
    num_classes = draw(st.integers(2, 50))
    scale = 10.0 ** draw(st.floats(0.0, 4.0))
    center = draw(st.floats(-1.0, 1.0))
    unit = draw(arrays(np.float64, num_classes, elements=st.floats(-1.0, 1.0)))
    return scale * 0.5 * (center + unit), draw(st.integers(0, num_classes - 1))


def float_slack(f):
    """Rounding allowance for a log-space sum over scores as large as |f|."""
    return 8 * np.finfo(np.float64).eps * max(1.0, float(np.max(np.abs(f))))


class TestExtremeMagnitudes:
    """The bound inequalities with scores up to 1e4 in magnitude, where an
    unshifted exp overflows and a log-space sum loses absolute precision."""

    @given(extreme_scores())
    def test_ove_lower_bounds_exact(self, case):
        f, k = case
        assert ove_log_bound(f, k) <= f[k] - log_sum_exp(f) + float_slack(f)

    @given(extreme_scores())
    def test_bouchard_at_optimal_alpha_lower_bounds_exact(self, case):
        f, k = case
        bound = bouchard_log_bound(f, k, optimize_alpha(f))
        assert bound <= f[k] - log_sum_exp(f) + float_slack(f)

    @given(extreme_scores(), st.data())
    def test_hierarchical_lower_bounds_exact(self, case, data):
        f, k = case
        rivals = data.draw(st.permutations([m for m in range(len(f)) if m != k]))
        cuts = data.draw(st.lists(st.booleans(), min_size=len(rivals) - 1,
                                  max_size=len(rivals) - 1))
        blocks, start = [], 0
        for i, cut in enumerate(cuts, start=1):
            if cut:
                blocks.append(tuple(rivals[start:i]))
                start = i
        blocks.append(tuple(rivals[start:]))
        part = LabelPartition(target=k, blocks=tuple(blocks))
        assert hierarchical_log_bound(f, part) <= f[k] - log_sum_exp(f) + float_slack(f)

    @given(extreme_scores(), st.one_of(st.none(), st.floats(-2.0, 2.0)))
    def test_lse_upper_dominates_lse(self, case, offset):
        # offset None takes the optimal alpha, else alpha = offset * max|f|
        f, _ = case
        if offset is None:
            alpha = optimize_alpha(f)
        else:
            alpha = offset * max(1.0, float(np.max(np.abs(f))))
        assert bouchard_lse_upper(f, alpha) >= log_sum_exp(f) - float_slack(f)


# The inline formulas that ``_log_sum_exp_rows`` and ``_softmax_rows``
# replaced, kept as oracles. Each runs under the rule that predict_proba_all
# already had: a score more than the float range below its row's top gives
# probability 0 without a warning.
def old_log_sum_exp_rows(f):
    """linear_model._row_lse and the start of optimize_alpha_batch."""
    with np.errstate(over="ignore"):
        m = f.max(axis=1)
        return m + np.log(np.exp(f - m[:, None]).sum(axis=1))


def old_log_sum_exp(f):
    """bounds.log_sum_exp on a vector with a finite max."""
    with np.errstate(over="ignore"):
        m = np.max(f)
        return m + np.log(np.sum(np.exp(f - m)))


def old_softmax_rows(f):
    """The exact branch of the former linear_model._coefficients."""
    with np.errstate(over="ignore"):
        shifted = np.exp(f - f.max(axis=1)[:, None])
        return shifted / shifted.sum(axis=1)[:, None]


def old_softmax(f):
    """bounds.softmax, the former one-instance probabilities of linear_model,
    nonparam._pad_result and ove_sgd_fit."""
    with np.errstate(over="ignore"):
        e = np.exp(f - f.max())
        return e / e.sum()


def old_softmax_in_place(e):
    """predict_proba_all, on its own score matrix."""
    top = e.max(axis=1)
    with np.errstate(over="ignore"):
        e -= top[:, None]
    e /= np.exp(e, out=e).sum(axis=1)[:, None]
    return e


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@st.composite
def score_rows(draw):
    """(N, K) scores, N in [1, 4] and K in [2, 50], scaled as in
    ``extreme_scores`` (|f| up to 1e4) with one center per row; in about
    half the draws one row also holds both 1e308 and -1e308, whose
    difference overflows."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(2, 50))
    scale = 10.0 ** draw(st.floats(0.0, 4.0))
    center = draw(arrays(np.float64, (n, 1), elements=st.floats(-1.0, 1.0)))
    unit = draw(arrays(np.float64, (n, k), elements=st.floats(-1.0, 1.0)))
    f = scale * 0.5 * (center + unit)
    if draw(st.booleans()):
        top, bottom = draw(st.permutations(range(k)))[:2]
        row = draw(st.integers(0, n - 1))
        f[row, top], f[row, bottom] = 1e308, -1e308
    return f


class TestNormalizerKernels:
    @given(score_rows())
    def test_match_the_formulas_they_replaced(self, f):
        assert same_bits(_log_sum_exp_rows(f), old_log_sum_exp_rows(f))
        assert same_bits(_softmax_rows(f), old_softmax_rows(f))
        e = f.copy()
        assert _softmax_rows(e, out=e) is e
        assert same_bits(e, old_softmax_in_place(f.copy()))
        for row in f:
            assert same_bits(_log_sum_exp_rows(row), old_log_sum_exp(row))
            assert same_bits(log_sum_exp(row), old_log_sum_exp(row))
            assert same_bits(_softmax_rows(row), old_softmax(row))
            assert same_bits(softmax(row), old_softmax(row))

    def test_row_whose_top_is_not_finite_is_nan_without_warning(self):
        f = np.array([[np.inf, 0.0], [-np.inf, -np.inf], [np.nan, 1.0], [1e308, -1e308]])
        p, lse = _softmax_rows(f), _log_sum_exp_rows(f)
        assert np.isnan(p[:3]).all() and np.array_equal(p[3], [1.0, 0.0])
        assert np.isnan(lse[:3]).all() and lse[3] == 1e308
