"""Tests for categorical fitting through the exact and surrogate likelihoods.

The load-bearing facts checked here:

* the one-vs-each surrogate and the exact likelihood share the maximizer
  f = log counts + const, so surrogate fitting reproduces p_k = N_k / N;
* the surrogate decomposes into pairwise two-class likelihoods, each
  separately maximized at that same point;
* the shared-alpha variational fit lands on sigmoid(f_k - alpha) = N_k / N,
  i.e. probabilities proportional to N_k / (N - N_k);
* the doubly stochastic update is an unbiased estimate of the full-batch
  gradient and converges on a synthetic stream.
"""

import numpy as np
import pytest

from softmax_bounds import nonparam
from softmax_bounds.bounds import _log_sigmoid_impl, _sigmoid_impl
from softmax_bounds.config import ConfigError, OptimizerSettings, TrainConfig
from softmax_bounds.nonparam import (
    CountVector,
    bouchard_fit,
    bouchard_objective,
    exact_mle,
    ove_fit,
    ove_objective,
    ove_objective_grad,
    ove_sgd_fit,
    sample_rival_classes,
)
from softmax_bounds.rng import substream

from helpers import record_sampler_calls


def ove_objective_pairwise(f, counts: CountVector) -> float:
    """``ove_objective`` written as a sum of two-class likelihoods:

        F(f) = sum_{k > m} [ N_k log sigmoid(f_k - f_m)
                             + N_m log sigmoid(f_m - f_k) ]

    Each pairwise term is the exact log likelihood of a two-class Bradley-
    Terry model on the (N_k, N_m) sub-counts, which is why the global
    maximizer is f = log counts + const. Quadratic in K; the oracle that
    ``ove_objective`` must match.
    """
    arr = np.asarray(f, dtype=np.float64)
    c = counts.counts
    if arr.shape != c.shape:
        raise ValueError("shape mismatch")
    total = 0.0
    for k in range(arr.size):
        for m in range(k):
            z = float(arr[k] - arr[m])
            lsp = _log_sigmoid_impl(np.array([z, -z]))
            total += c[k] * lsp[0] + c[m] * lsp[1]
    return float(total)


class TestCountVector:
    def test_basic(self):
        c = CountVector(np.array([2, 3, 5]))
        assert c.num_classes == 3
        assert c.total == 10

    def test_from_labels(self):
        c = CountVector.from_labels([0, 2, 2, 1, 2], num_classes=4)
        np.testing.assert_array_equal(c.counts, [1, 1, 3, 0])

    def test_validation(self):
        with pytest.raises(ValueError):
            CountVector(np.array([5]))  # K < 2
        with pytest.raises(ValueError):
            CountVector(np.array([1, -1]))
        with pytest.raises(ValueError):
            CountVector(np.array([0, 0]))
        with pytest.raises(ValueError):
            CountVector(np.array([1.5, 2.5]))
        with pytest.raises(ConfigError):
            CountVector.from_labels([0, 3], num_classes=3)


class TestExactMle:
    def test_simple_ratios(self):
        res = exact_mle(CountVector(np.array([2, 3, 5])))
        np.testing.assert_array_equal(res.probs, [0.2, 0.3, 0.5])
        assert res.method == "exact"

    def test_zero_counts_excluded(self):
        res = exact_mle(CountVector(np.array([0, 3, 1])))
        np.testing.assert_array_equal(res.probs, [0.0, 0.75, 0.25])
        assert res.f_hat[0] == -np.inf
        assert np.isfinite(res.f_hat[1:]).all()

    def test_gauge(self):
        res = exact_mle(CountVector(np.array([1, 2, 3, 4])))
        assert res.f_hat.sum() == pytest.approx(0.0, abs=1e-12)

    def test_loglik_trace(self):
        res = exact_mle(CountVector(np.array([2, 2])))
        # 2 log .5 + 2 log .5 = -4 log 2
        assert res.objective_trace == [(0, pytest.approx(-4 * np.log(2)))]

    def test_json_round_trip_types(self):
        import json

        res = exact_mle(CountVector(np.array([0, 3, 1])))
        blob = json.dumps(res.to_json_dict(), allow_nan=False)
        back = json.loads(blob)
        assert back["f_hat"][0] is None
        assert back["probs"][0] == 0.0


class TestOveObjective:
    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            k = int(rng.integers(2, 20))
            counts = CountVector(rng.integers(0, 30, size=k) + (rng.integers(2) == 0))
            if counts.counts.sum() < 1:
                continue
            f = rng.normal(scale=2.0, size=k)
            assert ove_objective(f, counts) == pytest.approx(
                ove_objective_pairwise(f, counts), rel=1e-12
            )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            k = int(rng.integers(2, 12))
            counts = CountVector(rng.integers(1, 20, size=k))
            f = rng.normal(scale=1.5, size=k)
            g = ove_objective_grad(f, counts)
            h = 1e-6
            for j in range(k):
                e = np.zeros(k)
                e[j] = h
                fd = (ove_objective(f + e, counts) - ove_objective(f - e, counts)) / (
                    2 * h
                )
                assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-5)

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(43)
        counts = CountVector(rng.integers(1, 50, size=15))
        f = rng.normal(size=15)
        assert ove_objective_grad(f, counts).sum() == pytest.approx(0.0, abs=1e-9)

    def test_concave_along_random_lines(self):
        rng = np.random.default_rng(44)
        counts = CountVector(rng.integers(1, 20, size=8))
        for _ in range(200):
            f = rng.normal(scale=2.0, size=8)
            d = rng.normal(size=8)
            t = rng.uniform(0.1, 2.0)
            mid = ove_objective(f, counts)
            lo = ove_objective(f - t * d, counts)
            hi = ove_objective(f + t * d, counts)
            assert mid >= 0.5 * (lo + hi) - 1e-9


class TestOveFit:
    def test_recovers_exact_mle(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            k = int(rng.integers(2, 25))
            counts = CountVector(rng.integers(1, 25, size=k))
            res = ove_fit(counts)
            np.testing.assert_allclose(
                res.probs, counts.counts / counts.total, atol=1e-7
            )

    def test_optimum_is_log_counts(self):
        counts = CountVector(np.array([2, 5, 13]))
        res = ove_fit(counts)
        expected = np.log(counts.counts.astype(float))
        expected -= expected.mean()
        np.testing.assert_allclose(res.f_hat, expected, atol=1e-7)

    def test_stationarity_identity(self):
        # at the optimum: sum_{m != k} (N_k + N_m)/N_k * sigmoid(f_k - f_m) = K - 1
        counts = CountVector(np.array([3, 7, 11, 2]))
        res = ove_fit(counts)
        f = res.f_hat
        c = counts.counts.astype(float)
        for k in range(4):
            lhs = sum(
                (c[k] + c[m]) / c[k] / (1.0 + np.exp(f[m] - f[k]))
                for m in range(4)
                if m != k
            )
            assert lhs == pytest.approx(3.0, abs=1e-6)

    def test_pairwise_terms_separately_maximized(self):
        # perturbing any single pair away from the solution never increases
        # that pair's two-class likelihood term
        rng = np.random.default_rng(46)
        counts = CountVector(np.array([4, 9, 1, 6]))
        c = counts.counts.astype(float)
        f_star = np.log(c)

        def pair_term(fk, fm, nk, nm):
            z = fk - fm
            return nk * -np.log1p(np.exp(-z)) + nm * -np.log1p(np.exp(z))

        for _ in range(300):
            k, m = rng.choice(4, size=2, replace=False)
            dk, dm = rng.normal(scale=1.0, size=2)
            base = pair_term(f_star[k], f_star[m], c[k], c[m])
            pert = pair_term(f_star[k] + dk, f_star[m] + dm, c[k], c[m])
            assert pert <= base + 1e-12

    def test_objective_trace_nondecreasing(self):
        counts = CountVector(np.array([1, 10, 100]))
        res = ove_fit(counts)
        vals = [v for _, v in res.objective_trace]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_zero_counts_excluded(self):
        res = ove_fit(CountVector(np.array([3, 0, 1])))
        assert res.probs[1] == 0.0
        assert res.f_hat[1] == -np.inf
        np.testing.assert_allclose(res.probs[[0, 2]], [0.75, 0.25], atol=1e-7)

    def test_surrogate_below_exact_loglik(self):
        counts = CountVector(np.array([5, 2, 9, 4]))
        ove_res = ove_fit(counts)
        exact_res = exact_mle(counts)
        ove_val = ove_res.objective_trace[-1][1]
        exact_val = exact_res.objective_trace[-1][1]
        assert ove_val <= exact_val + 1e-9

    def test_unreachable_tolerance_raises(self):
        from softmax_bounds.bounds import ConvergenceError

        with pytest.raises(ConvergenceError):
            ove_fit(
                CountVector(np.array([2, 3])),
                OptimizerSettings(grad_tol=1e-8, max_iter=3),
            )


class TestBouchardFit:
    def test_two_class_squared_ratios(self):
        # counts (3,1): fitted probabilities (9, 1)/10, alpha at the midpoint
        res = bouchard_fit(CountVector(np.array([3, 1])))
        np.testing.assert_allclose(res.probs, [0.9, 0.1], atol=1e-6)
        assert res.alpha == pytest.approx(0.5 * (res.f_hat[0] + res.f_hat[1]), abs=1e-8)

    def test_balanced_two_class(self):
        res = bouchard_fit(CountVector(np.array([1, 1])))
        np.testing.assert_allclose(res.probs, [0.5, 0.5], atol=1e-8)
        # symmetric counts: alpha coincides with both scores
        assert res.alpha == pytest.approx(res.f_hat[0], abs=1e-8)

    def test_stationarity_flattened_ratios(self):
        # optimum solves sigmoid(f_k - alpha) = N_k / N, so probabilities are
        # proportional to N_k / (N - N_k)
        counts = CountVector(np.array([1, 2, 3, 4]))
        res = bouchard_fit(counts)
        c = counts.counts.astype(float)
        sig = 1.0 / (1.0 + np.exp(-(res.f_hat - res.alpha)))
        np.testing.assert_allclose(sig, c / c.sum(), atol=1e-8)
        raw = c / (c.sum() - c)
        np.testing.assert_allclose(res.probs, raw / raw.sum(), atol=1e-7)

    def test_sharpening_direction(self):
        # fitted odds are the squared empirical odds for K = 2, so the fit
        # exaggerates the exact MLE: p_hat = (1, 81)/82 against (0.1, 0.9)
        counts = CountVector(np.array([1, 9]))
        res = bouchard_fit(counts)
        assert res.probs[0] == pytest.approx(1 / 82, abs=1e-6)
        assert res.probs[1] == pytest.approx(81 / 82, abs=1e-6)

    def test_objective_trace_nondecreasing(self):
        res = bouchard_fit(CountVector(np.array([2, 7, 4])))
        vals = [v for _, v in res.objective_trace]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_bound_ordering_at_optima(self):
        # surrogate values at each method's own optimum are ordered:
        # bouchard <= ove <= exact log likelihood
        for counts in ([3, 1], [2, 3, 5], [1, 1, 8, 4], [10, 20, 30]):
            cv = CountVector(np.array(counts))
            b = bouchard_fit(cv).objective_trace[-1][1]
            o = ove_fit(cv).objective_trace[-1][1]
            e = exact_mle(cv).objective_trace[-1][1]
            assert b <= o + 1e-9
            assert o <= e + 1e-9

    def test_zero_counts_excluded(self):
        res = bouchard_fit(CountVector(np.array([0, 3, 1])))
        assert res.probs[0] == 0.0
        np.testing.assert_allclose(res.probs[1:], [0.9, 0.1], atol=1e-6)

    def test_objective_gradient_at_fit(self):
        counts = CountVector(np.array([5, 3, 8]))
        res = bouchard_fit(counts)
        f, a = res.f_hat, res.alpha
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (
                bouchard_objective(f + e, a, counts)
                - bouchard_objective(f - e, a, counts)
            ) / (2 * h)
            assert fd == pytest.approx(0.0, abs=1e-4)


def _sample_rival_classes_rechecking_all(rng, labels, num_classes, num_sampled):
    """The rival sampler as it was before its rejection loop re-checked
    only the redrawn rows: every pass sorts and tests the whole draw."""
    labels = np.asarray(labels)
    b, s, k = labels.size, int(num_sampled), int(num_classes)
    if s == k - 1:
        grid = np.broadcast_to(np.arange(k), (b, k))
        return grid[grid != labels[:, None]].reshape(b, s)
    if 3 * s >= k - 1:
        base = np.broadcast_to(np.arange(k - 1), (b, k - 1)).copy()
        perm = rng.permuted(base, axis=1)[:, :s]
        return perm + (perm >= labels[:, None])
    draw = rng.integers(0, k - 1, size=(b, s))
    draw += draw >= labels[:, None]
    if s > 1:
        while True:
            ordered = np.sort(draw, axis=1)
            bad = np.flatnonzero((np.diff(ordered, axis=1) == 0).any(axis=1))
            if bad.size == 0:
                break
            redraw = rng.integers(0, k - 1, size=(bad.size, s))
            redraw += redraw >= labels[bad, None]
            draw[bad] = redraw
    return draw


class TestRivalSampling:
    @pytest.mark.parametrize(
        "k, s, b",
        [(3000, 5, 1), (3000, 5, 100), (1000, 10, 100), (40, 12, 50), (10, 2, 30),
         (30, 10, 20), (6, 5, 4)],
    )
    def test_matches_full_recheck_oracle(self, k, s, b):
        # same draws from the same generator calls, so the stream after the
        # call is the same too
        for seed in range(5):
            labels = np.random.default_rng([seed, k]).integers(0, k, size=b)
            got_rng = np.random.default_rng([seed, k, s, b])
            want_rng = np.random.default_rng([seed, k, s, b])
            for _ in range(3):
                got = sample_rival_classes(got_rng, labels, k, s)
                want = _sample_rival_classes_rechecking_all(want_rng, labels, k, s)
                assert np.array_equal(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_excludes_label_and_distinct(self):
        rng = substream(0, "t1")
        labels = np.array([0, 3, 7, 7, 2])
        for s in (1, 3, 7, 9):
            draw = sample_rival_classes(rng, labels, 10, s)
            assert draw.shape == (5, s)
            for i, y in enumerate(labels):
                row = draw[i]
                assert y not in row
                assert len(set(row.tolist())) == s

    def test_full_complement(self):
        rng = substream(0, "t2")
        draw = sample_rival_classes(rng, np.array([1, 0]), 2, 1)
        np.testing.assert_array_equal(draw, [[0], [1]])

    def test_two_classes_forced(self):
        # one row at a time: with K = 2 the only rival is forced
        rng = substream(0, "sr")
        assert sample_rival_classes(rng, np.array([0]), 2, 1).tolist() == [[1]]
        assert sample_rival_classes(rng, np.array([1]), 2, 1).tolist() == [[0]]

    def test_uniform_inclusion_one_row(self):
        # one row per call (b = 1), as the trainer draws at batch size 1
        rng = substream(2, "sr")
        draws = 100_000
        k, s, label = 10, 3, 7
        hits = np.zeros(k)
        for _ in range(draws):
            hits[sample_rival_classes(rng, np.array([label]), k, s)[0]] += 1
        assert hits[label] == 0
        p = s / (k - 1)
        sigma = np.sqrt(draws * p * (1 - p))
        others = np.delete(hits, label)
        assert np.all(np.abs(others - draws * p) < 3.5 * sigma)

    def test_inclusion_uniform(self):
        # every rival appears with frequency S/(K-1) within 3 standard errors
        rng = substream(7, "t3")
        k, s, reps = 12, 4, 4000
        labels = np.full(reps, 5)
        draw = sample_rival_classes(rng, labels, k, s)
        p = s / (k - 1)
        se = np.sqrt(p * (1 - p) / reps)
        for m in range(k):
            if m == 5:
                continue
            freq = np.mean((draw == m).any(axis=1))
            assert abs(freq - p) <= 3.5 * se

    def test_inclusion_uniform_rejection_regime(self):
        # sparse draw path (3s < K-1) gets the same guarantee
        rng = substream(8, "t4")
        k, s, reps = 40, 3, 6000
        labels = np.full(reps, 0)
        draw = sample_rival_classes(rng, labels, k, s)
        p = s / (k - 1)
        se = np.sqrt(p * (1 - p) / reps)
        for m in range(1, k):
            freq = np.mean((draw == m).any(axis=1))
            assert abs(freq - p) <= 3.5 * se

    def test_bad_s_rejected(self):
        rng = substream(0, "t5")
        with pytest.raises(ConfigError):
            sample_rival_classes(rng, np.array([0]), 5, 5)
        with pytest.raises(ConfigError):
            sample_rival_classes(rng, np.array([0]), 5, 0)


def reference_ove_sgd_fit(labels, num_classes, config, ref_probs):
    """``ove_sgd_fit`` with the per-step arithmetic it had before its steps
    worked on one (label, rivals) class array: two gathers and two
    bincounts. The rivals come from the public sampler, one call per chunk
    of ``nonparam._CHUNK`` observations rounded down to whole batches.
    Returns (f_hat, objective_trace, error_trace)."""
    k, n = num_classes, labels.size
    b = min(config.batch_size, n)
    chunk = max(1, nonparam._CHUNK // b) * b
    s = config.num_sampled
    scale = (k - 1) / s
    shuffle_rng = substream(config.seed, "shuffle")
    class_rng = substream(config.seed, "classes")
    f = np.zeros(k)
    objective_trace, error_trace = [], []

    def record(step):
        e = np.exp(f - f.max())
        error_trace.append((step, float(np.abs(e / e.sum() - ref_probs).sum())))

    step = 0
    for epoch in range(config.epochs):
        lr = config.lr0 * config.lr_decay**epoch
        order = shuffle_rng.permutation(n)
        for start in range(0, n, b):
            if start % chunk == 0:
                chunk_rivals = sample_rival_classes(
                    class_rng, labels[order[start : start + chunk]], k, s
                )
            batch = labels[order[start : start + b]]
            rivals = chunk_rivals[start % chunk : start % chunk + b]
            diff = f[batch][:, None] - f[rivals]
            sig = _sigmoid_impl(-diff)
            delta = np.bincount(batch, weights=scale * sig.sum(axis=1), minlength=k)
            delta -= np.bincount(rivals.ravel(), weights=scale * sig.ravel(), minlength=k)
            step += 1
            log_now = step % config.log_every == 0 or step == 1
            if log_now:
                est = float(np.mean(scale * _log_sigmoid_impl(diff).sum(axis=1)))
                objective_trace.append((step, est))
            f += lr * delta
            if log_now:
                record(step)
    if step % config.log_every != 0 and step != 1:
        record(step)
    return f - f.mean(), objective_trace, error_trace


class TestOveSgdChunkedDraws:
    """``ove_sgd_fit`` draws a chunk's rivals at once and steps on its class array."""

    @pytest.mark.parametrize(
        "batch_size, k, s, chunk",
        [(1, 50, 5, None), (7, 50, 5, None), (100, 50, 5, None), (7, 8, 3, None),
         (3, 50, 5, 10), (1, 50, 5, 10)],
    )
    def test_matches_two_bincount_oracle(self, batch_size, k, s, chunk, monkeypatch):
        # 2503 observations leave a partial last batch at b = 7 and b = 100
        # and a partial last chunk; K = 8 with S = 3 takes the sampler's
        # permutation branch, K = 50 with S = 5 its rejection branch
        if chunk is not None:
            monkeypatch.setattr(nonparam, "_CHUNK", chunk)
        labels = substream(12, "labels").integers(0, k, size=2503)
        ref = np.bincount(labels, minlength=k) / labels.size
        cfg = TrainConfig(batch_size=batch_size, num_sampled=s, lr0=0.01, lr_decay=0.9,
                          epochs=2, seed=batch_size, log_every=13)
        got = ove_sgd_fit(labels, k, cfg, ref_probs=ref)
        f, objective_trace, error_trace = reference_ove_sgd_fit(labels, k, cfg, ref)
        np.testing.assert_allclose(got.f_hat, f, rtol=1e-12)
        for got_rows, want_rows in ((got.objective_trace, objective_trace),
                                    (got.error_trace, error_trace)):
            assert [i for i, _ in got_rows] == [i for i, _ in want_rows]
            np.testing.assert_allclose([v for _, v in got_rows], [v for _, v in want_rows],
                                       rtol=1e-12)

    def test_one_sampler_call_per_chunk(self, monkeypatch):
        # at b = 100 a chunk is 1000 observations, so 2500 are two whole
        # chunks and a partial one per epoch
        calls = record_sampler_calls(monkeypatch, nonparam)
        labels = substream(13, "labels").integers(0, 50, size=2500)
        cfg = TrainConfig(batch_size=100, num_sampled=5, lr0=0.01, epochs=2, seed=1)
        ove_sgd_fit(labels, 50, cfg)
        assert calls == 2 * [1000, 1000, 500]


class TestOveSgdFit:
    def test_deterministic(self):
        rng = substream(3, "labels")
        labels = rng.integers(0, 10, size=2000)
        cfg = TrainConfig(batch_size=50, num_sampled=3, lr0=0.01, epochs=3, seed=9)
        a = ove_sgd_fit(labels, 10, cfg)
        b = ove_sgd_fit(labels, 10, cfg)
        np.testing.assert_array_equal(a.f_hat, b.f_hat)
        assert a.objective_trace == b.objective_trace

    def test_seed_changes_path(self):
        rng = substream(3, "labels")
        labels = rng.integers(0, 10, size=2000)
        cfg1 = TrainConfig(batch_size=50, num_sampled=3, lr0=0.01, epochs=1, seed=1)
        cfg2 = TrainConfig(batch_size=50, num_sampled=3, lr0=0.01, epochs=1, seed=2)
        a = ove_sgd_fit(labels, 10, cfg1)
        b = ove_sgd_fit(labels, 10, cfg2)
        assert not np.array_equal(a.f_hat, b.f_hat)

    def test_sampled_update_unbiased(self):
        # mean sampled delta over many draws matches the full-rival delta
        # within three standard errors per coordinate
        rng = np.random.default_rng(51)
        k, s = 12, 4
        f = rng.normal(scale=1.5, size=k)
        y = 3
        scale = (k - 1) / s

        def full_delta():
            d = np.zeros(k)
            for m in range(k):
                if m == y:
                    continue
                w = 1.0 / (1.0 + np.exp(f[y] - f[m]))  # sigmoid(f_m - f_y)
                d[y] += w
                d[m] -= w
            return d

        exact = full_delta()
        reps = 20000
        srng = substream(42, "unbiased")
        draws = sample_rival_classes(srng, np.full(reps, y), k, s)
        w = 1.0 / (1.0 + np.exp(f[y] - f[draws]))
        samples = np.zeros((reps, k))
        samples[:, y] = scale * w.sum(axis=1)
        np.subtract.at(
            samples, (np.repeat(np.arange(reps), s), draws.ravel()), scale * w.ravel()
        )
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(reps)
        for j in range(k):
            if se[j] == 0:
                assert mean[j] == pytest.approx(exact[j], abs=1e-12)
            else:
                assert abs(mean[j] - exact[j]) <= 3.5 * se[j]

    def test_converges_to_reference(self):
        gen = substream(11, "datagen")
        k, n = 20, 40000
        u = gen.uniform(size=k)
        p = u**2 / (u**2).sum()
        labels = gen.choice(k, size=n, p=p)
        ref = np.bincount(labels, minlength=k) / n
        cfg = TrainConfig(
            batch_size=100, num_sampled=5, lr0=0.005, lr_decay=0.95, epochs=40, seed=5,
            log_every=50,
        )
        res = ove_sgd_fit(labels, k, cfg, ref_probs=ref)
        assert res.error_trace is not None
        final_l1 = res.error_trace[-1][1]
        assert final_l1 < 0.05
        # error should have dropped substantially from the start
        assert final_l1 < 0.3 * res.error_trace[0][1]

    def test_validation(self):
        with pytest.raises(ConfigError):
            ove_sgd_fit(np.array([0, 1]), 2, TrainConfig(num_sampled=5))
        with pytest.raises(ConfigError):
            ove_sgd_fit(np.array([0, 5]), 3, TrainConfig())
        with pytest.raises(ConfigError):
            ove_sgd_fit(np.array([]), 3, TrainConfig())
        with pytest.raises(ConfigError):
            ove_sgd_fit(np.array([0, 1]), 3, TrainConfig(lr0=2.0, lam=1.0))
