"""Release acceptance checks, one test per numbered criterion.

Each test prints a single ``ACCEPTANCE n: PASS`` line on success (run with
``pytest -s`` to see them on passing runs). The MNIST benchmark check
needs the four IDX files on local disk; point SOFTMAX_BOUNDS_MNIST at the
directory holding them (default: data/mnist under the repo root, .gz
accepted). When the files are absent that check prints a SKIP line and
skips instead of weakening the assertion.
"""

import gzip
import os
import struct
import time

import numpy as np
import pytest

from softmax_bounds.bounds import (
    LabelPartition,
    bouchard_log_bound,
    hierarchical_log_bound,
    log_sum_exp,
    optimize_alpha,
    ove_log_bound,
)
from softmax_bounds.config import OptimizerSettings, TrainConfig
from softmax_bounds.datasets import SparseDataset, gen_powerlaw_categorical
from softmax_bounds.linear_model import (
    KIND_BOUCHARD,
    KIND_EXACT,
    KIND_OVE,
    LinearModel,
    Objective,
    bouchard_loglik,
    exact_loglik,
    full_gradient,
    ove_loglik,
)
from softmax_bounds.metrics import error_rate, nlpd, param_norm, smooth_trace
from softmax_bounds.nonparam import (
    _CHUNK,
    CountVector,
    bouchard_fit,
    exact_mle,
    ove_fit,
    ove_sgd_fit,
    sample_rival_classes,
)
from softmax_bounds.rng import substream
from softmax_bounds.trainer import fit_full_batch, stochastic_gradient, train

from helpers import dense_dataset, gen_toy_5class, to_dense


def report(n: int, detail: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {detail}")


def report_skip(n: int, detail: str) -> None:
    print(f"ACCEPTANCE {n}: SKIP - {detail}")


def test_1_count_ratio_recovery():
    """The pairwise-sigmoid fit of free scores reproduces the exact MLE."""
    rng = substream(1, "acceptance")
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 51))
        counts = rng.integers(0, 40, size=k)
        if counts.sum() == 0:
            counts[int(rng.integers(0, k))] = 1
        result = ove_fit(CountVector(counts=counts))
        target = counts / counts.sum()
        worst = max(worst, float(np.abs(result.probs - target).max()))
        assert np.abs(result.probs - target).max() <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"50 fits recover counts/N, worst gap {worst:.2e}, {elapsed:.2f}s")


def test_2_two_class_overestimation():
    """The shared-center variational fit skews a (3,1) split to (0.9, 0.1)."""
    result = bouchard_fit(CountVector(counts=np.array([3, 1])))
    assert result.probs[0] == pytest.approx(0.9, abs=1e-4)
    assert result.probs[1] == pytest.approx(0.1, abs=1e-4)
    midpoint = float(result.f_hat.mean())
    assert result.alpha == pytest.approx(midpoint, abs=1e-6)
    exact = exact_mle(CountVector(counts=np.array([3, 1])))
    np.testing.assert_allclose(exact.probs, [0.75, 0.25], atol=1e-12)
    # the large probability is overestimated, the small one underestimated
    assert result.probs[0] > exact.probs[0]
    assert result.probs[1] < exact.probs[1]
    report(
        2,
        f"fit ({result.probs[0]:.4f}, {result.probs[1]:.4f}) vs exact (0.75, 0.25), "
        f"alpha-midpoint gap {abs(result.alpha - midpoint):.1e}",
    )


def test_3_bound_ordering_and_sgd_convergence():
    toy = gen_toy_5class(200, seed=7)
    zero = LinearModel.zeros(5, 2)
    fits = {}
    for name, kind in (("soft", KIND_EXACT), ("ove", KIND_OVE), ("bouchard", KIND_BOUCHARD)):
        fitted, rows = fit_full_batch(zero, toy, Objective(kind=kind, lam=1.0))
        fits[name] = (fitted, rows[-1][1])
    v_soft, v_ove, v_bouch = fits["soft"][1], fits["ove"][1], fits["bouchard"][1]
    assert v_soft > v_ove > v_bouch

    cfg = TrainConfig(batch_size=10, num_sampled=1, lr0=0.05, lr_decay=0.98,
                      epochs=400, lam=1.0, seed=19, log_every=1)
    fitted, trace = train(zero, toy, cfg)
    opt_model = fits["ove"][0]
    opt = ove_loglik(opt_model, toy, lam=1.0)
    val = ove_loglik(fitted, toy, lam=1.0)
    gap = abs(val - opt) / abs(opt)
    assert gap <= 0.02

    # the trace estimates the per-instance data term with S=1 sampling
    # noise, so hold its trailing window to the Monte Carlo resolution
    ests = np.array([r[1] for r in trace.rows])
    window = len(ests) // 4
    tail = ests[-window:]
    smoothed_tail = smooth_trace(ests, window=window)[-1]
    per_instance_opt = ove_loglik(opt_model, toy, lam=0.0) / len(toy)
    se = tail.std(ddof=1) / np.sqrt(window)
    assert abs(smoothed_tail - per_instance_opt) <= 3.5 * se

    xs = np.linspace(-5.0, 5.0, 41)
    grid = np.array([[x, y] for x in xs for y in xs])
    def grid_preds(m):
        return np.argmax(grid @ m.weights.T + m.biases, axis=1)
    agreement = float(np.mean(grid_preds(fitted) == grid_preds(opt_model)))
    assert agreement >= 0.98
    report(
        3,
        f"objectives {v_soft:.3f} > {v_ove:.3f} > {v_bouch:.3f}; sgd gap {gap:.2%}, "
        f"trace dev {abs(smoothed_tail - per_instance_opt) / se:.2f} se, "
        f"grid agreement {agreement:.2%}",
    )


def test_4_large_vocab_stream_estimation():
    k, n = 1000, 100_000
    labels, _ = gen_powerlaw_categorical(k, n, seed=104)
    reference = exact_mle(CountVector.from_labels(labels, k))
    cfg = TrainConfig(batch_size=100, num_sampled=10, lr0=0.005, lr_decay=0.9,
                      epochs=60, seed=104, log_every=100)
    t0 = time.perf_counter()
    result = ove_sgd_fit(labels, k, cfg, ref_probs=reference.probs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0

    l1 = np.array([v for _, v in result.error_trace])
    smoothed = smooth_trace(l1, window=20)[::10]
    drops = np.diff(smoothed)
    assert np.all(drops < 0.0)
    assert smoothed[-1] < 0.05
    assert l1[-1] < 0.05
    report(
        4,
        f"smoothed L1 falls {smoothed[0]:.3f} -> {smoothed[-1]:.3f} over "
        f"{len(smoothed)} points, raw final {l1[-1]:.4f}, {elapsed:.0f}s",
    )


_MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def _mnist_dir() -> str:
    default = os.path.join(os.path.dirname(os.path.dirname(__file__)), "data", "mnist")
    return os.environ.get("SOFTMAX_BOUNDS_MNIST", default)


def _find_mnist_file(directory: str, base: str):
    for name in (base, base + ".gz"):
        path = os.path.join(directory, name)
        if os.path.exists(path):
            return path
    return None


def _read_idx(path: str) -> np.ndarray:
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rb") as fh:
        magic = struct.unpack(">I", fh.read(4))[0]
        ndim = magic & 0xFF
        assert magic >> 8 == 0x08, f"{path}: not an unsigned-byte IDX file"
        shape = struct.unpack(f">{ndim}I", fh.read(4 * ndim))
        data = np.frombuffer(fh.read(), dtype=np.uint8)
    return data.reshape(shape)


def _mnist_split(directory: str, images_base: str, labels_base: str) -> SparseDataset:
    images = _read_idx(_find_mnist_file(directory, images_base))
    labels = _read_idx(_find_mnist_file(directory, labels_base))
    flat = images.reshape(len(images), -1).astype(np.float64) / 255.0
    return SparseDataset.from_dense(flat, labels, 10)


def test_5_mnist_benchmarks():
    """Digit benchmark scores for the exact fit and both bound surrogates.

    Preprocessing: raw pixel intensities divided by 255, zero pixels kept
    sparse, no other transform; lambda = 1 on weights.
    """
    directory = _mnist_dir()
    missing = [
        base for base in _MNIST_FILES.values()
        if _find_mnist_file(directory, base) is None
    ]
    if missing:
        detail = (
            f"MNIST IDX files not found in {directory!r} (missing {missing}); "
            "this sandbox has no network access, see README for placement"
        )
        report_skip(5, detail)
        pytest.skip(detail)

    train_set = _mnist_split(directory, _MNIST_FILES["train_images"], _MNIST_FILES["train_labels"])
    test_set = _mnist_split(directory, _MNIST_FILES["test_images"], _MNIST_FILES["test_labels"])
    zero = LinearModel.zeros(10, train_set.num_features)
    settings = OptimizerSettings(grad_tol=1e-4, max_iter=2000)
    models = {}
    for name, kind in (("soft", KIND_EXACT), ("ove", KIND_OVE), ("bouchard", KIND_BOUCHARD)):
        models[name], _ = fit_full_batch(
            zero, train_set, Objective(kind=kind, lam=1.0), settings=settings
        )

    from softmax_bounds.linear_model import predict_proba_all

    truth = test_set.labels()
    scores = {}
    for name, model in models.items():
        probs = predict_proba_all(model, test_set)
        scores[name] = (error_rate(np.argmax(probs, axis=1), truth), nlpd(probs, truth))

    assert scores["soft"][0] == pytest.approx(0.074, abs=0.01)
    assert scores["soft"][1] == pytest.approx(0.271, abs=0.05)
    assert scores["ove"][0] == pytest.approx(0.082, abs=0.01)
    assert scores["ove"][1] == pytest.approx(0.287, abs=0.05)
    norm_ove = param_norm(models["soft"], models["ove"])
    norm_bouchard = param_norm(models["soft"], models["bouchard"])
    assert norm_ove == pytest.approx(0.50, abs=0.15)
    assert norm_bouchard == pytest.approx(0.64, abs=0.15)
    assert norm_ove < norm_bouchard
    report(
        5,
        f"soft {scores['soft']}, ove {scores['ove']}, "
        f"norms ove {norm_ove:.3f} < bouchard {norm_bouchard:.3f}",
    )


def test_6_gradient_finite_difference_agreement():
    rng = substream(6, "acceptance")
    h = 1e-6
    worst = 0.0
    for trial in range(100):
        k = int(rng.integers(3, 6))
        d = int(rng.integers(2, 5))
        n = int(rng.integers(3, 7))
        data = dense_dataset(rng, n, k, d)
        model = LinearModel(
            weights=rng.normal(size=(k, d)) * 0.7, biases=rng.normal(size=k) * 0.5
        )
        lam = 0.0 if trial % 2 == 0 else 0.3
        alphas = rng.normal(size=n)
        objectives = [
            (Objective(kind=KIND_EXACT, lam=lam), lambda m: exact_loglik(m, data, lam)),
            (Objective(kind=KIND_OVE, lam=lam), lambda m: ove_loglik(m, data, lam)),
            (
                Objective(kind=KIND_BOUCHARD, lam=lam, per_instance_alpha=alphas),
                lambda m: bouchard_loglik(
                    m, data, Objective(kind=KIND_BOUCHARD, lam=lam, per_instance_alpha=alphas)
                ),
            ),
        ]
        def rebuild(flat):
            return LinearModel(
                weights=flat[: k * d].reshape(k, d), biases=flat[k * d :]
            )

        for objective, value in objectives:
            gw, gb = full_gradient(model, data, objective)
            analytic = np.concatenate([gw.ravel(), gb])
            flat = np.concatenate([model.weights.ravel(), model.biases])
            fd = np.empty_like(flat)
            for i in range(flat.size):
                up, down = flat.copy(), flat.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (value(rebuild(up)) - value(rebuild(down))) / (2 * h)
            rel = float(
                np.linalg.norm(fd - analytic) / max(np.linalg.norm(fd), 1e-12)
            )
            worst = max(worst, rel)
            assert rel <= 1e-5
    report(6, f"300 finite-difference checks, worst relative error {worst:.2e}")


def test_7_stochastic_gradient_unbiasedness():
    rng = substream(7, "acceptance")
    k, d, n = 6, 4, 5
    data = dense_dataset(rng, n, k, d)
    model = LinearModel(
        weights=rng.normal(size=(k, d)) * 0.4, biases=rng.normal(size=k) * 0.2
    )
    gw, gb = full_gradient(model, data, Objective(kind=KIND_OVE, lam=0.0))
    draw = substream(7, "draws")
    reps = 10_000
    acc_w, acc_b = np.zeros((k, d)), np.zeros(k)
    sq_w, sq_b = np.zeros((k, d)), np.zeros(k)
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
    dev_w = np.abs(mean_w - gw) / np.maximum(se_w, 1e-300)
    report(
        7,
        f"{reps} draws, max weight deviation "
        f"{float(dev_w[se_w > 0].max()):.2f} se over {k * d + k} coordinates",
    )


def _random_partition(rng, num_classes, target):
    rivals = np.array([m for m in range(num_classes) if m != target])
    rng.shuffle(rivals)
    num_blocks = int(rng.integers(1, len(rivals) + 1))
    cuts = []
    if num_blocks > 1:
        cuts = sorted(rng.choice(np.arange(1, len(rivals)), size=num_blocks - 1, replace=False))
    blocks, start = [], 0
    for cut in list(cuts) + [len(rivals)]:
        blocks.append(tuple(int(m) for m in rivals[start:cut]))
        start = cut
    return LabelPartition(target=target, blocks=tuple(blocks))


def test_8_bound_inequalities():
    rng = substream(8, "acceptance")
    for _ in range(1000):
        k = int(rng.integers(2, 13))
        f = rng.normal(size=k) * 3.0
        target = int(rng.integers(0, k))
        exact = float(f[target] - log_sum_exp(f))

        assert ove_log_bound(f, target) <= exact + 1e-12

        alpha = float(rng.normal() * 3.0)
        assert bouchard_log_bound(f, target, alpha) <= exact + 1e-12
        assert bouchard_log_bound(f, target, optimize_alpha(f)) <= exact + 1e-12

        partition = _random_partition(rng, k, target)
        before = hierarchical_log_bound(f, partition)
        assert before <= exact + 1e-12
        if len(partition.blocks) >= 2:
            pick = rng.choice(len(partition.blocks), size=2, replace=False)
            i, j = int(pick[0]), int(pick[1])
            merged_blocks = tuple(
                block for idx, block in enumerate(partition.blocks) if idx not in (i, j)
            ) + (partition.blocks[i] + partition.blocks[j],)
            merged = hierarchical_log_bound(
                f, LabelPartition(target=target, blocks=merged_blocks)
            )
            assert merged >= before - 1e-12

        total = sum(np.exp(ove_log_bound(f, m)) for m in range(k))
        assert total <= 1.0 + 1e-12
    report(8, "1000 randomized inequality and merge-monotonicity checks")


def _synthetic_extreme(num_classes, num_features, n):
    """Uniform labels, one 2-wide class indicator plus 8 noise features."""
    gen = substream(5, "synthetic-features")
    y = gen.integers(0, num_classes, size=n)
    noise_lo = 2 * num_classes
    noise_idx = gen.integers(noise_lo, num_features, size=(n, 8))
    while True:
        srt = np.sort(noise_idx, axis=1)
        bad = np.nonzero((np.diff(srt, axis=1) == 0).any(axis=1))[0]
        if bad.size == 0:
            break
        noise_idx[bad] = gen.integers(noise_lo, num_features, size=(bad.size, 8))
    noise_val = gen.normal(size=(n, 8))
    order = np.argsort(noise_idx, axis=1)
    indices = np.hstack(
        (2 * y[:, None], 2 * y[:, None] + 1, np.take_along_axis(noise_idx, order, axis=1))
    )
    values = np.hstack((np.ones((n, 2)), np.take_along_axis(noise_val, order, axis=1)))
    return SparseDataset(
        np.arange(0, 10 * n + 1, 10), indices.ravel(), values.ravel(), y,
        num_features, num_classes,
    )


@pytest.mark.slow
def test_9_extreme_scale_sparse_training():
    """Five epochs at 3000 classes x 50000 features stay sparse and improve.

    Every step may touch only the rows of the instance's label and its
    sampled rivals; the probe replays the shuffle and class-sampling
    streams independently, drawing each chunk's rivals in one sampler call
    as ``train`` does, and checks the touched set exactly.
    """
    k, d, n, s = 3000, 50_000, 100_000, 5
    data = _synthetic_extreme(k, d, n)
    labels = data.labels()

    shuffle_replay = substream(11, "shuffle")
    class_replay = substream(11, "classes")
    state = {"order": None, "rivals": None, "mismatches": 0, "max_touched": 0, "steps": 0}

    def probe(step, touched):
        i = step % n
        if i == 0:
            state["order"] = shuffle_replay.permutation(n)
        if i % _CHUNK == 0:  # at b = 1 a chunk is _CHUNK steps
            chunk_labels = labels[state["order"][i : i + _CHUNK]]
            state["rivals"] = sample_rival_classes(class_replay, chunk_labels, k, s)
        label = labels[state["order"][i]]
        rivals = state["rivals"][i % _CHUNK]
        expected = np.unique(np.concatenate(([label], rivals)))
        if not np.array_equal(np.sort(np.asarray(touched)), expected):
            state["mismatches"] += 1
        state["max_touched"] = max(state["max_touched"], len(touched))
        state["steps"] += 1

    cfg = TrainConfig(batch_size=1, num_sampled=s, lr0=3e-4, lr_decay=0.9,
                      epochs=5, lam=0.1, seed=11, log_every=250)
    fitted, trace = train(LinearModel.zeros(k, d), data, cfg, probe=probe)

    assert state["steps"] == 5 * n
    assert state["mismatches"] == 0
    assert state["max_touched"] <= 1 + s
    assert np.isfinite(fitted.weights).all()
    assert np.isfinite(fitted.biases).all()

    ests = np.array([r[1] for r in trace.rows])
    smoothed = smooth_trace(ests, window=800)
    final_epoch = smoothed[-(n // cfg.log_every):][::25]
    rises = np.diff(final_epoch)
    assert np.all(rises >= 0.0)
    report(
        9,
        f"{state['steps']} steps, touched <= {state['max_touched']} rows, "
        f"final-epoch smoothed trace monotone over {len(final_epoch)} points "
        f"(min rise {rises.min():.3f})",
    )
