"""Categorical maximum likelihood through the softmax surrogates.

The model is a plain categorical distribution over K classes parameterized
by scores f (probabilities = softmax(f)). Given observed class counts
N_1..N_K, the exact MLE is p_k = N_k / N. The estimators here maximize,
instead of the exact log likelihood, the lower-bound surrogates from
:mod:`softmax_bounds.bounds`:

* ``ove_fit``      -- sum_k N_k * ove_log_bound(f, k), full-batch ascent
* ``bouchard_fit`` -- sum_k N_k * bouchard_log_bound(f, k, alpha), one
                      shared alpha, alternating exact alpha solves with
                      ascent steps on f
* ``ove_sgd_fit``  -- the OVE surrogate again, but optimized from a label
                      stream with doubly stochastic SGD: minibatches over
                      observations and a subsample of rival classes

Zero-count classes are excluded from fitting and reported with probability
exactly 0 and score -inf; no -inf arithmetic happens inside any optimizer.
All fitted scores are gauge-fixed to sum to zero over the active classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from softmax_bounds.bounds import (
    ConvergenceError,
    _log_sigmoid_impl,
    _sigmoid_impl,
    _softplus_impl,
    optimize_alpha,
)
from softmax_bounds.config import ConfigError, NumericalError, OptimizerSettings, TrainConfig
from softmax_bounds.rng import substream

__all__ = [
    "CountVector",
    "EstimationResult",
    "exact_mle",
    "ove_objective",
    "ove_objective_grad",
    "bouchard_objective",
    "ove_fit",
    "bouchard_fit",
    "ove_sgd_fit",
    "sample_rival_classes",
]

# instances whose rivals the doubly stochastic loops draw in one sampler call,
# rounded down to whole batches, never crossing an epoch: enough to amortize
# the sampler's fixed cost, few enough that a chunk's plan stays near 1 MB
_CHUNK = 1024


@dataclass(frozen=True)
class CountVector:
    """Observed counts per class: K >= 2 non-negative integers, N >= 1."""

    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if arr.ndim != 1:
            raise ConfigError(f"counts must be 1-D, got shape {arr.shape}")
        if arr.size < 2:
            raise ConfigError(f"need at least 2 classes, got {arr.size}")
        if not np.issubdtype(arr.dtype, np.integer):
            if not np.all(arr == np.floor(arr)):
                raise ConfigError("counts must be integers")
        arr = arr.astype(np.int64)
        if np.any(arr < 0):
            raise ConfigError("counts must be non-negative")
        if arr.sum() < 1:
            raise ConfigError("at least one observation is required")
        object.__setattr__(self, "counts", arr)

    @property
    def num_classes(self) -> int:
        return int(self.counts.size)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_labels(cls, labels, num_classes: int) -> "CountVector":
        labels = np.asarray(labels)
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise ConfigError("labels out of range")
        return cls(np.bincount(labels, minlength=num_classes))


@dataclass
class EstimationResult:
    """Outcome of one categorical fit.

    ``f_hat`` holds -inf for zero-count classes; ``probs`` is the exact
    softmax of the active scores padded with exact zeros, so it always sums
    to one. ``objective_trace`` is (iteration, objective value) pairs;
    ``error_trace`` is (step, L1 distance to the reference probabilities)
    and is only populated by the SGD fitter when a reference is supplied.
    ``alpha`` is the shared variational center (bouchard only).
    """

    method: str
    f_hat: np.ndarray
    probs: np.ndarray
    objective_trace: list[tuple[int, float]] = field(default_factory=list)
    alpha: float | None = None
    error_trace: list[tuple[int, float]] | None = None

    def to_json_dict(self) -> dict:
        f_list = [None if not np.isfinite(v) else float(v) for v in self.f_hat]
        out = {
            "method": self.method,
            "num_classes": int(self.probs.size),
            "f_hat": f_list,
            "probs": [float(p) for p in self.probs],
            "objective_trace": [[int(i), float(v)] for i, v in self.objective_trace],
        }
        if self.alpha is not None:
            out["alpha"] = float(self.alpha)
        if self.error_trace is not None:
            out["error_trace"] = [[int(i), float(v)] for i, v in self.error_trace]
        return out


def _pad_result(
    method: str,
    counts: CountVector,
    active: np.ndarray,
    f_active: np.ndarray,
    trace: list[tuple[int, float]],
    alpha: float | None = None,
) -> EstimationResult:
    """Gauge-fix active scores, pad with -inf / 0 for excluded classes."""
    f_active = f_active - f_active.mean()
    k = counts.num_classes
    f_hat = np.full(k, -np.inf)
    f_hat[active] = f_active
    probs = np.zeros(k)
    shifted = np.exp(f_active - f_active.max())
    probs[active] = shifted / shifted.sum()
    return EstimationResult(
        method=method, f_hat=f_hat, probs=probs, objective_trace=trace, alpha=alpha
    )


def exact_mle(counts: CountVector) -> EstimationResult:
    """Closed-form categorical MLE: p_k = N_k / N.

    Scores are log counts, gauge-fixed to sum to zero over active classes;
    probabilities come out as the exact ratios (no round trip through exp).
    """
    c = counts.counts
    active = np.flatnonzero(c > 0)
    f_active = np.log(c[active].astype(np.float64))
    f_active -= f_active.mean()
    k = counts.num_classes
    f_hat = np.full(k, -np.inf)
    f_hat[active] = f_active
    probs = np.zeros(k)
    probs[active] = c[active] / counts.total
    loglik = float(np.sum(c[active] * np.log(probs[active])))
    return EstimationResult(
        method="exact", f_hat=f_hat, probs=probs, objective_trace=[(0, loglik)]
    )


def ove_objective(f, counts: CountVector) -> float:
    """Count-weighted one-vs-each surrogate:

        F(f) = sum_k N_k sum_{m != k} log sigmoid(f_k - f_m)

    Requires finite f of length K matching the counts.
    """
    arr = np.asarray(f, dtype=np.float64)
    if arr.shape != (counts.num_classes,):
        raise ValueError(
            f"score shape {arr.shape} does not match {counts.num_classes} classes"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("scores must be finite")
    ls = _log_sigmoid_impl(arr[:, None] - arr[None, :])
    row_sums = ls.sum(axis=1) - np.diag(ls)
    return float(counts.counts @ row_sums)


def ove_objective_grad(f, counts: CountVector) -> np.ndarray:
    """Gradient of ``ove_objective``; entries sum to zero."""
    arr = np.asarray(f, dtype=np.float64)
    c = counts.counts.astype(np.float64)
    m = _sigmoid_impl(arr[:, None] - arr[None, :])  # m[j, k] = sigmoid(f_j - f_k)
    # d/df_j = N_j sum_{m != j} sigmoid(f_m - f_j) - sum_{k != j} N_k sigmoid(f_j - f_k);
    # the diagonal sigmoid(0) = 1/2 terms cancel between the two sums.
    return c * m.sum(axis=0) - m @ c


def bouchard_objective(f, alpha: float, counts: CountVector) -> float:
    """Count-weighted bound with one shared variational center:

        G(f, alpha) = sum_k N_k (f_k - alpha) - N sum_m softplus(f_m - alpha)
    """
    arr = np.asarray(f, dtype=np.float64)
    c = counts.counts.astype(np.float64)
    if arr.shape != c.shape:
        raise ValueError("shape mismatch")
    n = c.sum()
    return float(c @ (arr - alpha) - n * np.sum(_softplus_impl(arr - alpha)))


def _ascend(value_and_grad, x0, settings: OptimizerSettings):
    """Gradient ascent with Armijo backtracking and guarded step growth.

    Near the optimum the true per-step gain drops below the resolution of
    the objective value in float64, so two safeguards keep the iteration on
    the fixed-step contraction path instead of a step-doubling random walk:
    acceptance tolerates a few ulps of value noise, and the step only grows
    after a first-try acceptance whose gain was numerically meaningful.

    Returns (x, value, trace). Raises ConvergenceError when the gradient
    tolerance is not met within the iteration budget.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    val, grad = value_and_grad(x)
    trace = [(0, float(val))]
    step = settings.initial_step
    for it in range(1, settings.max_iter + 1):
        gmax = float(np.max(np.abs(grad)))
        if gmax <= settings.grad_tol:
            return x, float(val), trace
        g2 = float(grad @ grad)
        noise = 4.0 * np.spacing(max(abs(val), 1.0))
        halved = False
        while True:
            cand = x + step * grad
            cval, cgrad = value_and_grad(cand)
            if np.isfinite(cval):
                if cval >= val + 1e-4 * step * g2:
                    break
                # value gain below float resolution: accept only if the step
                # is contracting (gradient norm not growing), which rejects
                # neutral oscillation at the stability edge
                if cval >= val - noise and float(cgrad @ cgrad) <= g2:
                    break
            step *= 0.5
            halved = True
            if step < 1e-18:
                raise ConvergenceError(
                    f"line search stalled with gradient inf-norm {gmax:.3e} "
                    f"(tol {settings.grad_tol:.1e}) at iteration {it}"
                )
        if not halved and cval - val > 4.0 * noise:
            step *= 2.0
        x, val, grad = cand, float(cval), cgrad
        trace.append((it, val))
    raise ConvergenceError(
        f"gradient inf-norm {float(np.max(np.abs(grad))):.3e} > {settings.grad_tol:.1e} "
        f"after {settings.max_iter} iterations"
    )


def ove_fit(
    counts: CountVector, settings: OptimizerSettings = OptimizerSettings()
) -> EstimationResult:
    """Maximize the one-vs-each surrogate by full-batch gradient ascent.

    Starts from f = 0 on the active (count > 0) classes. The surrogate is
    concave and shares its global maximizer with the exact likelihood
    (f = log counts + const), so the fitted probabilities reproduce
    N_k / N to optimizer tolerance.
    """
    settings.validate()
    c = counts.counts
    active = np.flatnonzero(c > 0)
    sub = CountVector(c[active]) if active.size >= 2 else None
    if sub is None:
        # one active class: the surrogate is maximized by pushing its score
        # to +inf; report the degenerate exact answer instead
        return _pad_result("ove", counts, active, np.zeros(1), [(0, 0.0)])

    def vg(f):
        return ove_objective(f, sub), ove_objective_grad(f, sub)

    f, _, trace = _ascend(vg, np.zeros(active.size), settings=settings)
    return _pad_result("ove", counts, active, f, trace)


def bouchard_fit(
    counts: CountVector, settings: OptimizerSettings = OptimizerSettings()
) -> EstimationResult:
    """Maximize the shared-alpha variational bound.

    Alternates an exact solve for alpha (scalar monotone equation) with one
    backtracked ascent step on f. Both steps increase the objective, which
    is jointly concave, so the alternation converges to the joint optimum:
    sigmoid(f_k - alpha) = N_k / N, i.e. fitted probabilities proportional
    to N_k / (N - N_k). Since x / (N - x) is convex, the fit systematically
    exaggerates the exact MLE: frequent classes gain mass, rare classes
    lose it (for K = 2 the fitted odds are the squared empirical odds).
    """
    settings.validate()
    c_full = counts.counts
    active = np.flatnonzero(c_full > 0)
    if active.size < 2:
        return _pad_result(
            "bouchard", counts, active, np.zeros(1), [(0, 0.0)], alpha=0.0
        )
    sub = CountVector(c_full[active])
    c = sub.counts.astype(np.float64)
    n = c.sum()

    f = np.zeros(active.size)
    alpha = optimize_alpha(f)

    def value(fv, av):
        return bouchard_objective(fv, av, sub)

    def grad_f(fv, av):
        return c - n * _sigmoid_impl(fv - av)

    val = value(f, alpha)
    grad = grad_f(f, alpha)
    trace = [(0, float(val))]
    step = settings.initial_step
    converged = False
    for it in range(1, settings.max_iter + 1):
        if float(np.max(np.abs(grad))) <= settings.grad_tol:
            converged = True
            break
        g2 = float(grad @ grad)
        noise = 4.0 * np.spacing(max(abs(val), 1.0))
        halved = False
        while True:
            cand = f + step * grad
            cval = value(cand, alpha)
            if np.isfinite(cval):
                if cval >= val + 1e-4 * step * g2:
                    break
                cg = grad_f(cand, alpha)
                if cval >= val - noise and float(cg @ cg) <= g2:
                    break
            step *= 0.5
            halved = True
            if step < 1e-18:
                raise ConvergenceError(
                    f"line search stalled at iteration {it} with gradient "
                    f"inf-norm {float(np.max(np.abs(grad))):.3e}"
                )
        if not halved and cval - val > 4.0 * noise:
            step *= 2.0
        f = cand
        alpha = optimize_alpha(f)  # exact block step, can only raise the objective
        val = value(f, alpha)
        grad = grad_f(f, alpha)
        trace.append((it, float(val)))
    if not converged:
        raise ConvergenceError(
            f"bouchard fit: gradient inf-norm {float(np.max(np.abs(grad))):.3e} > "
            f"{settings.grad_tol:.1e} after {settings.max_iter} iterations"
        )
    # report alpha in the same gauge as the returned scores (sum f = 0)
    alpha_gauged = float(alpha - f.mean())
    return _pad_result("bouchard", counts, active, f, trace, alpha=alpha_gauged)


def sample_rival_classes(
    rng: np.random.Generator, labels: np.ndarray, num_classes: int, num_sampled: int
) -> np.ndarray:
    """Draw, per row, ``num_sampled`` distinct classes unequal to the label.

    Uniform over distinct subsets of the K-1 rivals. Returns an
    (len(labels), num_sampled) int array. Three regimes: the full
    complement needs no randomness; dense draws use per-row permutations;
    sparse draws use rejection on whole rows (redrawing a full row keeps
    the distribution uniform).
    """
    labels = np.asarray(labels)
    b = labels.size
    s = int(num_sampled)
    k = int(num_classes)
    if not 1 <= s <= k - 1:
        raise ConfigError(f"num_sampled must be in [1, {k - 1}], got {s}")
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
        # a row that passed keeps its draw, so each pass re-checks only the
        # rows it just redrew
        bad = np.arange(b)
        fresh = draw
        while True:
            ordered = np.sort(fresh, axis=1)
            bad = bad[(ordered[:, 1:] == ordered[:, :-1]).any(axis=1)]
            if bad.size == 0:
                break
            fresh = rng.integers(0, k - 1, size=(bad.size, s))
            fresh += fresh >= labels[bad, None]
            draw[bad] = fresh
    return draw


def ove_sgd_fit(
    labels,
    num_classes: int,
    config: TrainConfig,
    ref_probs: np.ndarray | None = None,
) -> EstimationResult:
    """Doubly stochastic ascent on the one-vs-each surrogate.

    Each step takes a minibatch of observed labels and, per observation,
    ``num_sampled`` rival classes; the sampled rival sum is rescaled by
    (K - 1) / S so the update is an unbiased estimate of the minibatch
    gradient. Learning rate is ``lr0 * lr_decay**epoch``; the label stream
    is reshuffled every epoch without replacement.

    One sampler call draws the rivals of a chunk of ``_CHUNK`` consecutive
    observations into (label, rivals...) rows; a step gathers and scatters
    the scores of its own rows only.

    ``objective_trace`` logs (step, mean per-observation sampled bound
    estimate) every ``log_every`` steps. When ``ref_probs`` is given,
    ``error_trace`` logs the L1 distance between softmax(f) and the
    reference at the same cadence, plus once at the end.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ConfigError("labels must be a non-empty 1-D array")
    k = int(num_classes)
    if k < 2:
        raise ConfigError("need at least 2 classes")
    if labels.min() < 0 or labels.max() >= k:
        raise ConfigError("labels out of range for num_classes")
    config.validate(num_classes=k)
    if ref_probs is not None:
        ref_probs = np.asarray(ref_probs, dtype=np.float64)
        if ref_probs.shape != (k,):
            raise ConfigError("ref_probs shape must be (num_classes,)")

    n = labels.size
    b = min(config.batch_size, n)
    chunk = max(1, _CHUNK // b) * b
    s = config.num_sampled
    scale = (k - 1) / s
    shuffle_rng = substream(config.seed, "shuffle")
    class_rng = substream(config.seed, "classes")

    f = np.zeros(k)
    objective_trace: list[tuple[int, float]] = []
    error_trace: list[tuple[int, float]] | None = [] if ref_probs is not None else None

    def record(step: int) -> None:
        if error_trace is not None:
            e = np.exp(f - f.max())
            l1 = float(np.abs(e / e.sum() - ref_probs).sum())
            error_trace.append((step, l1))

    step = 0
    # an overflowing step makes f non-finite for good, which is reported
    # once below as NumericalError, not as a warning per operation
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            lr = config.lr0 * config.lr_decay**epoch
            order = shuffle_rng.permutation(n)
            for first in range(0, n, chunk):
                chunk_labels = labels[order[first : first + chunk]]
                classes = np.column_stack(
                    (chunk_labels, sample_rival_classes(class_rng, chunk_labels, k, s))
                )
                for start in range(0, classes.shape[0], b):
                    rows = classes[start : start + b]
                    scores = f[rows]
                    # sigmoid(f_rival - f_label); the margins are its negated argument
                    sig = _sigmoid_impl(scores[:, 1:] - scores[:, :1])
                    coeffs = np.empty(rows.shape)
                    np.multiply(sig.sum(axis=1), scale, out=coeffs[:, 0])
                    np.multiply(sig, -scale, out=coeffs[:, 1:])
                    delta = np.bincount(rows.ravel(), weights=coeffs.ravel(), minlength=k)
                    step += 1
                    log_now = step % config.log_every == 0 or step == 1
                    if log_now:
                        # sampled estimate of the per-observation bound at the
                        # pre-update iterate, where the gradient was taken
                        margins = scores[:, :1] - scores[:, 1:]
                        est = float(np.mean(scale * _log_sigmoid_impl(margins).sum(axis=1)))
                        objective_trace.append((step, est))
                    f += lr * delta
                    if log_now:
                        record(step)
    if not np.isfinite(f).all():
        raise NumericalError("scores became non-finite; lower the learning rate")
    if step % config.log_every != 0 and step != 1:
        record(step)

    f -= f.mean()
    e = np.exp(f - f.max())
    probs = e / e.sum()
    return EstimationResult(
        method="ove_sgd",
        f_hat=f,
        probs=probs,
        objective_trace=objective_trace,
        error_trace=error_trace,
    )
