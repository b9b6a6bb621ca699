"""Categorical maximum likelihood through the softmax surrogates.

The model is a plain categorical distribution over K classes parameterized
by scores f (probabilities = softmax(f)). Given observed class counts
N_1..N_K, the exact MLE is p_k = N_k / N. The estimators here maximize,
instead of the exact log likelihood, the lower-bound surrogates from
:mod:`softmax_bounds.bounds`:

* ``ove_fit``      -- sum_k N_k * ove_log_bound(f, k), by L-BFGS on the SGD
                      step kernel, one block of classes at a time: no K x K
* ``bouchard_fit`` -- sum_k N_k * bouchard_log_bound(f, k, alpha), one
                      shared alpha; its joint maximizer in closed form
* ``ove_sgd_fit``  -- the OVE surrogate again, but optimized from a label
                      stream with doubly stochastic SGD: minibatches over
                      observations and a subsample of rival classes

Zero-count classes are excluded from fitting and reported with probability
exactly 0 and score -inf; no -inf arithmetic happens inside any optimizer.
All fitted scores are gauge-fixed to sum to zero over the active classes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from softmax_bounds.bounds import (
    ConvergenceError,
    _as_scores,
    _log_sigmoid_impl,
    _row_slices,
    _sigmoid_impl,
    _softmax_rows,
    _softplus_impl,
)
from softmax_bounds.config import ConfigError, NumericalError, OptimizerSettings, TrainConfig
from softmax_bounds.rng import substream

__all__ = [
    "CountVector",
    "EstimationResult",
    "exact_mle",
    "ove_objective",
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
        total = sum(arr.tolist())  # in Python ints: an int64 sum wraps silently
        if total < 1:
            raise ConfigError("at least one observation is required")
        if total > np.iinfo(np.int64).max:
            raise ConfigError(f"counts sum to {total}, which does not fit in int64")
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


def _count_fit(method: str, counts: CountVector, fit, alpha: float | None = None):
    """The ``EstimationResult`` of ``fit(c) -> (f, trace, alpha)`` run on the
    active (count > 0) counts c: scores gauge-fixed to sum to zero, padded
    with -inf / 0 for the excluded classes. With one active class a
    surrogate is maximized by pushing its score to +inf, so ``fit`` is not
    run and the degenerate exact answer (f = 0, value 0, ``alpha``) stands in.
    """
    active = np.flatnonzero(counts.counts > 0)
    f, trace = np.zeros(1), [(0, 0.0)]
    if active.size > 1:
        f, trace, alpha = fit(counts.counts[active])
    f = f - f.mean()
    k = counts.num_classes
    f_hat = np.full(k, -np.inf)
    f_hat[active] = f
    probs = np.zeros(k)
    probs[active] = _softmax_rows(f)
    return EstimationResult(
        method=method, f_hat=f_hat, probs=probs, objective_trace=trace, alpha=alpha
    )


def exact_mle(counts: CountVector) -> EstimationResult:
    """Closed-form categorical MLE: p_k = N_k / N.

    Scores are log counts, gauge-fixed to sum to zero over active classes;
    probabilities come out as the exact ratios (no round trip through exp).
    """
    def fit(c):
        return np.log(c), [(0, float(np.sum(c * np.log(c / counts.total))))], None

    result = _count_fit("exact", counts, fit)
    result.probs = counts.counts / counts.total
    return result


def _ove_terms(f: np.ndarray, c: np.ndarray) -> tuple[float, np.ndarray]:
    """(value, gradient) of ``ove_objective`` at finite scores f and float
    counts c: ``_ove_step`` on the rows (f_k, f_1 .. f_K), a block of classes
    k at a time. Each class is its own rival at score -inf, where sigmoid
    and log sigmoid are exactly 0, so the self pair adds nothing."""
    k = f.size
    value, grad = 0.0, np.zeros(k)
    for rows in _row_slices(k, k):
        own = np.arange(k)[rows]
        scores = np.column_stack((f[own], np.broadcast_to(f, (own.size, k))))
        scores[np.arange(own.size), own + 1] = -np.inf
        coeffs, rise = _ove_step(scores, 1.0)
        value += float(c[own] @ _log_sigmoid_impl(-rise).sum(axis=1))
        grad[own] += c[own] * coeffs[:, 0]
        grad += c[own] @ coeffs[:, 1:]
    return value, grad


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
    return _ove_terms(_as_scores(arr), counts.counts.astype(np.float64))[0]


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


_MEMORY = 10  # curvature pairs the L-BFGS two-loop recursion keeps
# ``_maximize`` gives up after this many iterations in a row that gain no
# more than float noise and leave the gradient inf-norm above half its best
_STALL = 50
_CONVERGED = "converged"


# the line search rejects a trial whose value is not finite or whose
# evaluation raises NumericalError, and a NaN gradient stops the fit
@np.errstate(over="ignore", invalid="ignore")
def _maximize(value_and_grad, x0, settings: OptimizerSettings):
    """Maximize a smooth concave function by L-BFGS (Liu & Nocedal, 1989);
    it lives here, not in ``trainer``, because ``estimate`` imports no scipy.

    The two-loop recursion runs over the last ``_MEMORY`` pairs (step s,
    gradient fall y) with s.y > 1e-12 y.y, from the inverse Hessian s.y / y.y
    of the newest; the first direction is g / max(1, |g|), and one that does
    not ascend is g. The unit step halves until Armijo's test holds or, as
    the gain near the optimum falls below float resolution, until the value
    is within a few ulps and the gradient norm does not grow. Returns
    (x, value, grad, trace [(iteration, value)], reason) at the last accepted
    iterate; reason is ``"converged"`` once the gradient inf-norm is at most
    ``settings.grad_tol`` and otherwise says why it stopped. NumericalError
    from the evaluation at ``x0`` propagates.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    val, grad = value_and_grad(x)
    trace, pairs = [(0, float(val))], deque(maxlen=_MEMORY)
    best, stall, gain, noise = np.inf, 0, np.inf, 0.0
    for it in range(1, settings.max_iter + 2):
        gmax = float(np.max(np.abs(grad)))
        stall = 0 if gain > noise or gmax <= 0.5 * best else stall + 1
        best = best if stall else min(best, gmax)
        reason = (_CONVERGED if gmax <= settings.grad_tol
                  else "gradient is NaN" if np.isnan(gmax)
                  else f"no progress in {_STALL} iterations" if stall == _STALL
                  else f"max_iter {settings.max_iter} spent" if it > settings.max_iter else None)
        if reason:
            return x, val, grad, trace, reason
        direction, alphas = grad.copy(), []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ direction))
            direction -= alphas[-1] * y
        direction *= gamma if pairs else 1.0 / max(1.0, float(np.linalg.norm(grad)))
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            direction += (a - rho * (y @ direction)) * s
        g2, slope = float(grad @ grad), float(grad @ direction)
        if not slope > 0:
            direction, slope = grad, g2
        noise, step = 4.0 * np.spacing(max(abs(val), 1.0)), 1.0
        while True:
            cand = x + step * direction
            try:
                cval, cgrad = value_and_grad(cand)
            except NumericalError:
                cval = np.nan
            if np.isfinite(cval) and (cval >= val + 1e-4 * step * slope or (
                    cval >= val - noise and float(cgrad @ cgrad) <= g2)):
                break
            step *= 0.5
            if step < 1e-18:
                return x, val, grad, trace, "line search step below 1e-18"
        s, y = cand - x, grad - cgrad
        sy, yy = float(s @ y), float(y @ y)
        if sy > 1e-12 * yy:
            pairs.append((s, y, 1.0 / sy))
            gamma = sy / yy
        gain, x, val, grad = cval - val, cand, float(cval), cgrad
        trace.append((it, val))


def _gated(result, settings: OptimizerSettings, what: str = ""):
    """(x, trace) of a ``_maximize`` result that met the gate, else ConvergenceError."""
    x, _, grad, trace, reason = result
    if reason != _CONVERGED:
        raise ConvergenceError(
            f"{what}gradient inf-norm {float(np.max(np.abs(grad))):.3e} > {settings.grad_tol:.1e} "
            f"after {len(trace) - 1} iterations ({reason})")
    return x, trace


def ove_fit(
    counts: CountVector, settings: OptimizerSettings = OptimizerSettings()
) -> EstimationResult:
    """Maximize the one-vs-each surrogate by L-BFGS (``_maximize``).

    Starts from f = 0 on the active (count > 0) classes. The surrogate is
    concave and shares its global maximizer with the exact likelihood
    (f = log counts + const), so the fitted probabilities reproduce
    N_k / N to optimizer tolerance. Raises ConvergenceError, with the stop
    reason, if the gradient inf-norm stays above ``settings.grad_tol``.
    """
    settings.validate()

    def fit(c):
        c = c.astype(np.float64)
        result = _maximize(lambda f: _ove_terms(f, c), np.zeros(c.size), settings)
        return (*_gated(result, settings), None)

    return _count_fit("ove", counts, fit)


def bouchard_fit(counts: CountVector) -> EstimationResult:
    """The maximizer of the shared-alpha variational bound, in closed form.

    G(f, alpha) is jointly concave, and it is stationary exactly where
    sigmoid(f_k - alpha) = N_k / N for every active class k. So f_k - alpha
    is the log odds L_k = log N_k - log(N - N_k), and the gauge sum f = 0
    gives f = L - mean(L) and alpha = -mean(L). The fitted probabilities are
    proportional to N_k / (N - N_k). Since x / (N - x) is convex, the fit
    systematically exaggerates the exact MLE: frequent classes gain mass,
    rare classes lose it (for K = 2 the fitted odds are the squared
    empirical odds). ``objective_trace`` is the one row (0, G at the
    maximizer), as for ``exact_mle``.
    """
    def fit(c):
        logit = np.log(c) - np.log(counts.total - c)
        alpha = -logit.mean()
        return logit, [(0, bouchard_objective(logit + alpha, alpha, CountVector(c)))], alpha

    return _count_fit("bouchard", counts, fit, alpha=0.0)


def sample_rival_classes(
    rng: np.random.Generator, labels: np.ndarray, num_classes: int, num_sampled: int
) -> np.ndarray:
    """Draw, per row, ``num_sampled`` distinct classes unequal to the label.

    Uniform over distinct subsets of the K-1 rivals. Returns an
    (len(labels), num_sampled) int array. Three regimes: the full
    complement needs no randomness; dense draws use per-row permutations;
    sparse draws use rejection on whole rows (redrawing a full row keeps
    the distribution uniform). A row is distinct with probability about
    exp(-S^2 / 2(K-1)), so draws are dense once that is below S / (K-1).
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
    if 3 * s >= k - 1 or s * s > 2 * (k - 1) * np.log((k - 1) / s):
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


def _chunks(labels: np.ndarray, num_classes: int, config: TrainConfig):
    """The schedule of both doubly stochastic loops: per chunk of at most
    ``max(1, _CHUNK // b) * b`` positions of an epoch's shuffle, yields
    (epoch, lr, chosen, classes), where row i of ``classes`` is label
    ``chosen[i]`` and then its rivals, drawn in one sampler call."""
    n = labels.size
    b = min(config.batch_size, n)
    chunk = max(1, _CHUNK // b) * b
    shuffle_rng = substream(config.seed, "shuffle")
    class_rng = substream(config.seed, "classes")
    for epoch in range(config.epochs):
        lr = config.lr0 * config.lr_decay**epoch
        order = shuffle_rng.permutation(n)
        for first in range(0, n, chunk):
            chosen = order[first : first + chunk]
            y = labels[chosen]
            rivals = sample_rival_classes(class_rng, y, num_classes, config.num_sampled)
            yield epoch, lr, chosen, np.column_stack((y, rivals))


def _ove_step(scores: np.ndarray, scale_factor: float) -> tuple[np.ndarray, np.ndarray]:
    """(coeffs, rise) of (label, rivals...) score rows: ``rise`` is each
    rival's score minus its label's, and row i of ``coeffs`` the gradient of
    ``scale_factor * sum(log sigmoid(-rise[i]))`` in that row's scores."""
    rise = scores[:, 1:] - scores[:, :1]
    # d/df_y sum log sigmoid(f_y - f_m) = sum sigma(f_m - f_y)
    sig = _sigmoid_impl(rise)
    coeffs = np.empty(scores.shape)
    coeffs[:, 0] = scale_factor * sig.sum(axis=1)
    coeffs[:, 1:] = -scale_factor * sig
    return coeffs, rise


def _bound_estimate(rise: np.ndarray, scale_factor: float) -> float:
    """A batch's mean sampled bound from its ``_ove_step`` rise rows."""
    return scale_factor * float(_log_sigmoid_impl(-rise).sum()) / len(rise)


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

    The steps follow ``_chunks``, the schedule ``trainer.train`` runs on,
    and take their gradient from ``_ove_step``, as ``train`` does. A step
    adds ``lr * coeffs`` to the scores of its own (label, rivals...) rows
    one entry at a time, the rule ``train`` applies to its biases, so it
    costs O(b * (S + 1)) whatever K is.

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

    b = min(config.batch_size, labels.size)
    scale = (k - 1) / config.num_sampled

    f = np.zeros(k)
    objective_trace: list[tuple[int, float]] = []
    error_trace: list[tuple[int, float]] | None = [] if ref_probs is not None else None

    def record(step: int) -> None:
        if error_trace is not None:
            error_trace.append((step, float(np.abs(_softmax_rows(f) - ref_probs).sum())))

    step = 0
    # an overflowing step makes f non-finite for good, which is reported
    # once below as NumericalError, not as a warning per operation
    with np.errstate(over="ignore", invalid="ignore"):
        for _, lr, _, classes in _chunks(labels, k, config):
            for start in range(0, classes.shape[0], b):
                rows = classes[start : start + b]
                coeffs, rise = _ove_step(f[rows], scale)
                step += 1
                log_now = step % config.log_every == 0 or step == 1
                if log_now:
                    # sampled estimate of the per-observation bound at the
                    # pre-update iterate, where the gradient was taken
                    objective_trace.append((step, _bound_estimate(rise, scale)))
                np.add.at(f, rows.ravel(), (lr * coeffs).ravel())
                if log_now:
                    record(step)
    if not np.isfinite(f).all():
        raise NumericalError("scores became non-finite; lower the learning rate")
    if step % config.log_every != 0 and step != 1:
        record(step)

    f -= f.mean()
    return EstimationResult(
        method="ove_sgd",
        f_hat=f,
        probs=_softmax_rows(f),
        objective_trace=objective_trace,
        error_trace=error_trace,
    )
