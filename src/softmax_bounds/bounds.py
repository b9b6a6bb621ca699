"""Numerically stable kernels for softmax probabilities and their bounds.

Everything here works in log space. The module deliberately contains no
optimization state: every function is a pure map from a score vector to a
scalar (or from a batch of score vectors to a vector), so the estimators and
trainers built on top can be tested against these as ground truth.

Conventions:

* a *score vector* ``f`` is a 1-D float array of length K >= 2 with finite
  entries;
* class indices are 0-based everywhere inside the library (file formats and
  the CLI translate from 1-based labels at the boundary);
* "log bound" means a lower bound on ``log p(y = k | f)`` where ``p`` is the
  softmax likelihood.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "LabelPartition",
    "sigmoid",
    "log_sigmoid",
    "softplus",
    "log_sum_exp",
    "softmax",
    "softmax_prob",
    "ove_log_bound",
    "ove_log_bound_all",
    "hierarchical_log_bound",
    "bouchard_lse_upper",
    "bouchard_log_bound",
    "optimize_alpha",
    "optimize_alpha_batch",
]

# Tolerance on |sum_m sigmoid(f_m - alpha) - 1| at the returned alpha.
ALPHA_TOL = 1e-10
ALPHA_MAX_ITER = 200


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its tolerance within its budget."""


def _as_scores(f) -> np.ndarray:
    """Validate and convert a score vector to a float64 array."""
    arr = np.asarray(f, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"score vector must be 1-D, got shape {arr.shape}")
    if arr.size < 2:
        raise ValueError(f"score vector needs at least 2 classes, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("score vector contains non-finite entries")
    return arr


def _check_class(k, num_classes: int) -> int:
    k = operator.index(k)
    if not 0 <= k < num_classes:
        raise IndexError(f"class index {k} out of range for {num_classes} classes")
    return k


def _shape_preserving(func):
    """Wrap an elementwise kernel so scalars map to Python floats."""

    def wrapped(z):
        arr = np.asarray(z, dtype=np.float64)
        out = func(np.atleast_1d(arr))
        if arr.ndim == 0:
            return float(out[0])
        return out.reshape(arr.shape)

    wrapped.__name__ = func.__name__
    return wrapped


def _sigmoid_impl(z: np.ndarray) -> np.ndarray:
    # exp only sees -|z|, so it never overflows: 1 / (1 + e^-z) for z >= 0
    # and e^z / (1 + e^z) below; in place where it can be, since callers
    # pass whole score matrices
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _log_sigmoid_impl(z: np.ndarray) -> np.ndarray:
    t = np.log1p(np.exp(-np.abs(z)))
    return np.subtract(np.minimum(z, 0.0), t, out=t)


def _softplus_impl(z: np.ndarray) -> np.ndarray:
    # max(z, 0) + log1p(exp(-|z|)) without intermediate overflow
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


sigmoid = _shape_preserving(_sigmoid_impl)
log_sigmoid = _shape_preserving(_log_sigmoid_impl)
softplus = _shape_preserving(_softplus_impl)

sigmoid.__doc__ = "Logistic function 1 / (1 + exp(-z)), stable for any magnitude of z."
log_sigmoid.__doc__ = "log of the logistic function, computed without underflow to -inf for z > -745."
softplus.__doc__ = "log(1 + exp(z)) computed without overflow."


def log_sum_exp(f) -> float:
    """log sum_k exp(f_k) via the max-shift identity.

    Tolerates -inf entries (they contribute nothing); returns -inf only if
    every entry is -inf.
    """
    arr = np.asarray(f, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"expected a non-empty 1-D array, got shape {arr.shape}")
    m = np.max(arr)
    if not np.isfinite(m):
        if m == -np.inf:
            return float("-inf")
        raise ValueError("score vector contains nan or +inf")
    with np.errstate(divide="ignore"):
        return float(m + np.log(np.sum(np.exp(arr - m))))


def softmax(f) -> np.ndarray:
    """Exact softmax probabilities exp(f_k - LSE(f))."""
    arr = _as_scores(f)
    shifted = arr - np.max(arr)
    e = np.exp(shifted)
    return e / e.sum()


def softmax_prob(f, k: int) -> float:
    """Exact softmax probability p(y=k | f) = exp(f_k - LSE(f)), in (0, 1]."""
    arr = _as_scores(f)
    k = _check_class(k, arr.size)
    return float(np.exp(arr[k] - log_sum_exp(arr)))


def ove_log_bound(f, k: int) -> float:
    """One-vs-each lower bound on log p(y=k | f).

    log p(y=k) >= sum_{m != k} log sigmoid(f_k - f_m). Tight (exact) for
    K = 2; for K > 2 each pairwise factor bounds the probability of beating
    one rival, and the product over rivals is a lower bound because the
    pairwise events are positively associated.
    """
    arr = _as_scores(f)
    k = _check_class(k, arr.size)
    z = arr[k] - np.delete(arr, k)
    return float(np.sum(_log_sigmoid_impl(z)))


def ove_log_bound_all(f) -> np.ndarray:
    """One-vs-each bound for every class at once.

    Returns a length-K array whose k-th entry equals ``ove_log_bound(f, k)``.
    Materializes the K x K difference matrix, so intended for K up to a few
    thousand; the trainers use sampled estimates instead.
    """
    arr = _as_scores(f)
    ls = _log_sigmoid_impl(arr[:, None] - arr[None, :])
    # diagonal contributes log sigmoid(0) = -log 2 to each row sum
    return ls.sum(axis=1) - np.diag(ls)


@dataclass(frozen=True)
class LabelPartition:
    """A disjoint partition of the rival classes of ``target``.

    ``blocks`` must be non-empty tuples of class indices that are pairwise
    disjoint, none containing ``target``, and whose union is exactly the set
    of all classes except ``target``.
    """

    target: int
    blocks: tuple[tuple[int, ...], ...]

    def validate(self, num_classes: int) -> None:
        target = _check_class(self.target, num_classes)
        seen: set[int] = set()
        if not self.blocks:
            raise ValueError("partition has no blocks")
        for block in self.blocks:
            if len(block) == 0:
                raise ValueError("partition contains an empty block")
            for m in block:
                m = _check_class(m, num_classes)
                if m == target:
                    raise IndexError(f"target class {target} appears in a block")
                if m in seen:
                    raise ValueError(f"class {m} appears in more than one block")
                seen.add(m)
        expected = set(range(num_classes)) - {target}
        if seen != expected:
            missing = sorted(expected - seen)
            raise ValueError(f"blocks do not cover classes {missing}")


def hierarchical_log_bound(f, partition: LabelPartition) -> float:
    """Partition-structured lower bound on log p(y=k | f).

    For each block B the factor is the two-way softmax between ``f_k`` and
    the log-sum-exp of the block's scores:

        log [ e^{f_k} / (e^{f_k} + sum_{m in B} e^{f_m}) ]
        = -softplus(LSE(f_B) - f_k)

    With singleton blocks this reduces to ``ove_log_bound``; with one block
    holding every rival it equals the exact log softmax probability. Merging
    blocks can only tighten (raise) the bound.
    """
    arr = _as_scores(f)
    partition.validate(arr.size)
    k = partition.target
    total = 0.0
    for block in partition.blocks:
        lse_block = log_sum_exp(arr[list(block)])
        total -= _softplus_impl(np.atleast_1d(lse_block - arr[k]))[0]
    return float(total)


def bouchard_lse_upper(f, alpha: float) -> float:
    """Variational upper bound on log-sum-exp:

        LSE(f) <= alpha + sum_m softplus(f_m - alpha)

    valid for every real alpha. ``optimize_alpha`` finds the minimizer.
    """
    arr = _as_scores(f)
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    return float(alpha + np.sum(_softplus_impl(arr - alpha)))


def bouchard_log_bound(f, k: int, alpha: float) -> float:
    """Softmax lower bound induced by the LSE upper bound:

        log p(y=k | f) >= (f_k - alpha) - sum_m softplus(f_m - alpha)

    for any alpha; tightest at the alpha from ``optimize_alpha``.
    """
    arr = _as_scores(f)
    k = _check_class(k, arr.size)
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    return float((arr[k] - alpha) - np.sum(_softplus_impl(arr - alpha)))


def _alpha_bracket(arr: np.ndarray) -> tuple[float, float]:
    # r(alpha) = sum_m sigmoid(f_m - alpha) - 1 is strictly decreasing.
    # At alpha = min(f) - log K: each term >= sigmoid(log K) = K/(K+1),
    # so the sum >= K^2/(K+1) > 1 for K >= 2.
    # At alpha = max(f) + log K: each term <= sigmoid(-log K) = 1/(K+1),
    # so the sum <= K/(K+1) < 1.
    k = arr.size
    return float(arr.min() - np.log(k)), float(arr.max() + np.log(k))


def optimize_alpha(f, tol: float = ALPHA_TOL, max_iter: int = ALPHA_MAX_ITER) -> float:
    """Minimize the LSE upper bound over alpha.

    The optimum solves sum_m sigmoid(f_m - alpha) = 1, a strictly decreasing
    scalar equation. Bisection from a guaranteed bracket, then Newton polish.
    Raises ConvergenceError if |residual| > tol after max_iter iterations.
    """
    arr = _as_scores(f)
    lo, hi = _alpha_bracket(arr)

    def residual(a: float) -> float:
        return float(np.sum(_sigmoid_impl(arr - a)) - 1.0)

    alpha = 0.5 * (lo + hi)
    used = 0
    # bisection: cheap, guaranteed; stop once the bracket is tight
    while used < max_iter:
        alpha = 0.5 * (lo + hi)
        r = residual(alpha)
        used += 1
        if abs(r) <= tol:
            return alpha
        if r > 0.0:
            lo = alpha
        else:
            hi = alpha
        if hi - lo < 1e-13 * max(1.0, abs(alpha)):
            break
    # Newton polish: residual' = -sum sigmoid'(f - alpha)
    while used < max_iter:
        s = _sigmoid_impl(arr - alpha)
        r = float(np.sum(s) - 1.0)
        if abs(r) <= tol:
            return alpha
        slope = float(np.sum(s * (1.0 - s)))
        if slope <= 0.0:
            break
        alpha += r / slope
        used += 1
    r = residual(alpha)
    if abs(r) <= tol:
        return alpha
    raise ConvergenceError(
        f"alpha solve stalled: |sum sigmoid(f - alpha) - 1| = {abs(r):.3e} > {tol:.1e} "
        f"after {used} iterations"
    )


def optimize_alpha_batch(
    scores: np.ndarray, tol: float = ALPHA_TOL, max_iter: int = ALPHA_MAX_ITER
) -> np.ndarray:
    """Row-wise ``optimize_alpha`` for a matrix of score vectors.

    ``scores`` has shape (N, K); returns alpha of shape (N,). Same bracket
    and tolerance as the scalar version, vectorized bisection plus a Newton
    polish so large N stays cheap.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError(f"expected an (N, K>=2) score matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("score matrix contains non-finite entries")
    logk = np.log(arr.shape[1])
    lo = arr.min(axis=1) - logk
    hi = arr.max(axis=1) + logk
    alpha = 0.5 * (lo + hi)
    # ~60 halvings shrink any realistic bracket below Newton's basin
    n_bisect = min(max_iter, 60)
    for _ in range(n_bisect):
        alpha = 0.5 * (lo + hi)
        r = _sigmoid_impl(arr - alpha[:, None]).sum(axis=1) - 1.0
        gt = r > 0.0
        lo = np.where(gt, alpha, lo)
        hi = np.where(gt, hi, alpha)
    for _ in range(max_iter - n_bisect):
        s = _sigmoid_impl(arr - alpha[:, None])
        r = s.sum(axis=1) - 1.0
        if np.all(np.abs(r) <= tol):
            break
        slope = (s * (1.0 - s)).sum(axis=1)
        step = r / np.maximum(slope, 1e-300)
        # Newton from a bisection-tightened point; clip to the bracket
        alpha = np.clip(alpha + step, lo, hi)
    r = _sigmoid_impl(arr - alpha[:, None]).sum(axis=1) - 1.0
    bad = np.abs(r) > tol
    if np.any(bad):
        worst = float(np.max(np.abs(r)))
        raise ConvergenceError(
            f"alpha solve stalled on {int(bad.sum())} rows; worst residual {worst:.3e}"
        )
    return alpha
