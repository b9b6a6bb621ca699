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
    "hierarchical_log_bound",
    "bouchard_lse_upper",
    "bouchard_log_bound",
    "optimize_alpha",
    "optimize_alpha_batch",
]

# Tolerance on |sum_m sigmoid(f_m - alpha) - 1| at the returned alpha.
ALPHA_TOL = 1e-10
ALPHA_MAX_ITER = 200
_BLOCK = 32768  # elements per block of the dense reductions and OVE count walk: 256 KB, in cache


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


# The package's only max-shifted softmax and log-sum-exp, on one score vector
# or one per row: a score more than the float range below its row's top gets
# probability 0, and a row whose top is not finite comes out NaN, silently.
def _softmax_rows(f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax of each row of ``f``, in place when ``out`` is ``f``."""
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.subtract(f, f.max(axis=-1, keepdims=True), out=out)
    e /= np.exp(e, out=e).sum(axis=-1, keepdims=True)
    return e


def _log_sum_exp_rows(f: np.ndarray) -> np.ndarray:
    """log sum_k exp(f_k) of each row of ``f``."""
    top = f.max(axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        e = f - top[..., None]
    return top + np.log(np.exp(e, out=e).sum(axis=-1))


def _row_slices(num_rows: int, row_len: int):
    """Slices of consecutive rows of about ``_BLOCK`` elements each."""
    step = max(1, _BLOCK // max(1, row_len))
    return (slice(r, r + step) for r in range(0, num_rows, step))


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
    return float(_log_sum_exp_rows(arr))


def softmax(f) -> np.ndarray:
    """Exact softmax probabilities exp(f_k - LSE(f))."""
    return _softmax_rows(_as_scores(f))


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


def optimize_alpha(f) -> float:
    """Minimize the LSE upper bound over alpha: ``optimize_alpha_batch`` of
    the one score vector ``f``."""
    return float(optimize_alpha_batch(_as_scores(f)[None])[0])


def optimize_alpha_batch(scores: np.ndarray) -> np.ndarray:
    """Row-wise minimizer of the LSE upper bound for a matrix of score vectors.

    ``scores`` has shape (N, K); returns alpha of shape (N,). Each optimum
    solves r(alpha) = sum_m sigmoid(f_m - alpha) - 1 = 0, a strictly
    decreasing equation, by Newton steps from LSE(f) inside a bracket that
    every residual tightens. A step that would leave the bracket, or that
    is more than half the previous step (a flat stretch of r), bisects
    instead. Once every row meets ``ALPHA_TOL`` the solve takes one more step,
    which Newton's quadratic convergence carries to the float floor, and
    returns each row's best evaluated alpha. Raises ConvergenceError if
    some |residual| > ``ALPHA_TOL`` after ``ALPHA_MAX_ITER`` evaluations.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError(f"expected an (N, K>=2) score matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("score matrix contains non-finite entries")
    # r > 0 at min(f) - log K: each term >= sigmoid(log K) = K/(K+1), and
    # r < 0 at LSE(f): each term < exp(f_m - LSE(f)), and those sum to 1.
    # The solve starts at LSE(f), the root's limit when every term is small.
    lo = arr.min(axis=1) - np.log(arr.shape[1])
    alpha = hi = _log_sum_exp_rows(arr)
    last_step = hi - lo
    best = alpha
    best_r = np.full(alpha.shape, np.inf)
    polishing = False
    # a flat r gives a zero slope, whose inf or nan step fails the bracket test
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(ALPHA_MAX_ITER):
            s = _sigmoid_impl(arr - alpha[:, None])
            r = s.sum(axis=1) - 1.0
            size = np.abs(r)
            best = np.where(size < best_r, alpha, best)
            best_r = np.minimum(size, best_r)
            met = bool((best_r <= ALPHA_TOL).all())
            if met and polishing:
                break
            polishing = met
            lo = np.where(r > 0.0, alpha, lo)
            hi = np.where(r < 0.0, alpha, hi)
            step = r / (s * (1.0 - s)).sum(axis=1)
            newton = alpha + step
            bisect = ~((newton > lo) & (newton < hi)) | (np.abs(step) > 0.5 * last_step)
            alpha = np.where(bisect, 0.5 * (lo + hi), newton)
            last_step = np.abs(np.where(bisect, 0.5 * (hi - lo), step))
    bad = best_r > ALPHA_TOL
    if np.any(bad):
        raise ConvergenceError(
            f"alpha solve stalled on {int(bad.sum())} rows: worst "
            f"|sum sigmoid(f - alpha) - 1| = {float(np.max(best_r)):.3e} > {ALPHA_TOL:.1e} "
            f"after {ALPHA_MAX_ITER} iterations"
        )
    return best
