"""Linear multiclass models and the three training objectives.

Scores are linear per class: score(x, k) = biases[k] + weights[k] . x.
Training maximizes one of

* ``exact_softmax`` -- the exact multiclass log likelihood;
* ``ove``           -- the sum of pairwise one-vs-each log bounds;
* ``bouchard``      -- the variational bound with one alpha per instance;

each minus a 0.5 * lam * ||weights||^2 penalty. Biases are never
regularized: leaving them free preserves the softmax shift symmetry in
the bias direction, so the penalty pins the gauge only through weights.

Every score comes from ``scores_matrix`` over a ``SparseDataset``; one
instance is scored as a one-row dataset. Predictive probabilities
(``predict_proba_all``) always use the exact softmax at evaluation time
regardless of the training surrogate, so metrics are comparable across
objectives.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from softmax_bounds.bounds import (
    _BLOCK,
    _log_sigmoid_impl,
    _log_sum_exp_rows,
    _row_slices,
    _sigmoid_impl,
    _softmax_rows,
    _softplus_impl,
    optimize_alpha_batch,
)
from softmax_bounds.config import NumericalError
from softmax_bounds.datasets import SparseDataset

__all__ = [
    "KIND_EXACT",
    "KIND_OVE",
    "KIND_BOUCHARD",
    "CheckpointError",
    "LinearModel",
    "Objective",
    "scores_matrix",
    "exact_loglik",
    "ove_loglik",
    "bouchard_loglik",
    "full_gradient",
    "predict_proba_all",
]

KIND_EXACT = "exact_softmax"
KIND_OVE = "ove"
KIND_BOUCHARD = "bouchard"

_MAGIC = b"SBLM"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQ")


class CheckpointError(ValueError):
    """A model checkpoint file is malformed or inconsistent."""


@dataclass
class LinearModel:
    """K x D weight matrix (class-major) plus K biases, all finite."""

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {self.weights.shape}")
        if self.biases.shape != (self.weights.shape[0],):
            raise ValueError(
                f"biases shape {self.biases.shape} does not match "
                f"{self.weights.shape[0]} classes"
            )

    @property
    def num_classes(self) -> int:
        return int(self.weights.shape[0])

    @property
    def num_features(self) -> int:
        return int(self.weights.shape[1])

    @classmethod
    def zeros(cls, num_classes: int, num_features: int) -> "LinearModel":
        return cls(np.zeros((num_classes, num_features)), np.zeros(num_classes))

    # binary checkpoint: magic, u32 version, u64 K, u64 D, then row-major
    # weights and biases as little-endian float64
    def save(self, path: str) -> str:
        """Write the checkpoint to ``path`` and return its sha256 hex digest.

        One pass over cache-sized blocks checks that every parameter is
        finite and hashes the exact bytes that are then written, so the
        digest equals that of the file without reading it back. Raises
        ValueError, before the file is opened, if a parameter is not finite.
        """
        k, d = self.weights.shape
        header = _HEADER.pack(_MAGIC, _VERSION, k, d)
        # .data writes the array's own buffer, where tobytes() copies all of W
        weights = np.ascontiguousarray(self.weights, dtype="<f8")
        biases = np.ascontiguousarray(self.biases, dtype="<f8")
        digest = hashlib.sha256(header)
        for block in _param_blocks(weights, biases):
            if not np.isfinite(block).all():
                raise ValueError("model parameters contain non-finite values")
            digest.update(block)
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(weights.data)
            fh.write(biases.data)
        return digest.hexdigest()

    @classmethod
    def load(cls, path: str) -> "LinearModel":
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            if len(head) < _HEADER.size or head[:4] != _MAGIC:
                raise CheckpointError(f"{path}: not a model checkpoint")
            _, version, k, d = _HEADER.unpack(head)
            if version != _VERSION:
                raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
            expected = _HEADER.size + 8 * (k * d + k)
            size = os.fstat(fh.fileno()).st_size
            if size != expected:
                raise CheckpointError(
                    f"{path}: truncated checkpoint ({size} bytes, expected {expected})"
                )
            params = np.empty(k * d + k, dtype="<f8")
            # a file that shrank after the size check reads short
            if fh.readinto(params.data) != params.nbytes:
                raise CheckpointError(f"{path}: checkpoint changed while being read")
        weights, biases = params[: k * d].reshape(k, d), params[k * d :]
        if not all(np.isfinite(block).all() for block in _param_blocks(weights, biases)):
            raise CheckpointError(f"{path}: checkpoint holds non-finite parameters")
        return cls(weights, biases)


@dataclass
class Objective:
    """Which surrogate to train with, the L2 strength, and (bouchard only)
    the per-instance variational centers."""

    kind: str
    lam: float = 0.0
    per_instance_alpha: np.ndarray | None = None

    def validate(self, num_instances: int | None = None) -> None:
        if self.kind not in (KIND_EXACT, KIND_OVE, KIND_BOUCHARD):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be >= 0 and finite, got {self.lam}")
        if self.kind == KIND_BOUCHARD:
            if self.per_instance_alpha is None:
                raise ValueError("bouchard objective requires per_instance_alpha")
            if num_instances is not None and (
                np.shape(self.per_instance_alpha) != (num_instances,)
            ):
                raise ValueError(
                    f"per_instance_alpha has shape "
                    f"{np.shape(self.per_instance_alpha)}, expected ({num_instances},)"
                )
        elif self.per_instance_alpha is not None:
            raise ValueError("per_instance_alpha only applies to the bouchard kind")


def _csr(model: LinearModel, data: SparseDataset):
    mat, _ = data.to_csr()
    if mat.shape[1] != model.num_features:
        raise ValueError(
            f"dataset has {mat.shape[1]} features, model has {model.num_features}"
        )
    return mat


def _score_blocks(model: LinearModel, mat):
    """Yield ``(k, scores)`` with the (N, n) scores of classes k .. k + n - 1,
    one block of classes at a time.

    mat @ W.T would make scipy copy all of W into a C-ordered transpose; a
    block of at most about 1 MB of W rows keeps that copy in cache, and
    every score is the same sum in the same order whatever the block size.
    A block also holds at most about ``_BLOCK`` scores, but at least 16
    classes, because each block walks all of ``mat`` again.
    """
    step = max(16, _BLOCK // max(1, mat.shape[0]))
    step = max(1, min(step, (1 << 20) // (8 * max(1, model.num_features))))
    for k in range(0, model.num_classes, step):
        block = mat @ model.weights[k : k + step].T
        block += model.biases[k : k + step]
        yield k, block


def scores_matrix(model: LinearModel, data: SparseDataset) -> np.ndarray:
    """(N, K) score matrix for a whole dataset."""
    mat = _csr(model, data)
    out = np.empty((mat.shape[0], model.num_classes))
    for k, block in _score_blocks(model, mat):
        out[:, k : k + block.shape[1]] = block
    return out


def _check_labels(y: np.ndarray, num_classes: int) -> None:
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise ValueError("label out of range for the model's class count")


def _label_scores(model: LinearModel, data: SparseDataset):
    """(f, y, f_y): the (N, K) scores, which the caller owns and may
    overwrite, the checked labels, and each row's label score."""
    f = scores_matrix(model, data)
    y = data.labels()
    _check_labels(y, model.num_classes)
    return f, y, f[np.arange(len(y)), y]


def _param_blocks(weights: np.ndarray, biases: np.ndarray):
    """The blocks in which ``save`` and ``load`` check a checkpoint."""
    yield from (weights[rows] for rows in _row_slices(*weights.shape))
    yield biases


def _penalty(model: LinearModel, lam: float) -> float:
    if lam == 0.0:
        return 0.0
    w = model.weights
    return 0.5 * lam * sum(float((w[rows] ** 2).sum()) for rows in _row_slices(*w.shape))


def exact_loglik(model: LinearModel, data: SparseDataset, lam: float = 0.0) -> float:
    """Sum_n [f_{y_n} - LSE(f)] - 0.5 lam ||W||^2 (penalty on weights only)."""
    f, _, fy = _label_scores(model, data)
    return float(np.sum(fy - _log_sum_exp_rows(f))) - _penalty(model, lam)


def ove_loglik(model: LinearModel, data: SparseDataset, lam: float = 0.0) -> float:
    """Sum over instances of the one-vs-each lower bound on the log
    likelihood, minus the penalty. Never exceeds ``exact_loglik`` at the
    same parameters; coincides with it when K = 2. Raises NumericalError,
    without a warning, when overflowed parameters make the sum not finite.

    The label scores come from one O(nnz) gather, and the rival scores one
    block of classes at a time, so no (N, K) array is ever held.
    """
    from scipy.sparse import csr_matrix

    mat = _csr(model, data)
    y = data.labels()
    _check_labels(y, model.num_classes)
    n = len(y)
    with np.errstate(over="ignore", invalid="ignore"):
        # f_y[i] = b[y_i] + sum of W[y_i, j] * x_ij over the row's entries,
        # summed by a sparse product as the scores are, so in the same order
        flat = np.repeat(y * model.num_features, np.diff(mat.indptr))
        flat += mat.indices
        picked = model.weights.take(flat)
        picked *= mat.data
        fy = csr_matrix((picked, mat.indices, mat.indptr), shape=mat.shape) @ np.ones(mat.shape[1])
        del flat, picked
        fy += model.biases[y]
        total = 0.0
        for _, block in _score_blocks(model, mat):
            np.subtract(fy[:, None], block, out=block)
            total += float(_log_sigmoid_impl(block).sum())
        # the m = y_n term is log sigmoid(0) = -log 2 in every row; drop it
        total = total + n * np.log(2.0) - _penalty(model, lam)
    if not np.isfinite(total):
        raise NumericalError(f"the one-vs-each bound is {total}; the model has overflowed")
    return total


def bouchard_loglik(
    model: LinearModel, data: SparseDataset, objective: Objective
) -> float:
    """Per-instance variational lower bound with the objective's alphas."""
    if objective.kind != KIND_BOUCHARD:
        raise ValueError("objective kind must be bouchard")
    objective.validate(num_instances=len(data))
    f, _, fy = _label_scores(model, data)
    a = np.asarray(objective.per_instance_alpha, dtype=np.float64)
    f -= a[:, None]
    bound = fy - a - _softplus_impl(f).sum(axis=1)
    return float(bound.sum()) - _penalty(model, objective.lam)


def optimal_alphas(model: LinearModel, data: SparseDataset) -> np.ndarray:
    """Per-instance maximizing alphas at the current parameters;
    NumericalError, as from ``predict_proba_all``, if a score is not finite."""
    f = scores_matrix(model, data)
    if not np.isfinite(f).all():
        raise NumericalError("non-finite score; the model has overflowed")
    return optimize_alpha_batch(f)


def full_gradient(
    model: LinearModel, data: SparseDataset, objective: Objective
) -> tuple[np.ndarray, np.ndarray]:
    """Exact full-batch gradient (grad_weights, grad_biases).

    For the one-vs-each objective each rival class m of an instance with
    label y is weighted by sigmoid(f_m - f_y); that weight pushes x_n onto
    row y and pulls it from row m. The exact-softmax and bouchard variants
    follow the same pattern with their own per-class weights. The L2 term
    subtracts lam * weights (never biases).
    """
    objective.validate(num_instances=len(data))
    # the per-instance, per-class weights C, with grad_W = C^T X and
    # grad_b = sum_n C[n], are built in place on the scores
    c, y, fy = _label_scores(model, data)
    rows, label_weight = np.arange(len(y)), 1.0
    if objective.kind == KIND_EXACT:
        _softmax_rows(c, out=c)
    elif objective.kind == KIND_BOUCHARD:
        c -= np.asarray(objective.per_instance_alpha, dtype=np.float64)[:, None]
        c = _sigmoid_impl(c)
    else:
        c -= fy[:, None]
        c = _sigmoid_impl(c)  # sigmoid(f_m - f_y)
        c[rows, y] = 0.0
        label_weight = c.sum(axis=1)  # the sum of the rivals' weights
    np.negative(c, out=c)
    c[rows, y] += label_weight
    mat, _ = data.to_csr()
    grad_w = np.asarray((mat.T @ c).T) - objective.lam * model.weights
    grad_b = c.sum(axis=0)
    return grad_w, grad_b


def predict_proba_all(model: LinearModel, data: SparseDataset) -> np.ndarray:
    """Exact softmax rows; NumericalError if a row's top score is not finite."""
    f = scores_matrix(model, data)
    _softmax_rows(f, out=f)
    if np.isnan(f[:, :1]).any():
        raise NumericalError("non-finite score; the model has overflowed")
    return f
