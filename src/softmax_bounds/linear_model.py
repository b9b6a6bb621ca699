"""Linear multiclass models and the three training objectives.

Scores are linear per class: score(x, k) = biases[k] + weights[k] . x.
Training maximizes one of

* ``exact_softmax`` -- the exact multiclass log likelihood;
* ``ove``           -- the sum of pairwise one-vs-each log bounds;
* ``bouchard``      -- the variational bound with one alpha per instance;

each minus a 0.5 * lam * ||weights||^2 penalty. Biases are never
regularized: leaving them free preserves the softmax shift symmetry in
the bias direction, so the penalty pins the gauge only through weights.

Predictions and predictive probabilities always use the exact softmax at
evaluation time regardless of the training surrogate, so metrics are
comparable across objectives.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from softmax_bounds.bounds import (
    _log_sigmoid_impl,
    _sigmoid_impl,
    _softplus_impl,
    optimize_alpha_batch,
)
from softmax_bounds.datasets import SparseDataset, SparseVector

__all__ = [
    "KIND_EXACT",
    "KIND_OVE",
    "KIND_BOUCHARD",
    "CheckpointError",
    "LinearModel",
    "Objective",
    "scores",
    "scores_matrix",
    "exact_loglik",
    "ove_loglik",
    "bouchard_loglik",
    "full_gradient",
    "predict",
    "predict_all",
    "predict_proba",
    "predict_proba_all",
]

KIND_EXACT = "exact_softmax"
KIND_OVE = "ove"
KIND_BOUCHARD = "bouchard"

_MAGIC = b"SBLM"
_VERSION = 1


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

    def check_finite(self) -> None:
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.biases))):
            raise ValueError("model parameters contain non-finite values")

    @classmethod
    def zeros(cls, num_classes: int, num_features: int) -> "LinearModel":
        return cls(np.zeros((num_classes, num_features)), np.zeros(num_classes))

    def copy(self) -> "LinearModel":
        return LinearModel(self.weights.copy(), self.biases.copy())

    # binary checkpoint: magic, u32 version, u64 K, u64 D, then row-major
    # weights and biases as little-endian float64
    def save(self, path: str) -> None:
        self.check_finite()
        k, d = self.weights.shape
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<IQQ", _VERSION, k, d))
            fh.write(np.ascontiguousarray(self.weights, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(self.biases, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path: str) -> "LinearModel":
        with open(path, "rb") as fh:
            blob = fh.read()
        header = struct.calcsize("<IQQ")
        if len(blob) < 4 + header or blob[:4] != _MAGIC:
            raise CheckpointError(f"{path}: not a model checkpoint")
        version, k, d = struct.unpack_from("<IQQ", blob, 4)
        if version != _VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        expected = 4 + header + 8 * (k * d + k)
        if len(blob) != expected:
            raise CheckpointError(
                f"{path}: truncated checkpoint ({len(blob)} bytes, expected {expected})"
            )
        offset = 4 + header
        weights = np.frombuffer(blob, dtype="<f8", count=k * d, offset=offset)
        biases = np.frombuffer(blob, dtype="<f8", count=k, offset=offset + 8 * k * d)
        return cls(weights.reshape(k, d).copy(), biases.copy())

    def to_json_dict(self) -> dict:
        return {
            "version": _VERSION,
            "num_classes": self.num_classes,
            "num_features": self.num_features,
            "weights": self.weights.tolist(),
            "biases": self.biases.tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LinearModel":
        return cls(np.array(obj["weights"]), np.array(obj["biases"]))


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
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
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


def scores(model: LinearModel, x: SparseVector) -> np.ndarray:
    """All K scores for one instance in O(K * nnz(x))."""
    if x.nnz and int(x.indices[-1]) >= model.num_features:
        raise ValueError(
            f"feature index {int(x.indices[-1])} out of range for "
            f"{model.num_features} features"
        )
    if x.nnz == 0:
        return model.biases.copy()
    return model.biases + model.weights[:, x.indices] @ x.values


def scores_matrix(model: LinearModel, data: SparseDataset) -> np.ndarray:
    """(N, K) score matrix for a whole dataset."""
    mat, _ = data.to_csr()
    if mat.shape[1] != model.num_features:
        raise ValueError(
            f"dataset has {mat.shape[1]} features, model has {model.num_features}"
        )
    # mat @ W.T would make scipy copy all of W into a C-ordered transpose;
    # a block of class rows at a time keeps that copy near 1 MB, in cache,
    # and every score is the same sum in the same order
    block = max(1, (1 << 20) // (8 * model.num_features))
    out = np.empty((mat.shape[0], model.num_classes))
    for k in range(0, model.num_classes, block):
        out[:, k : k + block] = mat @ model.weights[k : k + block].T
    out += model.biases
    return out


def _check_labels(y: np.ndarray, num_classes: int) -> None:
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise ValueError("label out of range for the model's class count")


def _penalty(model: LinearModel, lam: float) -> float:
    return 0.5 * lam * float(np.sum(model.weights**2))


def _row_lse(f: np.ndarray) -> np.ndarray:
    m = f.max(axis=1)
    return m + np.log(np.exp(f - m[:, None]).sum(axis=1))


def exact_loglik(model: LinearModel, data: SparseDataset, lam: float = 0.0) -> float:
    """Sum_n [f_{y_n} - LSE(f)] - 0.5 lam ||W||^2 (penalty on weights only)."""
    f = scores_matrix(model, data)
    y = data.labels()
    _check_labels(y, model.num_classes)
    rows = np.arange(len(y))
    return float(np.sum(f[rows, y] - _row_lse(f))) - _penalty(model, lam)


def ove_loglik(model: LinearModel, data: SparseDataset, lam: float = 0.0) -> float:
    """Sum over instances of the one-vs-each lower bound on the log
    likelihood, minus the penalty. Never exceeds ``exact_loglik`` at the
    same parameters; coincides with it when K = 2."""
    f = scores_matrix(model, data)
    y = data.labels()
    _check_labels(y, model.num_classes)
    rows = np.arange(len(y))
    ls = _log_sigmoid_impl(f[rows, y][:, None] - f)
    # the m = y_n term is log sigmoid(0) = -log 2 in every row; drop it
    total = float(ls.sum()) + len(y) * np.log(2.0)
    return total - _penalty(model, lam)


def bouchard_loglik(
    model: LinearModel, data: SparseDataset, objective: Objective
) -> float:
    """Per-instance variational lower bound with the objective's alphas."""
    if objective.kind != KIND_BOUCHARD:
        raise ValueError("objective kind must be bouchard")
    objective.validate(num_instances=len(data))
    f = scores_matrix(model, data)
    y = data.labels()
    _check_labels(y, model.num_classes)
    a = np.asarray(objective.per_instance_alpha, dtype=np.float64)
    rows = np.arange(len(y))
    bound = f[rows, y] - a - _softplus_impl(f - a[:, None]).sum(axis=1)
    return float(bound.sum()) - _penalty(model, objective.lam)


def optimal_alphas(model: LinearModel, data: SparseDataset) -> np.ndarray:
    """Per-instance maximizing alphas at the current parameters."""
    return optimize_alpha_batch(scores_matrix(model, data))


def _coefficients(f: np.ndarray, y: np.ndarray, objective: Objective) -> np.ndarray:
    """Per-instance, per-class weights C so the data-term gradient is
    grad_W = C^T X and grad_b = sum_n C[n]."""
    rows = np.arange(len(y))
    if objective.kind == KIND_EXACT:
        shifted = np.exp(f - f.max(axis=1)[:, None])
        p = shifted / shifted.sum(axis=1)[:, None]
        c = -p
        c[rows, y] += 1.0
        return c
    if objective.kind == KIND_OVE:
        s = _sigmoid_impl(f - f[rows, y][:, None])  # sigmoid(f_m - f_y)
        s[rows, y] = 0.0
        c = -s
        c[rows, y] = s.sum(axis=1)
        return c
    a = np.asarray(objective.per_instance_alpha, dtype=np.float64)
    c = -_sigmoid_impl(f - a[:, None])
    c[rows, y] += 1.0
    return c


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
    f = scores_matrix(model, data)
    y = data.labels()
    _check_labels(y, model.num_classes)
    c = _coefficients(f, y, objective)
    mat, _ = data.to_csr()
    grad_w = np.asarray((mat.T @ c).T) - objective.lam * model.weights
    grad_b = c.sum(axis=0)
    return grad_w, grad_b


def predict(model: LinearModel, x: SparseVector) -> int:
    """Argmax class; ties resolve to the lowest index."""
    return int(np.argmax(scores(model, x)))


def predict_all(model: LinearModel, data: SparseDataset) -> np.ndarray:
    f = scores_matrix(model, data)
    return np.argmax(f, axis=1)


def predict_proba(model: LinearModel, x: SparseVector) -> np.ndarray:
    """Exact softmax probabilities (whatever objective trained the model)."""
    f = scores(model, x)
    e = np.exp(f - f.max())
    return e / e.sum()


def predict_proba_all(model: LinearModel, data: SparseDataset) -> np.ndarray:
    f = scores_matrix(model, data)
    e = np.exp(f - f.max(axis=1)[:, None])
    return e / e.sum(axis=1)[:, None]
