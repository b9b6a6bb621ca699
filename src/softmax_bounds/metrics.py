"""Comparison metrics for trained classifiers and optimizer traces.

Linear softmax-style scores are identifiable only up to a shared shift per
feature (adding any vector to every class row leaves all class-probability
ratios unchanged), so raw parameter distances between two training runs
are not meaningful. ``param_norm`` therefore projects both models onto the
same gauge, subtracting the across-class mean from each weight column and
from the biases, before comparing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from softmax_bounds.linear_model import LinearModel
from softmax_bounds.manifest import write_json

__all__ = [
    "MethodReport",
    "param_norm",
    "error_rate",
    "nlpd",
    "smooth_trace",
    "write_report_csv",
    "write_report_json",
]


@dataclass
class MethodReport:
    """One row of a method-comparison table.

    ``norm`` is the parameter closeness to the reference method and is
    None on the reference row itself. ``bound_final`` is the maximized
    training objective value; None when the producer never saw the
    training run (e.g. comparisons built from checkpoints).
    """

    method: str
    error: float
    nlpd: float
    bound_final: float | None = None
    norm: float | None = None

    def validate(self) -> None:
        if not 0.0 <= self.error <= 1.0:
            raise ValueError(f"error rate {self.error} outside [0, 1]")
        if self.nlpd < 0.0:
            raise ValueError(f"nlpd {self.nlpd} is negative")
        if self.norm is not None and self.norm < 0.0:
            raise ValueError(f"norm {self.norm} is negative")

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "norm": self.norm,
            "error": self.error,
            "nlpd": self.nlpd,
            "bound_final": self.bound_final,
        }


def gauge_fix(model: LinearModel) -> LinearModel:
    """Remove the shared-shift degrees of freedom from a linear model.

    Subtracts the mean across classes from every weight column and the
    mean bias from the biases. Predictions and all probability ratios are
    unchanged; two models that differ only by shared shifts map to the
    same point.
    """
    return LinearModel(
        weights=model.weights - model.weights.mean(axis=0, keepdims=True),
        biases=model.biases - model.biases.mean(),
    )


def param_norm(reference: LinearModel, other: LinearModel) -> float:
    """Relative Euclidean distance between gauge-fixed parameter vectors.

    Computes ||g(reference) - g(other)|| / ||g(reference)|| over weights
    and biases flattened together, where g is ``gauge_fix``. Satisfies
    param_norm(w, c*w) = |1 - c| for any scalar c.
    """
    if (
        reference.num_classes != other.num_classes
        or reference.num_features != other.num_features
    ):
        raise ValueError(
            f"shape mismatch: reference {reference.num_classes} x "
            f"{reference.num_features}, other {other.num_classes} x "
            f"{other.num_features}"
        )
    g_ref = gauge_fix(reference)
    g_other = gauge_fix(other)
    ref_vec = np.concatenate((g_ref.weights.ravel(), g_ref.biases))
    other_vec = np.concatenate((g_other.weights.ravel(), g_other.biases))
    denom = float(np.linalg.norm(ref_vec))
    if denom == 0.0:
        raise ValueError("reference model is zero after gauge fixing")
    return float(np.linalg.norm(ref_vec - other_vec)) / denom


def error_rate(predictions, truth) -> float:
    """Mean 0/1 disagreement between two label vectors."""
    preds = np.asarray(predictions)
    t = np.asarray(truth)
    if preds.shape != t.shape or preds.ndim != 1:
        raise ValueError(f"shape mismatch: {preds.shape} vs {t.shape}")
    if preds.size == 0:
        raise ValueError("need at least one prediction")
    return float(np.mean(preds != t))


def nlpd(prob_rows, truth) -> float:
    """Mean negative log predictive density of the true labels.

    ``prob_rows`` is an (N, K) array of predictive distributions; row
    entries must be nonnegative and sum to 1 within 1e-6. Probabilities
    are floored at 1e-12 before the log, so the result is always finite;
    the floor caps the contribution of any single point at about 27.6.
    """
    p = np.asarray(prob_rows, dtype=np.float64)
    t = np.asarray(truth)
    if p.ndim != 2 or t.ndim != 1 or p.shape[0] != t.shape[0]:
        raise ValueError(f"shape mismatch: probs {p.shape} vs truth {t.shape}")
    if p.shape[0] == 0:
        raise ValueError("need at least one row")
    # a NaN fails both comparisons; neither builds an (N, K) mask
    if not (p.min() >= 0.0 and p.max() < np.inf):
        raise ValueError("probability rows must be finite and nonnegative")
    sums = p.sum(axis=1)
    bad = np.abs(sums - 1.0) > 1e-6
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"row {i} sums to {sums[i]!r}, not a distribution")
    if t.min() < 0 or t.max() >= p.shape[1]:
        raise ValueError("truth label out of range")
    picked = p[np.arange(p.shape[0]), t]
    return float(np.mean(-np.log(np.maximum(picked, 1e-12))))


def smooth_trace(trace, window: int, thin: int = 1) -> np.ndarray:
    """Trailing moving average of a 1-D series, optionally thinned.

    Entry i of the smoothed series is the mean of the last ``window``
    values up to and including i, truncated at the start, so the output
    has the input's length; window=1 is the identity. ``thin`` keeps
    every thin-th smoothed entry, starting from the first.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if thin < 1:
        raise ValueError(f"thin must be >= 1, got {thin}")
    x = np.asarray(trace, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D trace, got shape {x.shape}")
    if x.size == 0:
        return x.copy()
    csum = np.concatenate(([0.0], np.cumsum(x)))
    idx = np.arange(1, x.size + 1)
    lo = np.maximum(idx - window, 0)
    smoothed = (csum[idx] - csum[lo]) / (idx - lo)
    return smoothed[::thin]


def write_report_csv(reports: list[MethodReport], path) -> None:
    """Comparison table as CSV with columns method, norm, error, nlpd."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("method,norm,error,nlpd\n")
        for r in reports:
            r.validate()
            norm = "" if r.norm is None else repr(r.norm)
            fh.write(f"{r.method},{norm},{r.error!r},{r.nlpd!r}\n")


def write_report_json(reports: list[MethodReport], path) -> None:
    for r in reports:
        r.validate()
    write_json([r.to_json_dict() for r in reports], path)
