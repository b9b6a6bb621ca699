"""Doubly stochastic training of the one-vs-each classification bound.

Each optimizer step draws a minibatch of instances and, independently per
instance, a uniform subset of S rival classes. The sampled rival terms are
rescaled by (K - 1) / S, which makes the step an unbiased estimate of the
minibatch gradient of the full bound. An update therefore touches only the
rows {label} union {sampled rivals} and, within each row, only the feature
indices present in the instance: cost O(b * (S + 1) * nnz) per step,
independent of K and D. A minibatch is an array of row positions in one
CSR ``SparseDataset``; ``stochastic_gradient`` returns the step of such a
minibatch as a ``SparseDelta`` without applying it, through the same
kernel as ``train``.

At small b that arithmetic is tiny next to the fixed cost of a numpy call,
so ``train`` plans the weight-independent index work of a chunk of steps in
a few vectorised passes, with one sampler call for the chunk's rivals, and
runs each maximal run of consecutive steps whose touched rows are pairwise
disjoint as one kernel call. A step reads only the rows it writes, so the
fused run is bit-identical to the steps one at a time. At b = 1 such a run
holds about sqrt(pi K / 2) / (S + 1) steps, so the cost per instance falls
as K grows.

L2 regularization would break that cost model (decay touches every
parameter), so it is applied lazily. A step decays every weight by one
factor, 1 - lr * lam * |batch| / N, so the weights are stored as ``g * v``
with one scalar ``g``: a step multiplies g by its factor and divides its
sparse update by the new g (Bottou, "Stochastic Gradient Descent Tricks",
2012, section 5.1). g's path does not depend on the weights, so the fused
run stays bit-identical. Biases are never regularized and update directly.

``fit_full_batch`` is the deterministic counterpart used for the baseline
objectives (exact softmax, full OVE, Bouchard with per-instance alphas);
it drives the analytic gradients from :mod:`softmax_bounds.linear_model`
with the L-BFGS of :func:`softmax_bounds.nonparam._maximize`, which also
fits the count estimators, and verifies the gradient norm at the solution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from softmax_bounds.bounds import _row_slices
from softmax_bounds.config import ConfigError, NumericalError, OptimizerSettings, TrainConfig
from softmax_bounds.datasets import SparseDataset
from softmax_bounds.linear_model import (
    KIND_BOUCHARD,
    KIND_EXACT,
    KIND_OVE,
    LinearModel,
    Objective,
    bouchard_loglik,
    exact_loglik,
    full_gradient,
    optimal_alphas,
    ove_loglik,
)
from softmax_bounds.nonparam import _CONVERGED, _bound_estimate, _chunks, _gated, _maximize
from softmax_bounds.nonparam import _ove_step, sample_rival_classes

__all__ = [
    "TrainTrace",
    "SparseDelta",
    "stochastic_gradient",
    "train",
    "fit_full_batch",
]

# ``train`` folds its decay scalar g into the weights at a chunk start once g
# is this small; a chunk decays g by at least 1 - lr0 * lam > 0, so dividing
# updates by g cannot overflow
_RENORM_THRESHOLD = 1e-6


@dataclass
class TrainTrace:
    """Logged optimizer state: one row per logging step.

    ``rows`` holds (iteration, raw_bound_estimate, lr, epoch, elapsed_ms).
    The bound estimate is the minibatch mean of the sampled per-instance
    lower bound, unsmoothed; smoothing is a reporting concern.
    """

    rows: list[tuple[int, float, float, int, float]] = field(default_factory=list)

    def iterations(self) -> list[int]:
        return [r[0] for r in self.rows]

    def validate(self) -> None:
        its = self.iterations()
        if any(b <= a for a, b in zip(its, its[1:])):
            raise ValueError("trace iterations must be strictly increasing")

    def to_csv(self, path) -> None:
        """Write the trace as CSV.

        Every column except elapsed_ms is deterministic for a fixed seed
        and config; elapsed_ms is wall-clock and excluded from any
        reproducibility comparison.
        """
        self.validate()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("iteration,raw_bound_estimate,lr,epoch,elapsed_ms\n")
            for it, est, lr, epoch, ms in self.rows:
                fh.write(f"{it},{est!r},{lr!r},{epoch},{ms:.3f}\n")


@dataclass
class SparseDelta:
    """Additive data-term update of one or more minibatches, touching few weight rows.

    Row i of ``classes`` holds instance i's label, then its sampled rivals.
    Class ``classes[i, c]`` moves by ``coeffs[i, c]`` times the instance's
    feature vector, and its bias by ``coeffs[i, c]``. The batch's nonzeros
    are listed in order: nonzero j belongs to instance ``owner[j]`` and has
    value ``values[j]``, and ``slots[j, c]`` is its position in the
    flattened (K, D) weights of row ``classes[owner[j], c]``. Represents
    the data term only; regularization is the caller's business.
    """

    classes: np.ndarray
    coeffs: np.ndarray
    owner: np.ndarray
    slots: np.ndarray
    values: np.ndarray


def _gather(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    chosen: np.ndarray,
    classes: np.ndarray,
    num_features: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros of CSR rows ``chosen``, laid out for ``_sgd_step``.

    Returns (ptr, owner, slots, values): instance i's nonzeros are
    ``ptr[i]:ptr[i + 1]``, nonzero j belongs to instance ``owner[j]`` and
    has value ``values[j]``, and ``slots[j, c]`` is its position in the
    flattened (K, D) weights of row ``classes[owner[j], c]``.
    """
    starts = indptr[chosen]
    counts = indptr[chosen + 1] - starts
    ptr = np.concatenate(([0], np.cumsum(counts)))
    owner = np.repeat(np.arange(chosen.size), counts)
    pos = (starts - ptr[:-1])[owner] + np.arange(owner.size)
    slots = classes[owner] * num_features + indices[pos][:, None]
    return ptr, owner, slots, data[pos]


def _sgd_step(
    ptr: np.ndarray,
    owner: np.ndarray,
    slots: np.ndarray,
    values: np.ndarray,
    classes: np.ndarray,
    flat_values: np.ndarray,
    scale: float | np.ndarray,
    biases: np.ndarray,
    scale_factor: float,
    batch_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The doubly stochastic step over gathered instances, without applying it.

    ``classes`` holds one (label, rivals...) row per instance and the other
    index arrays are as ``_gather`` returns them. Instance i reads the
    weight of class r and feature j as ``scale * flat_values[r * D + j]``,
    with ``scale`` a scalar or an (m, 1) column whose row i serves instance
    i. Returns the ``SparseDelta.coeffs`` of the instances' summed sampled
    bound, rescaled by ``scale_factor``, and the (m, S) rise of each rival's
    score above its label's, from which ``_bound_estimate`` takes a batch's
    bound. The instances form consecutive batches of ``batch_size``; only
    the NumericalError message uses that. Costs O(m * (S + 1) * nnz).
    """
    m, width = classes.shape
    nonempty = ptr[1:] > ptr[:-1]
    raw = np.zeros((m, width))
    # overflow is reported as NumericalError below, not as a warning, and
    # an infinite margin between finite scores is a valid sigmoid argument
    with np.errstate(over="ignore", invalid="ignore"):
        terms = flat_values[slots] * values[:, None]
        raw[nonempty] = np.add.reduceat(terms, ptr[:-1][nonempty], axis=0)
        scores = biases[classes] + scale * raw
        finite = np.isfinite(scores).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise NumericalError(
                f"non-finite score encountered (instance {i % batch_size}, "
                f"classes {classes[i].tolist()})"
            )
        return _ove_step(scores, scale_factor)


def stochastic_gradient(
    model: LinearModel,
    data: SparseDataset,
    rows: np.ndarray,
    num_sampled: int,
    rng: np.random.Generator,
) -> tuple[SparseDelta, float]:
    """One doubly stochastic gradient draw at the model's parameters.

    The minibatch is rows ``rows`` of ``data``, in that order, as ``train``
    sees a batch. Samples ``num_sampled`` rival classes per instance and
    returns the rescaled sparse gradient of the summed one-vs-each bound
    over the batch, together with the minibatch mean of the sampled bound
    values. In expectation over the rival draw the delta equals the
    full-batch data gradient restricted to the batch; the L2 term is not
    included. With num_sampled = K - 1 the draw is degenerate and the delta
    is the exact batch gradient. Raises ConfigError unless the model and
    the data have the same K and D and ``rows`` is a non-empty 1-D integer
    array of positions in ``data``.
    """
    _check_shapes(model, data)
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.size == 0 or rows.dtype.kind not in "iu":
        raise ConfigError("rows must be a non-empty 1-D integer array")
    if rows.min() < 0 or rows.max() >= len(data):
        raise ConfigError(f"rows must lie in [0, {len(data)})")
    mat, labels = data.to_csr()
    labels = labels[rows]
    num_classes = model.num_classes
    rivals = sample_rival_classes(rng, labels, num_classes=num_classes, num_sampled=num_sampled)
    classes = np.column_stack((labels, rivals))
    scale_factor = (num_classes - 1) / num_sampled
    ptr, owner, slots, values = _gather(
        mat.indptr, mat.indices, mat.data, rows, classes, model.num_features
    )
    coeffs, rise = _sgd_step(
        ptr, owner, slots, values, classes, np.ascontiguousarray(model.weights).reshape(-1),
        1.0, model.biases, scale_factor, rows.size,
    )
    return SparseDelta(classes, coeffs, owner, slots, values), _bound_estimate(rise, scale_factor)


@dataclass
class _Plan:
    """The weight-independent work of consecutive minibatches of one epoch.

    Instances ``j * b`` up to ``(j + 1) * b`` form batch j; ``classes``,
    ``ptr``, ``owner``, ``slots`` and ``values`` cover all of them, laid
    out by ``_gather``. ``groups`` lists the first batch of each group,
    then the batch count. A group is a run of consecutive batches whose
    rows are pairwise disjoint, grown greedily until the next batch shares
    a row with one of its batches.
    """

    classes: np.ndarray
    ptr: np.ndarray
    owner: np.ndarray
    slots: np.ndarray
    values: np.ndarray
    groups: list[int]


def _plan(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    chosen: np.ndarray,
    classes: np.ndarray,
    batch_size: int,
    num_classes: int,
    num_features: int,
) -> _Plan:
    """Plan the batches of CSR rows ``chosen``, whose (label, rivals...)
    rows ``classes`` are one chunk of ``_chunks``."""
    m = chosen.size
    num_batches = -(-m // batch_size)
    ptr, owner, slots, values = _gather(indptr, indices, data, chosen, classes, num_features)

    # distinct (batch, row) pairs by one sort, ordered by batch, then row
    keys = np.sort((np.arange(m) // batch_size)[:, None] * num_classes + classes, axis=None)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    key_batch, rows = np.divmod(keys, num_classes)

    # for each batch, the latest earlier batch that wrote any of its rows;
    # a stable sort by row keeps each row's batches ascending
    by_row = np.argsort(rows, kind="stable")
    writer, row_sorted = key_batch[by_row], rows[by_row]
    same = row_sorted[1:] == row_sorted[:-1]
    previous = np.full(keys.size, -1)
    previous[1:][same] = writer[:-1][same]
    latest = np.full(num_batches, -1)
    np.maximum.at(latest, writer, previous)

    groups = [0]
    for j, seen in enumerate(latest.tolist()):
        if seen >= groups[-1]:
            groups.append(j)
    groups.append(num_batches)
    return _Plan(classes, ptr, owner, slots, values, groups)


def _check_shapes(model: LinearModel, data: SparseDataset) -> None:
    if data.num_classes != model.num_classes or data.num_features != model.num_features:
        raise ConfigError(
            f"model is {model.num_classes} x {model.num_features} but data is "
            f"{data.num_classes} x {data.num_features}"
        )


def train(
    model: LinearModel,
    data: SparseDataset,
    config: TrainConfig,
) -> tuple[LinearModel, TrainTrace]:
    """Run doubly stochastic SGD on the one-vs-each bound.

    Maximizes sum_n bound_n(w) - lam/2 ||W||^2 over weights and biases
    (biases unpenalized). Every step is, in expectation over the rival
    draw, a positive multiple of the gradient of that one objective
    restricted to the minibatch, so the target does not drift with the
    batch size. Epochs sweep a fresh shuffle of the data; the learning
    rate is lr0 * lr_decay ** epoch, constant within an epoch. All
    gradient contributions of a minibatch are evaluated at the parameters
    from the start of the step, then applied in one update. Identical
    seed and config reproduce the run bit for bit. Returns a new model;
    the input model is not modified. Raises NumericalError if a score or
    a final parameter is not finite.

    Consecutive steps that write pairwise disjoint weight rows run as one
    vectorised group. A step reads only the rows it writes, so the result
    is bit for bit that of running the steps one at a time. Each group is
    one ``_sgd_step`` call, which receives every instance's (label,
    rivals...) row and the weight slots the update then writes.

    At a chunk start, a decay scalar g (see the module docstring) below
    ``_RENORM_THRESHOLD`` is folded into the weights, at O(K * D) cost. One
    epoch decays g by at least 1 - lr0 * lam, so at lr0 * lam = 1e-4 the
    first fold comes after more than 1e5 epochs.
    """
    _check_shapes(model, data)
    config.validate(num_classes=model.num_classes)
    n = len(data)
    if n == 0:
        raise ConfigError("dataset is empty")
    mat, labels_all = data.to_csr()
    indptr, feat_idx, feat_val = mat.indptr, mat.indices, mat.data

    num_classes = model.num_classes
    scale_factor = (num_classes - 1) / config.num_sampled

    # lazy decay: the true weights are g * values
    values = model.weights.copy()
    flat_values = values.reshape(-1)
    biases = model.biases.copy()
    g = 1.0

    trace = TrainTrace()
    t0 = time.perf_counter()
    step = 0
    b = min(config.batch_size, n)
    log_every = config.log_every

    for epoch, lr, chosen, classes in _chunks(labels_all, num_classes, config):
        plan = _plan(indptr, feat_idx, feat_val, chosen, classes, b, num_classes,
                     model.num_features)
        m, num_batches = chosen.size, plan.groups[-1]
        if g < _RENORM_THRESHOLD:
            values *= g
            g = 1.0
        # the batch supplies len(batch) of the n data terms, so the
        # penalty share keeping the step unbiased for the summed
        # objective is lam * len(batch) / n; gs[j] is g before batch j,
        # multiplied up in step order as the steps one at a time would
        decay = np.full(num_batches, 1.0 - lr * config.lam * (b / n))
        decay[-1] = 1.0 - lr * config.lam * ((m - (num_batches - 1) * b) / n)
        gs = np.multiply.accumulate(np.concatenate(([g], decay)))
        g = float(gs[-1])
        # instance i reads its scores with g_at[i] and divides its update
        # by g_at[i + b], the g before and after its batch
        g_at = np.repeat(gs, b)[:, None]

        for j0, j1 in zip(plan.groups, plan.groups[1:]):
            # every row below was written by exactly one batch of the
            # group, which reads no other row, so the group does to each
            # row what the steps one at a time would, in the same order
            i0, i1 = j0 * b, min(j1 * b, m)
            z0, z1 = plan.ptr[i0], plan.ptr[i1]
            owner, slots = plan.owner[z0:z1] - i0, plan.slots[z0:z1]
            feats, classes = plan.values[z0:z1], plan.classes[i0:i1]
            coeffs, rise = _sgd_step(
                plan.ptr[i0 : i1 + 1] - z0, owner, slots, feats, classes, flat_values,
                g_at[i0:i1], biases, scale_factor, b,
            )
            # an overflowing update shows as a non-finite score or
            # parameter later, reported as NumericalError
            with np.errstate(over="ignore", invalid="ignore"):
                # np.add.at, not a fancy-index +=, so that instances
                # sharing a (class, feature) pair all land
                steps = lr * coeffs
                row_steps = (steps / g_at[i0 + b : i1 + b])[owner]
                np.add.at(flat_values, slots, row_steps * feats[:, None])
                np.add.at(biases, classes, steps)

            # the first multiple of log_every at or after the group's start
            first_logged = -(-(step + j0) // log_every) * log_every
            for logged in range(first_logged, step + j1, log_every):
                k = logged - step - j0
                bound = _bound_estimate(rise[k * b : (k + 1) * b], scale_factor)
                elapsed_ms = (time.perf_counter() - t0) * 1000.0
                trace.rows.append((logged, bound, lr, epoch, elapsed_ms))
            last_rise = rise[(j1 - 1 - j0) * b :]
        step += num_batches

    if (step - 1) % log_every != 0:
        # make sure the trace always reflects the end of the run
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        trace.rows.append(
            (step - 1, _bound_estimate(last_rise, scale_factor), lr, epoch, elapsed_ms)
        )

    # fold g in and check the result in one pass, a cache-sized block of
    # rows at a time; 0 < g <= 1, so the product cannot overflow
    finite = np.isfinite(biases).all()
    for rows in _row_slices(*values.shape):
        block = values[rows]
        block *= g
        finite &= np.isfinite(block).all()
    if not finite:
        raise NumericalError(
            "training produced non-finite parameters; lower the learning rate"
        )
    return LinearModel(weights=values, biases=biases), trace


def _lbfgs(value_and_grad, model: LinearModel, settings: OptimizerSettings):
    """Maximize ``value_and_grad(model) -> (value, (grad_w, grad_b))`` by
    ``nonparam._maximize`` over the flat parameters. Returns the fitted model
    and the trace [(iteration, value)] from the start to the solution; raises
    ConvergenceError if the final gradient inf-norm exceeds the gate.
    """
    from scipy.optimize import OptimizeResult, minimize

    K, D = model.num_classes, model.num_features

    def unflatten(x: np.ndarray) -> LinearModel:  # a view: _maximize never writes x
        return LinearModel(x[: K * D].reshape(K, D), x[K * D :])

    def flat(x: np.ndarray):
        val, (gw, gb) = value_and_grad(unflatten(x))
        return val, np.concatenate((gw.ravel(), gb))

    def method(fun, x0, settings, **_):
        x, val, grad, trace, reason = _maximize(fun, x0, settings)
        return OptimizeResult(x=x, fun=val, jac=grad, nit=len(trace) - 1, message=reason,
                              success=reason == _CONVERGED, trace=trace)

    # minimize only passes the fit through, because perfbench's tracer and
    # stall probe hook it; once they trace _lbfgs, call _maximize directly and
    # drop the scipy.optimize import (0.27-0.39 s per process on 2 vCPUs).
    # No jac=True: scipy would then hand the method the value alone.
    x0 = np.concatenate((model.weights.ravel(), model.biases))
    res = minimize(flat, x0, method=method, options={"settings": settings})
    result = res.x, res.fun, res.jac, res.trace, res.message
    x, trace = _gated(result, settings, "full-batch fit stalled: ")
    return unflatten(x), trace


def fit_full_batch(
    model: LinearModel,
    data: SparseDataset,
    objective: Objective,
    settings: OptimizerSettings | None = None,
) -> tuple[LinearModel, list[tuple[int, float]]]:
    """Deterministically maximize a full-batch training objective.

    Supports all three objective kinds. For the Bouchard bound the
    per-instance alphas are re-solved exactly between weight passes, which
    can only increase the joint objective, and convergence is declared on
    the weight gradient at freshly optimal alphas; any alphas already on
    the objective are ignored. Returns the fitted model and an objective
    trace [(iteration, value)].

    Raises ConvergenceError if the gradient norm at the final iterate
    exceeds ``settings.grad_tol``.
    """
    if settings is None:
        settings = OptimizerSettings(grad_tol=1e-6)
    settings.validate()
    if objective.kind not in (KIND_EXACT, KIND_OVE, KIND_BOUCHARD):
        raise ConfigError(f"unknown objective kind {objective.kind!r}")
    if not 0 <= objective.lam < np.inf:
        raise ConfigError(f"lam must be >= 0 and finite, got {objective.lam}")
    _check_shapes(model, data)

    if objective.kind == KIND_BOUCHARD:
        # The joint objective is concave in (weights, alphas) and the inner
        # alpha maximum is unique, so the profile g(w) = max_a f(w, a) is
        # concave and, by the envelope property, its gradient is the partial
        # weight gradient at the maximizing alphas. Each evaluation therefore
        # re-solves the alphas exactly and one quasi-Newton run over the
        # weights finds the joint optimum; plain alternation would crawl here
        # because the two blocks are strongly coupled.
        def value_and_grad(m: LinearModel):
            alphas = optimal_alphas(m, data)
            fixed = Objective(kind=KIND_BOUCHARD, lam=objective.lam, per_instance_alpha=alphas)
            return bouchard_loglik(m, data, fixed), full_gradient(m, data, fixed)

    else:
        value_fn = exact_loglik if objective.kind == KIND_EXACT else ove_loglik

        def value_and_grad(m: LinearModel):
            return value_fn(m, data, lam=objective.lam), full_gradient(m, data, objective)

    return _lbfgs(value_and_grad, model, settings)
