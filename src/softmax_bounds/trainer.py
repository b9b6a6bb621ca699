"""Doubly stochastic training of the one-vs-each classification bound.

Each optimizer step draws a minibatch of instances and, independently per
instance, a uniform subset of S rival classes. The sampled rival terms are
rescaled by (K - 1) / S, which makes the step an unbiased estimate of the
minibatch gradient of the full bound. An update therefore touches only the
rows {label} union {sampled rivals} and, within each row, only the feature
indices present in the instance: cost O(b * (S + 1) * nnz) per step,
independent of K and D.

At small b that arithmetic is tiny next to the fixed cost of a numpy call,
so ``train`` plans the weight-independent index work of a chunk of steps in
a few vectorised passes, with one sampler call for the chunk's rivals, and
runs each maximal run of consecutive steps whose touched rows are pairwise
disjoint as one kernel call. A step reads only the rows it writes, so the
fused run is bit-identical to the steps one at a time. At b = 1 such a run
holds about sqrt(pi K / 2) / (S + 1) steps, so the cost per instance falls
as K grows.

L2 regularization would break that cost model (decay touches every
parameter), so it is applied lazily: weights are stored as
``w[r] = scale[r] * v[r]`` with one scalar scale per row, a global running
log-product of decay factors, and a per-row snapshot of that log-product.
Touching a row folds in the decay it missed; materialization at the end
settles every row. Biases are never regularized and update directly.

``fit_full_batch`` is the deterministic counterpart used for the baseline
objectives (exact softmax, full OVE, Bouchard with per-instance alphas);
it drives the analytic gradients from :mod:`softmax_bounds.linear_model`
with scipy's L-BFGS and verifies the gradient norm at the solution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from softmax_bounds.bounds import ConvergenceError, _log_sigmoid_impl, _sigmoid_impl
from softmax_bounds.config import ConfigError, NumericalError, OptimizerSettings, TrainConfig
from softmax_bounds.datasets import SparseDataset, SparseVector, _check_arrays
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
from softmax_bounds.nonparam import _CHUNK, sample_rival_classes
from softmax_bounds.rng import substream

__all__ = [
    "TrainTrace",
    "SparseDelta",
    "stochastic_gradient",
    "train",
    "fit_full_batch",
]

# fold a row's scale into its values once it drifts this small, so long
# untouched stretches under strong decay cannot underflow the scale
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

    def bound_estimates(self) -> list[float]:
        return [r[1] for r in self.rows]

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

    def touched_rows(self) -> np.ndarray:
        return np.unique(self.classes)

    def to_dense(self, num_classes: int, num_features: int) -> tuple[np.ndarray, np.ndarray]:
        grad_w = np.zeros(num_classes * num_features)
        np.add.at(grad_w, self.slots, self.coeffs[self.owner] * self.values[:, None])
        grad_b = np.zeros(num_classes)
        np.add.at(grad_b, self.classes, self.coeffs)
        return grad_w.reshape(num_classes, num_features), grad_b


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
    scale: np.ndarray,
    biases: np.ndarray,
    scale_factor: float,
    batch_size: int,
) -> tuple[SparseDelta, np.ndarray]:
    """The doubly stochastic step over gathered instances, without applying it.

    ``classes`` holds one (label, rivals...) row per instance and the other
    index arrays are as ``_gather`` returns them. The weight of class r and
    feature j is ``scale[r] * flat_values[r * D + j]``. Returns the sparse
    delta of the instances' summed sampled bound, rescaled by
    ``scale_factor``, and the (m, S) sampled log-sigmoid terms, from which
    ``_bound_estimate`` takes a batch's bound. The instances form
    consecutive batches of ``batch_size``; only the NumericalError message
    uses that. Costs O(m * (S + 1) * nnz).
    """
    m, width = classes.shape
    nonempty = ptr[1:] > ptr[:-1]
    raw = np.zeros((m, width))
    # overflow is reported as NumericalError below, not as a warning, and
    # an infinite margin between finite scores is a valid sigmoid argument
    with np.errstate(over="ignore", invalid="ignore"):
        terms = flat_values[slots] * values[:, None]
        raw[nonempty] = np.add.reduceat(terms, ptr[:-1][nonempty], axis=0)
        scores = biases[classes] + scale[classes] * raw
        finite = np.isfinite(scores).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise NumericalError(
                f"non-finite score encountered (instance {i % batch_size}, "
                f"classes {classes[i].tolist()})"
            )
        margins = scores[:, :1] - scores[:, 1:]
        sig = _sigmoid_impl(-margins)
        log_terms = _log_sigmoid_impl(margins)
    # d/df_y sum log sigmoid(f_y - f_m) = sum sigma(f_m - f_y)
    coeffs = np.empty((m, width))
    coeffs[:, 0] = scale_factor * sig.sum(axis=1)
    coeffs[:, 1:] = -scale_factor * sig
    return SparseDelta(classes, coeffs, owner, slots, values), log_terms


def _bound_estimate(terms: np.ndarray, scale_factor: float) -> float:
    """A batch's mean sampled bound from its rows of ``_sgd_step`` terms."""
    return scale_factor * float(terms.sum()) / len(terms)


def stochastic_gradient(
    model: LinearModel,
    batch: list[tuple[SparseVector, int]],
    num_sampled: int,
    rng: np.random.Generator,
) -> tuple[SparseDelta, float]:
    """One doubly stochastic gradient draw at the model's parameters.

    Samples ``num_sampled`` rival classes per instance and returns the
    rescaled sparse gradient of the summed one-vs-each bound over the
    batch, together with the minibatch mean of the sampled bound values.
    In expectation over the rival draw the delta equals the full-batch
    data gradient restricted to the batch; the L2 term is not included.
    With num_sampled = K - 1 the draw is degenerate and the delta is the
    exact batch gradient. Raises ValueError, naming the instance, for a
    vector that is not a valid row of the model's feature space.
    """
    if not batch:
        raise ConfigError("batch must be non-empty")
    num_classes = model.num_classes
    labels = np.array([label for _, label in batch], dtype=np.int64)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ConfigError("batch label out of range")
    indptr = np.cumsum([0] + [vec.indices.size for vec, _ in batch])
    indices = np.concatenate([vec.indices for vec, _ in batch])
    data = np.concatenate([vec.values for vec, _ in batch])
    _check_arrays(indptr, indices, data, labels, model.num_features, num_classes)
    rivals = sample_rival_classes(rng, labels, num_classes=num_classes, num_sampled=num_sampled)
    classes = np.column_stack((labels, rivals))
    scale_factor = (num_classes - 1) / num_sampled
    delta, terms = _sgd_step(
        *_gather(indptr, indices, data, np.arange(labels.size), classes, model.num_features),
        classes,
        np.ascontiguousarray(model.weights).reshape(-1),
        np.ones(num_classes),
        model.biases,
        scale_factor,
        labels.size,
    )
    return delta, _bound_estimate(terms, scale_factor)


@dataclass
class _Plan:
    """The weight-independent work of consecutive minibatches of one epoch.

    Instances ``j * b`` up to ``(j + 1) * b`` form batch j; ``classes``,
    ``ptr``, ``owner``, ``slots`` and ``values`` cover all of them, laid
    out by ``_gather``. Batch j wrote the sorted weight rows
    ``rows[row_ptr[j]:row_ptr[j + 1]]``, and ``row_batch`` names the batch
    of every entry of ``rows``. ``groups`` lists the first batch of each
    group, then the batch count. A group is a run of consecutive batches
    whose rows are pairwise disjoint, grown greedily until the next batch
    shares a row with one of its batches.
    """

    classes: np.ndarray
    ptr: np.ndarray
    owner: np.ndarray
    slots: np.ndarray
    values: np.ndarray
    rows: np.ndarray
    row_batch: np.ndarray
    row_ptr: list[int]
    groups: list[int]


def _plan(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    chosen: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    num_classes: int,
    num_features: int,
    num_sampled: int,
    class_rng: np.random.Generator,
) -> _Plan:
    """Plan the batches of ``chosen``, drawing all their rivals in one sampler call."""
    m = chosen.size
    num_batches = -(-m // batch_size)
    classes = np.column_stack(
        (labels, sample_rival_classes(class_rng, labels, num_classes, num_sampled))
    )
    ptr, owner, slots, values = _gather(indptr, indices, data, chosen, classes, num_features)

    # distinct (batch, row) pairs by one sort, ordered by batch, then row
    keys = np.sort((np.arange(m) // batch_size)[:, None] * num_classes + classes, axis=None)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    row_batch, rows = np.divmod(keys, num_classes)
    row_ptr = np.searchsorted(row_batch, np.arange(num_batches + 1)).tolist()

    # for each batch, the latest earlier batch that wrote any of its rows;
    # a stable sort by row keeps each row's batches ascending
    by_row = np.argsort(rows, kind="stable")
    writer, row_sorted = row_batch[by_row], rows[by_row]
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
    return _Plan(classes, ptr, owner, slots, values, rows, row_batch, row_ptr, groups)


def train(
    model: LinearModel,
    data: SparseDataset,
    config: TrainConfig,
    probe=None,
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
    is bit for bit that of running the steps one at a time.

    ``probe``, if given, is called once per step, in step order, as
    ``probe(step, rows)`` with the sorted array of weight rows the step
    wrote. The call comes after the step's update has been applied,
    possibly together with the other steps of its group. It exists for
    instrumentation and must not mutate anything.
    """
    if data.num_classes != model.num_classes or data.num_features != model.num_features:
        raise ConfigError(
            f"model is {model.num_classes} x {model.num_features} but data is "
            f"{data.num_classes} x {data.num_features}"
        )
    config.validate(num_classes=model.num_classes)
    n = len(data)
    if n == 0:
        raise ConfigError("dataset is empty")
    mat, labels_all = data.to_csr()
    indptr, feat_idx, feat_val = mat.indptr, mat.indices, mat.data

    shuffle_rng = substream(config.seed, "shuffle")
    class_rng = substream(config.seed, "classes")

    num_classes = model.num_classes
    scale_factor = (num_classes - 1) / config.num_sampled
    lam = config.lam

    # lazy-decay state: true weights are scale[r] * values[r]; cum_log is
    # the log of the total decay applied so far and row_log[r] records the
    # cum_log at which row r last folded its share in
    values = model.weights.copy()
    flat_values = values.reshape(-1)
    scale = np.ones(num_classes)
    biases = model.biases.copy()
    cum_log = 0.0
    row_log = np.zeros(num_classes)

    trace = TrainTrace()
    t0 = time.perf_counter()
    step = 0
    b = min(config.batch_size, n)
    chunk = max(1, _CHUNK // b) * b
    log_every = config.log_every

    for epoch in range(config.epochs):
        lr = config.lr0 * config.lr_decay**epoch
        order = shuffle_rng.permutation(n)
        for first in range(0, n, chunk):
            chosen = order[first : first + chunk]
            plan = _plan(
                indptr, feat_idx, feat_val, chosen, labels_all[chosen], b, num_classes,
                model.num_features, config.num_sampled, class_rng,
            )
            m, num_batches = chosen.size, plan.groups[-1]
            # the batch supplies len(batch) of the n data terms, so the
            # penalty share keeping the step unbiased for the summed
            # objective is lam * len(batch) / n; each distinct log is taken
            # as a scalar and accumulated in step order, as a running sum
            decay = np.full(num_batches, 1.0 - lr * lam * (b / n))
            decay[-1] = 1.0 - lr * lam * ((m - (num_batches - 1) * b) / n)
            log_decay = np.full(num_batches, np.log(decay[0]))
            log_decay[-1] = np.log(decay[-1])
            cum = np.add.accumulate(np.concatenate(([cum_log], log_decay)))
            cum_log = cum[-1]
            row_before = cum[plan.row_batch]
            row_after = cum[plan.row_batch + 1]
            row_decay = decay[plan.row_batch]

            for g0, g1 in zip(plan.groups, plan.groups[1:]):
                # every row below was written by exactly one batch of the
                # group, which reads no other row, so the group does to each
                # row what the steps one at a time would, in the same order
                i0, i1 = g0 * b, min(g1 * b, m)
                r0, r1 = plan.row_ptr[g0], plan.row_ptr[g1]
                z0, z1 = plan.ptr[i0], plan.ptr[i1]
                rows = plan.rows[r0:r1]
                # exp(0) is exactly 1, so rows with nothing pending keep
                # their scale
                scale[rows] *= np.exp(row_before[r0:r1] - row_log[rows])
                delta, terms = _sgd_step(
                    plan.ptr[i0 : i1 + 1] - z0, plan.owner[z0:z1] - i0, plan.slots[z0:z1],
                    plan.values[z0:z1], plan.classes[i0:i1], flat_values, scale, biases,
                    scale_factor, b,
                )
                # an overflowing update shows as a non-finite score or
                # parameter later, reported as NumericalError
                with np.errstate(over="ignore", invalid="ignore"):
                    scale[rows] *= row_decay[r0:r1]
                    row_log[rows] = row_after[r0:r1]
                    # np.add.at, not a fancy-index +=, so that instances
                    # sharing a (class, feature) pair all land
                    steps = lr * delta.coeffs
                    row_steps = (steps / scale[delta.classes])[delta.owner]
                    np.add.at(flat_values, delta.slots, row_steps * delta.values[:, None])
                    np.add.at(biases, delta.classes, steps)
                    small = rows[np.abs(scale[rows]) < _RENORM_THRESHOLD]
                    if small.size:
                        values[small] *= scale[small, None]
                        scale[small] = 1.0

                if probe is not None:
                    for j in range(g0, g1):
                        probe(step + j, plan.rows[plan.row_ptr[j] : plan.row_ptr[j + 1]])
                # the first multiple of log_every at or after the group's start
                first_logged = -(-(step + g0) // log_every) * log_every
                for logged in range(first_logged, step + g1, log_every):
                    k = logged - step - g0
                    bound = _bound_estimate(terms[k * b : (k + 1) * b], scale_factor)
                    elapsed_ms = (time.perf_counter() - t0) * 1000.0
                    trace.rows.append((logged, bound, lr, epoch, elapsed_ms))
                last_terms = terms[(g1 - 1 - g0) * b :]
            step += num_batches

    if (step - 1) % log_every != 0:
        # make sure the trace always reflects the end of the run
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        trace.rows.append(
            (step - 1, _bound_estimate(last_terms, scale_factor), lr, epoch, elapsed_ms)
        )

    with np.errstate(over="ignore", invalid="ignore"):
        scale *= np.exp(cum_log - row_log)
        values *= scale[:, None]
    if not (np.isfinite(values).all() and np.isfinite(biases).all()):
        raise NumericalError(
            "training produced non-finite parameters; lower the learning rate"
        )
    return LinearModel(weights=values, biases=biases), trace


def _unflatten(x: np.ndarray, num_classes: int, num_features: int) -> LinearModel:
    split = num_classes * num_features
    return LinearModel(
        weights=x[:split].reshape(num_classes, num_features).copy(),
        biases=x[split:].copy(),
    )


def _lbfgs(value_and_grad, model: LinearModel, settings: OptimizerSettings):
    """Maximize ``value_and_grad(model) -> (value, (grad_w, grad_b))`` with L-BFGS.

    Returns the fitted model and the objective trace [(iteration, value)],
    one entry per iteration plus one at the solution. Raises
    ConvergenceError if the gradient inf-norm at the final iterate exceeds
    ``settings.grad_tol``.
    """
    from scipy.optimize import minimize

    K, D = model.num_classes, model.num_features
    trace: list[tuple[int, float]] = []
    last = {"f": None}

    def negated(x: np.ndarray):
        val, (gw, gb) = value_and_grad(_unflatten(x, K, D))
        last["f"] = val
        return -val, -np.concatenate((gw.ravel(), gb))

    def record(xk: np.ndarray) -> None:
        trace.append((len(trace), float(last["f"])))

    res = minimize(
        negated,
        np.concatenate((model.weights.ravel(), model.biases)),
        jac=True,
        method="L-BFGS-B",
        callback=record,
        options={
            "maxiter": settings.max_iter,
            "maxfun": settings.max_iter * 4,
            "gtol": settings.grad_tol * 0.5,
            "ftol": 1e-16,
        },
    )
    fitted = _unflatten(res.x, K, D)
    val, (gw, gb) = value_and_grad(fitted)
    # np.maximum keeps a NaN from either side, where max() may drop it
    gnorm = np.maximum(np.abs(gw).max(), np.abs(gb).max())
    if not gnorm <= settings.grad_tol:
        raise ConvergenceError(
            f"full-batch fit stalled: gradient inf-norm {gnorm:.3e} exceeds "
            f"{settings.grad_tol:.3e} after {res.nit} iterations ({res.message})"
        )
    trace.append((len(trace), val))
    return fitted, trace


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
    if not objective.lam >= 0:
        raise ConfigError(f"lam must be >= 0, got {objective.lam}")
    if data.num_classes != model.num_classes or data.num_features != model.num_features:
        raise ConfigError(
            f"model is {model.num_classes} x {model.num_features} but data is "
            f"{data.num_classes} x {data.num_features}"
        )

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
