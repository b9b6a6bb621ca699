"""Micro-cases for the traced run: the rival sampler, a K sweep, the ove stall.

Usage: python3 micro.py WORKDIR SEED OUT_JSON

Sampler: ``sample_rival_classes`` in the three regimes (sparse draws at
b=1 and b=100, and the dense branch at S=1000), median over batches of
calls. K sweep: library ``train`` at b=1, S=5 on the acceptance-9 generator
with a small D, at K in {1000, 10000, 30000}; the per-instance time is the
trace's final ``elapsed_ms`` (the SGD loop only) over the instances, so the
O(K*D) set-up and tail stay out of it. The paper's claim is that this
stays flat in K. Stall probe: the full-batch ``ove`` fit on the 1000-row
MNIST-shaped set (generator seed 4) on which it stops short of the
gradient tolerance (ROADMAP item 4); the final gradient inf-norm over the
tolerance reads above 1 while the defect stands.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import numpy as np

import gen

SAMPLER_CASES = (
    ("k3000-s5-b1", 3000, 5, 1, 4000),
    ("k3000-s5-b100", 3000, 5, 100, 2000),
    ("k3000-s1000-b100", 3000, 1000, 100, 40),
)
SWEEP_KS = (1000, 10_000, 30_000)
SWEEP_D = 1024
SWEEP_INDICATOR = 256
SWEEP_N = 3000
# the gradient tolerance fit_full_batch and the CLI use by default
GRAD_TOL = 1e-6


def sampler_us_per_call(seed: int) -> dict:
    from softmax_bounds.nonparam import sample_rival_classes

    out = {}
    for name, k, s, b, calls in SAMPLER_CASES:
        rng = np.random.default_rng([seed, k, s, b])
        labels = rng.integers(0, k, size=b)
        batches = []
        for _ in range(5):
            t = time.perf_counter()
            for _ in range(calls):
                sample_rival_classes(rng, labels, num_classes=k, num_sampled=s)
            batches.append((time.perf_counter() - t) / calls * 1e6)
        out[f"nonparam.sample_rival_classes.us_per_call.{name}"] = statistics.median(batches)
    return out


def sweep_us_per_instance(workdir: str, seed: int) -> dict:
    from softmax_bounds.config import TrainConfig
    from softmax_bounds.datasets import load_sparse
    from softmax_bounds.linear_model import LinearModel
    from softmax_bounds.trainer import train

    out = {}
    for k in SWEEP_KS:
        rng = np.random.default_rng([seed, k])
        labels, rows = gen.extreme_rows(rng, SWEEP_N, k, SWEEP_D, SWEEP_INDICATOR)
        path = os.path.join(workdir, f"sweep-k{k}.txt")
        gen.write_libsvm(path, labels, rows, k, SWEEP_D)
        data = load_sparse(path)
        cfg = TrainConfig(batch_size=1, num_sampled=5, lr0=3e-4, lr_decay=0.9,
                          epochs=1, lam=0.1, seed=seed, log_every=100)
        _, trace = train(LinearModel.zeros(k, SWEEP_D), data, cfg)
        trace_path = os.path.join(workdir, f"sweep-k{k}.csv")
        trace.to_csv(trace_path)
        with open(trace_path, encoding="utf-8") as fh:
            last = fh.read().strip().splitlines()[-1]
        elapsed_ms = float(last.rsplit(",", 1)[1])
        out[f"trainer.train.us_per_instance.k{k}"] = elapsed_ms * 1e3 / (SWEEP_N * cfg.epochs)
    return out


def ove_stall_probe(workdir: str) -> dict:
    import scipy.optimize

    from softmax_bounds.bounds import ConvergenceError
    from softmax_bounds.datasets import load_sparse
    from softmax_bounds.linear_model import KIND_OVE, LinearModel, Objective
    from softmax_bounds.trainer import fit_full_batch

    # the first 1000 of 1500 rows drawn together, as the stalling set was found
    labels, rows = gen.mnistlike_rows(np.random.default_rng([4, 2]), 1500)
    path = os.path.join(workdir, "stall-n1000.txt")
    gen.write_libsvm(path, labels[:1000], rows[:1000], 10, 784)
    data = load_sparse(path)
    solves = []
    original = scipy.optimize.minimize

    def minimize(*args, **kwargs):
        solves.append(original(*args, **kwargs))
        return solves[-1]

    scipy.optimize.minimize = minimize
    try:
        fit_full_batch(LinearModel.zeros(10, 784), data, Objective(kind=KIND_OVE, lam=1.0))
    except ConvergenceError:
        pass
    finally:
        scipy.optimize.minimize = original
    res = solves[-1]
    return {
        "fullbatch-mnistlike.ove_n1000.grad_over_tol": float(np.abs(res.jac).max()) / GRAD_TOL,
        "fullbatch-mnistlike.ove_n1000.nit": int(res.nit),
    }


def main(argv: list[str]) -> int:
    workdir, seed, out_path = argv[0], int(argv[1]), argv[2]
    metrics = sampler_us_per_call(seed)
    metrics.update(sweep_us_per_instance(workdir, seed))
    metrics.update(ove_stall_probe(workdir))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
