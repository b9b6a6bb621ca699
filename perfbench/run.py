"""Benchmark for the ``softmax-bounds`` CLI: four workloads, output checks, traces.

Usage (from the root of a checkout of the repository):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is one CLI command run through ``softmax_bounds.cli.main`` in
a fresh process with ``SOFTMAX_BOUNDS_THREADS=1``, against the checkout's own
``src``. The inputs are generated from ``--seed`` (the full-batch workload
fits one fixed dataset; see NOTES.md). With ``--trace 0`` the
named workload is repeated for about ``--seconds`` and the end-to-end metrics
are medians over the repetitions. With ``--trace 1`` every workload runs once
untraced and once with span recorders on the package's layer functions, and
the micro-cases run; the per-layer metrics come from the traced repetitions.
The last line of standard output is the result object; the line before it
records the environment. See ``perfbench/NOTES.md`` for the workloads,
metrics and predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
MIN_REPS = 2
MAX_REPS = 30
OP_TIMEOUT_S = 120

# K follows acceptance 9; D is smaller so the model (K x D doubles) and its
# checkpoint stay near 200 MB and the CLI process well under 1 GB
SGD = {"K": 3000, "D": 8000, "n_train": 3000, "n_test": 3000, "epochs": 2,
       "S": 5, "lam": 0.1, "lr": 1e-3, "lr_decay": 0.9}
# one fixed dataset (generator seed 4) whatever --seed is, as acceptance 5
# uses the fixed MNIST files: the fits are deterministic, and drawing the
# training data from --seed moves their iteration counts, and so the fit
# times, by up to 50% between seeds; a test split drawn from --seed moves
# the mean test nlpd by about 10%
FULLBATCH = {"K": 10, "D": 784, "n_train": 150, "n_test": 500, "lam": 1.0, "data_seed": 4}
ESTIMATE = {"K": 1000, "N": 100_000, "epochs": 10, "b": 100, "S": 10, "lr": 0.005}

WORKLOADS = ("sgd-b1", "sgd-b100", "fullbatch-mnistlike", "estimate-powerlaw")
FIT_OBJECTIVES = ("soft", "ove", "bouchard")


class CheckFailed(Exception):
    """An output of a command that exited 0 is missing, malformed or wrong."""


# ---------------------------------------------------------------- checks


def _finite(value, what: str, lo: float | None = None, hi: float | None = None) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise CheckFailed(f"{what} is not a finite number: {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        raise CheckFailed(f"{what} = {value!r} outside [{lo}, {hi}]")
    return float(value)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path}: {exc}") from None


def _read_csv(path: str) -> list[list[float]]:
    """Numeric rows of a CSV with a header; every cell must be finite."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CheckFailed(f"{path}: {exc}") from None
    if len(lines) < 2:
        raise CheckFailed(f"{path}: no data rows")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        try:
            row = [float(c) for c in line.split(",")]
        except ValueError:
            raise CheckFailed(f"{path}: line {n} is not numeric") from None
        for c in row:
            _finite(c, f"{path}: line {n}")
        rows.append(row)
    return rows


def _sha256(path: str, scope: str) -> str:
    """Recompute a manifest hash under its recorded scope."""
    h = hashlib.sha256()
    if scope == "full":
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    elif scope == "excluding-elapsed-ms":
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                h.update(",".join(line.rstrip("\n").split(",")[:-1]).encode("utf-8"))
                h.update(b"\n")
    else:
        raise CheckFailed(f"unknown hash scope {scope!r}")
    return h.hexdigest()


def check_manifest(out_dir: str, expected: set[str]) -> dict[str, str]:
    """Verify every output hash in manifest.json; return {file name: hash}."""
    manifest = _load_json(os.path.join(out_dir, "manifest.json"))
    hashes = {}
    for entry in manifest.get("outputs", []):
        name = os.path.basename(entry["path"])
        try:
            actual = _sha256(entry["path"], entry["scope"])
        except OSError as exc:
            raise CheckFailed(f"{name}: {exc}") from None
        if actual != entry["sha256"]:
            raise CheckFailed(f"{name}: manifest hash does not match the file ({entry['scope']})")
        hashes[name] = actual
    if set(hashes) != expected:
        raise CheckFailed(f"manifest lists {sorted(hashes)}, expected {sorted(expected)}")
    return hashes


def check_train(out_dir: str, num_classes: int, num_features: int) -> dict:
    report = _load_json(os.path.join(out_dir, "report.json"))["report"]
    values = {
        "error": _finite(report["error"], "report error", 0.0, 1.0),
        "nlpd": _finite(report["nlpd"], "report nlpd", 0.0),
    }
    _finite(report["bound_final"], "report bound_final")
    values["trace"] = _read_csv(os.path.join(out_dir, "trace.csv"))
    ckpt = os.path.join(out_dir, "checkpoint.bin")
    with open(ckpt, "rb") as fh:
        head = fh.read(24)
    if len(head) < 24 or head[:4] != b"SBLM":
        raise CheckFailed("checkpoint.bin: bad header")
    _, k, d = struct.unpack("<IQQ", head[4:])
    if (k, d) != (num_classes, num_features):
        raise CheckFailed(f"checkpoint.bin is {k} x {d}, expected {num_classes} x {num_features}")
    if os.path.getsize(ckpt) != 24 + 8 * (k * d + k):
        raise CheckFailed("checkpoint.bin: wrong size")
    values["hashes"] = check_manifest(out_dir, {"trace.csv", "checkpoint.bin", "report.json"})
    return values


def check_compare(out_dir: str, candidates: list[str]) -> dict:
    rows = _load_json(os.path.join(out_dir, "reports.json"))
    by_method = {r["method"]: r for r in rows}
    if sorted(by_method) != sorted(["soft"] + candidates):
        raise CheckFailed(f"reports.json methods {sorted(by_method)}")
    values = {}
    for method, row in by_method.items():
        _finite(row["error"], f"{method} error", 0.0, 1.0)
        _finite(row["nlpd"], f"{method} nlpd", 0.0)
        if method == "soft":
            if row["norm"] is not None:
                raise CheckFailed("reference row has a norm")
        else:
            values[f"{method}_norm"] = _finite(row["norm"], f"{method} norm", 0.0)
    values["hashes"] = check_manifest(out_dir, {"reports.csv", "reports.json"})
    return values


def check_estimate(out_dir: str, counts) -> dict:
    """Check probs.json and trace.csv against the label counts of the stream.

    The final L1 in the trace must be the L1 distance between the written
    probabilities and the exact MLE (the empirical frequencies).
    """
    num_classes = len(counts)
    total = sum(counts)
    probs = _load_json(os.path.join(out_dir, "probs.json"))["probs"]
    if len(probs) != num_classes:
        raise CheckFailed(f"probs.json has {len(probs)} classes")
    for p in probs:
        _finite(p, "probability", 0.0, 1.0)
    if abs(math.fsum(probs) - 1.0) > 1e-9:
        raise CheckFailed("probabilities do not sum to 1")
    trace = _read_csv(os.path.join(out_dir, "trace.csv"))
    for row in trace:
        _finite(row[1], "L1 trace value", 0.0, 2.0)
    l1 = math.fsum(abs(p - c / total) for p, c in zip(probs, counts))
    if abs(trace[-1][1] - l1) > 1e-9:
        raise CheckFailed(f"final L1 {trace[-1][1]!r} != {l1!r} recomputed from probs.json")
    if any(c and not p for p, c in zip(probs, counts)):
        raise CheckFailed("a class seen in the stream has probability 0")
    # mean negative log probability of the stream's labels
    nlpd = -math.fsum(c * math.log(p) for p, c in zip(probs, counts) if c) / total
    return {"l1": l1, "nlpd": nlpd,
            "hashes": check_manifest(out_dir, {"probs.json", "trace.csv"})}


# ------------------------------------------------------------ the runner


class Bench:
    """One workload at one seed: inputs, operations, checks and counts."""

    def __init__(self, root: str, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.inputs = os.path.join(workdir, "inputs")
        # the BLAS variables are already pinned in os.environ (see main); the
        # traced children import numpy before cli.main can apply the setting
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        SOFTMAX_BOUNDS_THREADS=THREADS)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reference_hashes: dict[str, dict] = {}
        self.input_sizes: dict[str, dict] = {}
        self.label_counts: list[int] | None = None
        self.rep_count = 0

    def log(self, text: str) -> None:
        print(f"[{self.workload}] {text}", file=sys.stderr, flush=True)

    # -- set-up

    def setup(self, repeats: int) -> float:
        """Generate and write the inputs ``repeats`` times, then warm the
        imports once; return the median generation time.

        The warm-up imports the package and scipy in a fresh process so that
        file caches are warm before the first timed command. It is not part
        of the set-up time: every command pays the imports again, in
        ``wall_s``.
        """
        times = []
        for _ in range(repeats):
            t = time.perf_counter()
            shutil.rmtree(self.inputs, ignore_errors=True)
            os.makedirs(self.inputs)
            self._generate()
            times.append(time.perf_counter() - t)
        warm = subprocess.run(
            [sys.executable, "-c",
             "import scipy.optimize, scipy.sparse\n"
             "import softmax_bounds.cli, softmax_bounds.trainer, "
             "softmax_bounds.metrics, softmax_bounds.manifest"],
            env=self.env, capture_output=True, text=True, timeout=OP_TIMEOUT_S,
        )
        if warm.returncode != 0:
            raise SystemExit(f"cannot import the package: {warm.stderr.strip()[-400:]}")
        return statistics.median(times)

    def _write(self, name: str, labels, rows, k: int, d: int) -> None:
        import gen

        nnz = gen.write_libsvm(os.path.join(self.inputs, name), labels, rows, k, d)
        self.input_sizes[name] = {"rows": len(labels), "nnz": nnz, "K": k, "D": d}

    def _generate(self) -> None:
        import numpy as np

        import gen

        if self.workload.startswith("sgd-"):
            c = SGD
            rng = np.random.default_rng([self.seed, 1])
            for split in ("train", "test"):
                y, rows = gen.extreme_rows(rng, c[f"n_{split}"], c["K"], c["D"])
                self._write(f"{split}.txt", y, rows, c["K"], c["D"])
        elif self.workload == "fullbatch-mnistlike":
            c = FULLBATCH
            y, rows = gen.mnistlike_rows(np.random.default_rng([c["data_seed"], 2]),
                                         c["n_train"], c["K"])
            self._write("train.txt", y, rows, c["K"], c["D"])
            y, rows = gen.mnistlike_rows(np.random.default_rng([c["data_seed"], 2]),
                                         c["n_test"], c["K"],
                                         sample_rng=np.random.default_rng([c["data_seed"], 3]))
            self._write("test.txt", y, rows, c["K"], c["D"])
        else:
            # the CLI draws the labels itself (--gen powerlaw); the same
            # public generator gives the counts the outputs are checked against
            from softmax_bounds.datasets import gen_powerlaw_categorical

            c = ESTIMATE
            labels, _ = gen_powerlaw_categorical(c["K"], c["N"], seed=self.seed)
            self.label_counts = np.bincount(labels, minlength=c["K"]).tolist()
            self.input_sizes["powerlaw labels"] = {"rows": c["N"], "K": c["K"]}

    # -- operations

    def run_op(self, key: str, cli_args: list[str], out_dir: str, check, traced: bool) -> dict:
        """Run one CLI command and check its outputs.

        Returns {"result": the child's record or None, "values": the checked
        output values, None when the operation failed, "spans": the traced
        spans or None}. A failed command's spans are kept: its work is real.
        """
        self.attempted += 1
        op = {"result": None, "values": None, "spans": None}
        result_path = out_dir + ".result.json"
        spans_path = out_dir + ".spans.json"
        cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path]
        if traced:
            cmd += ["--trace", spans_path, "--id", key]
        cmd += ["--"] + cli_args + ["--out", out_dir]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.failed += 1
            self.log(f"{key}: timed out after {OP_TIMEOUT_S} s")
            return op
        if proc.returncode != 0 or not os.path.exists(result_path):
            self.failed += 1
            self.log(f"{key}: runner exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return op
        op["result"] = _load_json(result_path)
        if traced:
            op["spans"] = _load_json(spans_path)["spans"]
        if op["result"]["rc"] != 0:
            self.failed += 1
            self.log(f"{key}: exit {op['result']['rc']}: {proc.stderr.strip()[-300:]}")
            return op
        try:
            values = check(out_dir)
            reference = self.reference_hashes.setdefault(key, values["hashes"])
            if values["hashes"] != reference:
                raise CheckFailed("output hashes differ from the first repetition at this seed")
        except CheckFailed as exc:
            self.failed += 1
            self.correct = False
            self.log(f"{key}: output check failed: {exc}")
            return op
        op["values"] = values
        return op

    def rep(self, traced: bool) -> dict:
        """One repetition of the workload: {"ops": [...], metric: sample}.

        The metrics are set only when every operation succeeded.
        """
        rep_dir = os.path.join(self.workdir, f"rep{self.rep_count}")
        self.rep_count += 1
        os.makedirs(rep_dir)
        try:
            if self.workload.startswith("sgd-"):
                sample = self._rep_sgd(rep_dir, traced)
            elif self.workload == "fullbatch-mnistlike":
                sample = self._rep_fullbatch(rep_dir, traced)
            else:
                sample = self._rep_estimate(rep_dir, traced)
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
        ops = sample["ops"]
        if any(op["values"] is None for op in ops):
            return {"ops": ops}
        sample["wall_s"] = sum(op["result"]["wall_s"] for op in ops)
        sample["peak_rss_mb"] = max(op["result"]["peak_rss_mb"] for op in ops)
        return sample

    def _rep_sgd(self, rep_dir: str, traced: bool) -> dict:
        c = SGD
        batch = "1" if self.workload == "sgd-b1" else "100"
        args = ["train", "--train", os.path.join(self.inputs, "train.txt"),
                "--test", os.path.join(self.inputs, "test.txt"),
                "--objective", "ove-sgd", "--b", batch, "--S", str(c["S"]),
                "--lam", str(c["lam"]), "--lr", str(c["lr"]), "--lr-decay", str(c["lr_decay"]),
                "--epochs", str(c["epochs"]), "--seed", str(self.seed)]
        op = self.run_op("train-ove-sgd", args, os.path.join(rep_dir, "sgd"),
                         lambda d: check_train(d, c["K"], c["D"]), traced)
        sample = {"ops": [op]}
        if op["values"] is not None:
            values = op["values"]
            # the trace's last elapsed_ms is the SGD loop alone
            loop_s = values["trace"][-1][-1] / 1000.0
            sample.update(nlpd=values["nlpd"], test_error=values["error"],
                          sgd_instances_per_s=c["n_train"] * c["epochs"] / loop_s)
        return sample

    def _rep_fullbatch(self, rep_dir: str, traced: bool) -> dict:
        c = FULLBATCH
        train_path = os.path.join(self.inputs, "train.txt")
        test_path = os.path.join(self.inputs, "test.txt")
        sample: dict = {"ops": []}
        nlpds = []
        for objective in FIT_OBJECTIVES:
            args = ["train", "--train", train_path, "--test", test_path,
                    "--objective", objective, "--lam", str(c["lam"])]
            op = self.run_op(f"train-{objective}", args, os.path.join(rep_dir, objective),
                             lambda d: check_train(d, c["K"], c["D"]), traced)
            sample["ops"].append(op)
            if op["values"] is None:
                return sample
            nlpds.append(op["values"]["nlpd"])
            sample[f"{objective}_fit_s"] = op["result"]["wall_s"]
        candidates = [o for o in FIT_OBJECTIVES if o != "soft"]
        args = ["compare", "--reference", "soft=" + os.path.join(rep_dir, "soft", "checkpoint.bin"),
                "--test", test_path]
        for name in candidates:
            args += ["--candidate", f"{name}=" + os.path.join(rep_dir, name, "checkpoint.bin")]
        op = self.run_op("compare", args, os.path.join(rep_dir, "compare"),
                         lambda d: check_compare(d, candidates), traced)
        sample["ops"].append(op)
        if op["values"] is not None:
            sample.update({k: v for k, v in op["values"].items() if k.endswith("_norm")})
        sample["nlpd"] = statistics.fmean(nlpds)
        return sample

    def _rep_estimate(self, rep_dir: str, traced: bool) -> dict:
        c = ESTIMATE
        args = ["estimate", "--method", "ove-sgd", "--gen", "powerlaw", "--K", str(c["K"]),
                "--N", str(c["N"]), "--b", str(c["b"]), "--S", str(c["S"]), "--lr", str(c["lr"]),
                "--epochs", str(c["epochs"]), "--seed", str(self.seed)]
        op = self.run_op("estimate-ove-sgd", args, os.path.join(rep_dir, "estimate"),
                         lambda d: check_estimate(d, self.label_counts), traced)
        sample = {"ops": [op]}
        if op["values"] is not None:
            sample.update(nlpd=op["values"]["nlpd"], estimate_l1=op["values"]["l1"])
        return sample


# ------------------------------------------------------------- metrics

END_TO_END = ("wall_s", "peak_rss_mb", "nlpd")


def run_untraced(bench: Bench, seconds: float) -> dict[str, float]:
    """Repeat the workload for about ``seconds``; medians of the metrics.

    After the first ``MIN_REPS`` repetitions, one starts only when the
    median repetition so far would end inside the window, so a run measures
    about ``seconds``.
    """
    setup_s = bench.setup(SETUP_REPEATS)
    samples, durations = [], []
    t0 = time.perf_counter()
    while len(samples) < MAX_REPS:
        if (len(samples) >= MIN_REPS
                and time.perf_counter() - t0 + statistics.median(durations) > seconds):
            break
        t = time.perf_counter()
        samples.append(bench.rep(traced=False))
        durations.append(time.perf_counter() - t)
        bench.log("repetition: " + json.dumps(
            {k: round(v, 6) for k, v in samples[-1].items() if k != "ops"}))
    metrics = {"setup_s": setup_s}
    for name in END_TO_END:
        values = [s[name] for s in samples if name in s]
        if values:
            metrics[name] = statistics.median(values)
    return metrics


def _aggregate(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds and counts."""
    children: dict[int, float] = {}
    for sid, parent, name, start, end, counts in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    agg: dict[str, dict] = {}
    for sid, parent, name, start, end, counts in spans:
        a = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        a["calls"] += 1
        a["s"] += end - start
        a["self_s"] += (end - start) - children.get(sid, 0.0)
        for key, value in counts.items():
            if isinstance(value, (int, float)):
                a[key] = a.get(key, 0) + value
    return agg


# Per-layer metrics of each workload's traced repetition, as (span, fields).
# Only the layers a workload runs are listed for it, so no metric reads 0.
# Ratios: us_per_row = s / rows, us_per_call = s / calls, ms_per_call =
# s / calls, us_per_instance = s / instances (all scaled).
_SGD_LAYERS = (
    ("cli.main", ("s", "self_s")),
    ("datasets.load_sparse", ("s", "rows", "us_per_row")),
    ("datasets.SparseDataset.to_csr", ("calls", "s")),
    ("nonparam.sample_rival_classes", ("calls", "s", "us_per_call")),
    ("trainer.train", ("s", "self_s", "us_per_instance")),
    ("linear_model.scores_matrix", ("calls", "s")),
    ("linear_model.ove_loglik", ("s",)),
    ("linear_model.predict_proba_all", ("s",)),
    ("linear_model.LinearModel.save", ("s", "bytes")),
    ("metrics.error_rate", ("s",)),
    ("metrics.nlpd", ("s",)),
    ("manifest.sha256_file", ("calls", "s", "bytes")),
)
LAYERS = {
    "sgd-b1": _SGD_LAYERS,
    "sgd-b100": _SGD_LAYERS,
    "fullbatch-mnistlike": (
        ("cli.main", ("s", "self_s")),
        ("datasets.load_sparse", ("calls", "s", "us_per_row")),
        ("datasets.SparseDataset.to_csr", ("calls", "s")),
        ("datasets.SparseDataset.labels", ("calls", "s")),
        ("trainer.fit_full_batch", ("s", "self_s")),
        ("trainer.lbfgs", ("self_s",)),
        ("linear_model.scores_matrix", ("calls", "s", "self_s")),
        ("linear_model.full_gradient", ("calls", "s", "self_s")),
        ("linear_model.exact_loglik", ("s",)),
        ("linear_model.ove_loglik", ("s",)),
        ("linear_model.bouchard_loglik", ("s",)),
        ("linear_model.optimal_alphas", ("calls",)),
        ("linear_model.predict_proba_all", ("s",)),
        ("linear_model.LinearModel.load", ("s",)),
        ("bounds.optimize_alpha_batch", ("calls", "s", "ms_per_call")),
        ("metrics.param_norm", ("s",)),
        ("manifest.sha256_file", ("calls", "s")),
    ),
    "estimate-powerlaw": (
        ("cli.main", ("s", "self_s")),
        ("nonparam.sample_rival_classes", ("calls", "s", "us_per_call")),
        ("nonparam.ove_sgd_fit", ("s", "self_s")),
        ("nonparam.exact_mle", ("s",)),
    ),
}
# Values of one whole workload that the untraced repetition of the traced
# run reports as <workload>.<name>: the SGD loop's throughput, the model's
# test error, the per-fit times, the compare norms and the estimator's L1
WORKLOAD_VALUES = {
    "sgd-b1": ("sgd_instances_per_s", "test_error"),
    "sgd-b100": ("sgd_instances_per_s", "test_error"),
    "fullbatch-mnistlike": ("soft_fit_s", "ove_fit_s", "bouchard_fit_s", "ove_norm",
                            "bouchard_norm"),
    "estimate-powerlaw": ("estimate_l1",),
}
_RATIOS = {"us_per_row": ("rows", 1e6), "us_per_call": ("calls", 1e6),
           "ms_per_call": ("calls", 1e3), "us_per_instance": ("instances", 1e6)}
_FIT_NAMES = {"exact_softmax": "soft", "ove": "ove", "bouchard": "bouchard"}
MICRO = (
    "nonparam.sample_rival_classes.us_per_call.k3000-s5-b1",
    "nonparam.sample_rival_classes.us_per_call.k3000-s5-b100",
    "nonparam.sample_rival_classes.us_per_call.k3000-s1000-b100",
    "trainer.train.us_per_instance.k1000",
    "trainer.train.us_per_instance.k10000",
    "trainer.train.us_per_instance.k30000",
    "fullbatch-mnistlike.ove_n1000.grad_over_tol",
    "fullbatch-mnistlike.ove_n1000.nit",
)


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in the order BENCHMARK.json lists them."""
    names = []
    for workload, layers in LAYERS.items():
        names += [f"{workload}.{span}.{field}" for span, fields in layers for field in fields]
        if workload == "fullbatch-mnistlike":
            names += ["fullbatch-mnistlike.datasets.to_csr_per_gradient"]
            names += [f"fullbatch-mnistlike.trainer.fit_full_batch.nit.{o}" for o in FIT_OBJECTIVES]
        names.append(f"{workload}.trace_overhead_s")
        names += [f"{workload}.{name}" for name in WORKLOAD_VALUES[workload]]
    return names + list(MICRO)


def per_layer(workload: str, command_spans: list[list[list]]) -> dict[str, float]:
    """The per-layer metrics of one traced repetition (spans per command)."""
    spans = []
    nit: dict[str, int] = {}
    for command in command_spans:
        offset = len(spans)
        by_id = {}
        for sid, parent, name, start, end, counts in command:
            by_id[sid] = (parent, name, counts)
            spans.append([sid + offset, None if parent is None else parent + offset,
                          name, start, end, counts])
        for sid, (parent, name, counts) in by_id.items():
            if name == "trainer.lbfgs" and parent is not None:
                kind = by_id[parent][2].get("kind")
                if kind in _FIT_NAMES:
                    key = _FIT_NAMES[kind]
                    nit[key] = nit.get(key, 0) + counts["nit"]
    agg = _aggregate(spans)
    out: dict[str, float] = {}
    for span, fields in LAYERS[workload]:
        if span not in agg:
            continue
        a = agg[span]
        for field in fields:
            if field in _RATIOS:
                base, scale = _RATIOS[field]
                value = a["s"] / a[base] * scale
            else:
                value = a[field]
            out[f"{workload}.{span}.{field}"] = value
    if workload == "fullbatch-mnistlike":
        if "linear_model.full_gradient" in agg:
            out[f"{workload}.datasets.to_csr_per_gradient"] = (
                agg["datasets.SparseDataset.to_csr"]["calls"]
                / agg["linear_model.full_gradient"]["calls"]
            )
        for key, value in nit.items():
            out[f"{workload}.trainer.fit_full_batch.nit.{key}"] = value
    return out


def run_traced(root: str, seed: int, workdir: str) -> tuple[dict, list[Bench]]:
    """One untraced and one traced repetition of every workload, then the
    micro-cases; returns the per-layer metrics and the workloads' benches."""
    metrics: dict[str, float] = {}
    benches = []
    for workload in WORKLOADS:
        bench = Bench(root, workload, seed, os.path.join(workdir, workload))
        benches.append(bench)
        bench.setup(1)
        plain = bench.rep(traced=False)
        traced = bench.rep(traced=True)
        metrics.update(per_layer(workload, [op["spans"] for op in traced["ops"] if op["spans"]]))
        if "wall_s" in plain and "wall_s" in traced:
            metrics[f"{workload}.trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
        metrics.update({f"{workload}.{name}": plain[name]
                        for name in WORKLOAD_VALUES[workload] if name in plain})
        bench.log(f"traced repetition: {traced.get('wall_s')} s, untraced {plain.get('wall_s')} s")
    micro_out = os.path.join(workdir, "micro.json")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "micro.py"), workdir,
                           str(seed), micro_out],
                          env=benches[0].env, timeout=OP_TIMEOUT_S)
    if proc.returncode == 0:
        metrics.update(_load_json(micro_out))
    else:
        print(f"micro-cases exited {proc.returncode}", file=sys.stderr)
    return metrics, benches


# ----------------------------------------------------------- environment


def environment(benches: list[Bench], root: str, args) -> dict:
    from importlib import metadata

    import numpy

    rev = None
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(root):
            rev = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "softmax_bounds")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "git_rev": rev,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "cpu_count": os.cpu_count(),
        "threads": int(THREADS),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "repetitions": {b.workload: b.rep_count for b in benches},
        "inputs": {b.workload: b.input_sizes for b in benches},
    }


# ------------------------------------------------------------------ main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "softmax_bounds", "cli.py")):
        print("error: run from the root of a checkout (src/softmax_bounds/cli.py not found)",
              file=sys.stderr)
        return 2
    # pinned here for the generators' numpy and inherited by every child
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    sys.path.insert(0, HERE)
    sys.path.insert(1, os.path.join(root, "src"))

    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if args.trace:
            metrics, benches = run_traced(root, args.seed, workdir)
        else:
            benches = [Bench(root, args.workload, args.seed, workdir)]
            metrics = run_untraced(benches[0], args.seconds)
        expected = load_spec(root)["per_layer" if args.trace else "end_to_end"]
        missing = [m["name"] for m in expected if m["name"] not in metrics]
        if missing:
            print(f"metrics not measured: {missing}", file=sys.stderr)
        units = {m["name"]: m["unit"] for m in expected}
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        print(json.dumps({"environment": environment(benches, root, args)}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(json.dumps({
        "correct": all(b.correct for b in benches),
        "attempted": sum(b.attempted for b in benches),
        "failed": sum(b.failed for b in benches),
        "metrics": result_metrics,
    }))
    return 0


def load_spec(root: str) -> dict:
    """BENCHMARK.json, which declares every metric with its unit."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
