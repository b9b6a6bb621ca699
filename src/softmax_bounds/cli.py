"""``softmax-bounds``: reproducible estimation, training, and comparison runs.

Three subcommands:

* ``estimate`` fits a categorical distribution from label counts or a
  label stream through the exact MLE, a bound surrogate, or the doubly
  stochastic estimator, and writes the fitted probabilities plus an
  iteration trace.
* ``train`` fits a linear classifier on a sparse dataset with one of the
  training objectives and writes a checkpoint, a trace, and a report.
* ``compare`` scores candidate checkpoints against a reference
  checkpoint on a test set in a method/norm/error/nlpd table.

Every command writes a ``manifest.json`` listing input hashes, output
hashes, and the configuration, so reruns can be verified byte for byte.
Its outputs land in ``--out`` together once it has succeeded, the
manifest last; a command that fails leaves ``--out`` as it was.
Set ``SOFTMAX_BOUNDS_THREADS`` to pin the BLAS/OpenMP thread count; it
must take effect before numpy first loads, which is why this module
imports the numerical stack lazily. It does not cover the one helper
thread on which ``train`` writes and hashes the checkpoint.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2
EXIT_DATA = 3

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _configure_threads() -> None:
    threads = os.environ.get("SOFTMAX_BOUNDS_THREADS")
    if threads:
        for var in _THREAD_ENV_VARS:
            os.environ.setdefault(var, threads)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softmax-bounds",
        description="Softmax lower-bound estimation and training experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser(
        "estimate", help="fit a categorical distribution through a surrogate"
    )
    est.add_argument(
        "--method",
        required=True,
        choices=["exact", "ove", "bouchard", "ove-sgd"],
    )
    src = est.add_mutually_exclusive_group(required=True)
    src.add_argument("--counts", help="comma-separated class counts, e.g. 2,3,5")
    src.add_argument("--labels", help="text file with one 1-based label per line")
    src.add_argument(
        "--gen",
        choices=["powerlaw"],
        help="draw labels from a synthetic distribution instead of a file",
    )
    est.add_argument("--K", type=int, help="classes (required with --gen); pads --counts or --labels")
    est.add_argument("--N", type=int, help="number of draws (with --gen only, and required there)")
    est.add_argument("--b", type=int, default=100, help="minibatch size (ove-sgd)")
    est.add_argument("--S", type=int, default=10, help="sampled rival classes (ove-sgd)")
    est.add_argument("--lr", type=float, default=0.005, help="initial step size (ove-sgd)")
    est.add_argument("--lr-decay", type=float, default=0.9)
    est.add_argument("--epochs", type=int, default=50)
    est.add_argument("--log-every", type=int, default=100)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--out", default=".", help="output directory")

    tr = sub.add_parser("train", help="train a linear classifier")
    tr.add_argument("--train", required=True, help="training set (sparse text format)")
    tr.add_argument("--test", help="held-out set for the report (defaults to train)")
    tr.add_argument(
        "--objective",
        required=True,
        choices=["soft", "ove", "bouchard", "ove-sgd"],
        help="soft/ove/bouchard run the deterministic full-batch fit",
    )
    tr.add_argument("--b", type=int, default=1, help="minibatch size (ove-sgd)")
    tr.add_argument("--S", type=int, default=1, help="sampled rival classes (ove-sgd)")
    tr.add_argument("--lr", type=float, default=0.05, help="initial step size (ove-sgd)")
    tr.add_argument("--lr-decay", type=float, default=0.9)
    tr.add_argument("--epochs", type=int, default=5)
    tr.add_argument("--log-every", type=int, default=100)
    tr.add_argument("--lam", type=float, default=1.0, help="L2 strength")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--num-classes", type=int, help="override inferred class count")
    tr.add_argument("--num-features", type=int, help="override inferred feature count")
    tr.add_argument("--out", default=".", help="output directory")

    cmp_ = sub.add_parser(
        "compare", help="score candidate checkpoints against a reference"
    )
    cmp_.add_argument(
        "--reference", required=True, metavar="NAME=CHECKPOINT",
        help="reference method name and checkpoint path",
    )
    cmp_.add_argument(
        "--candidate", action="append", default=[], metavar="NAME=CHECKPOINT",
        help="candidate method (repeatable)",
    )
    cmp_.add_argument("--test", required=True, help="test set, read with the reference's K and D")
    cmp_.add_argument("--out", default=".", help="output directory")
    return parser


def _refuse_oversize(values: int, what: str, source: str, error) -> None:
    """Raise ``error`` naming ``source`` when ``what`` holds ``values`` 8-byte
    numbers, past the ``sys.maxsize`` bytes one numpy array can hold."""
    if 8 * values > sys.maxsize:
        raise error(f"{source}: {what} needs more than the {sys.maxsize} bytes one array can hold")


def _parse_counts(text: str, num_classes: int | None) -> "np.ndarray":
    import numpy as np

    from softmax_bounds.config import ConfigError

    try:
        counts = [int(c) for c in text.split(",")]
    except ValueError:
        raise ConfigError(f"--counts must be comma-separated integers, got {text!r}") from None
    limits = np.iinfo(np.int64)
    for c in counts:
        if not limits.min <= c <= limits.max:
            raise ConfigError(f"--counts value {c} does not fit in int64")
    k = len(counts) if num_classes is None else num_classes
    if k < len(counts):
        raise ConfigError(f"--K {k} is below the {len(counts)} classes of --counts")
    return np.pad(np.array(counts, dtype=np.int64), (0, k - len(counts)))


def _train_config(args, **extra):
    """The ``TrainConfig`` of the doubly stochastic flags that ``estimate``
    and ``train`` share, plus ``extra`` fields."""
    from softmax_bounds.config import TrainConfig

    return TrainConfig(
        batch_size=args.b,
        num_sampled=args.S,
        lr0=args.lr,
        lr_decay=args.lr_decay,
        epochs=args.epochs,
        seed=args.seed,
        log_every=args.log_every,
        **extra,
    )


@contextlib.contextmanager
def _publishing(args):
    """Yield the command's manifest and ``stage(name, write, scope)``, and
    publish the staged outputs in ``--out`` all or none.

    ``stage`` creates ``--out`` and calls ``write`` on ``.<name>.partial``
    there; a digest that ``write`` returns is the file's full-scope hash.
    Once the body has succeeded, the files about to be replaced move aside,
    the old manifest first; each output moves into place and is recorded
    under its final name, in staging order; and the manifest is staged and
    moved in last. On any exception the moves are undone and the staged
    files removed, so ``--out`` is left as it was.
    """
    from softmax_bounds.manifest import SCOPE_FULL, RunManifest

    t0 = time.perf_counter()
    manifest = RunManifest(command=[args.command] + _args_echo(args),
                           seed=getattr(args, "seed", None))
    out, staged, moved = args.out, [], []

    def stage(name, write, scope=SCOPE_FULL):
        os.makedirs(out, exist_ok=True)
        entry = [os.path.join(out, f".{name}.partial"), os.path.join(out, name), scope, None]
        staged.append(entry)
        entry[3] = write(entry[0])  # the helper thread of train calls this too

    def move(src, dst):
        os.replace(src, dst)
        moved.append((src, dst))

    try:
        yield manifest, stage
        finals = [os.path.join(out, "manifest.json")] + [final for _, final, _, _ in staged]
        for final in filter(os.path.exists, finals):
            move(final, os.path.join(out, f".{os.path.basename(final)}.previous"))
        backups = [dst for _, dst in moved]
        for partial, final, scope, sha256 in staged:
            move(partial, final)
            manifest.add_output(final, scope=scope, sha256=sha256)
        manifest.timings["wall_s"] = time.perf_counter() - t0
        stage("manifest.json", manifest.write)
        partial, final, *_ = staged[-1]
        move(partial, final)
    except BaseException:
        for src, dst in reversed(moved):
            os.replace(dst, src)
        for partial, *_ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(partial)
        raise
    for backup in backups:
        os.remove(backup)


def _write_value_trace(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,value\n")
        for it, value in rows:
            fh.write(f"{it},{float(value)!r}\n")


def _cmd_estimate(args, manifest, stage) -> str:
    from softmax_bounds.config import ConfigError
    from softmax_bounds.datasets import DatasetFormatError, gen_powerlaw_categorical, load_sparse
    from softmax_bounds.manifest import write_json
    from softmax_bounds.nonparam import (
        CountVector,
        bouchard_fit,
        exact_mle,
        ove_fit,
        ove_sgd_fit,
    )

    for flag, size, what in (("--K", args.K, "a count vector"), ("--N", args.N, "a label stream")):
        _refuse_oversize(size or 0, f"{what} that long", f"{flag} {size}", ConfigError)
    labels = None
    if args.gen is not None:
        if args.K is None or args.N is None:
            raise ConfigError("--gen requires --K and --N")
        labels, _ = gen_powerlaw_categorical(args.K, args.N, seed=args.seed)
        num_classes = args.K
    elif args.N is not None:
        raise ConfigError("--N applies only with --gen")
    elif args.labels is not None:
        data = load_sparse(args.labels)
        if data.to_csr()[0].nnz:
            raise DatasetFormatError(
                f"{args.labels}: holds idx:val pairs; a label file has one 1-based label per line"
            )
        labels = data.labels()
        manifest.add_dataset(args.labels)
        num_classes = args.K if args.K is not None else data.num_classes
        _refuse_oversize(num_classes, f"a {num_classes}-class count vector", args.labels,
                         DatasetFormatError)
    else:
        counts_arr = _parse_counts(args.counts, args.K)

    if args.method == "ove-sgd":
        if labels is None:
            raise ConfigError(
                "--method ove-sgd estimates from a label stream; "
                "use --labels or --gen rather than --counts"
            )
        config = _train_config(args)
        # the trace tracks L1 distance to the exact MLE of the same stream
        reference = exact_mle(CountVector.from_labels(labels, num_classes))
        result = ove_sgd_fit(labels, num_classes, config, ref_probs=reference.probs)
        trace_rows = result.error_trace
        manifest.config = {"method": args.method, **config.to_dict()}
    else:
        if labels is not None:
            counts = CountVector.from_labels(labels, num_classes)
        else:
            counts = CountVector(counts=counts_arr)
        fitter = {"exact": exact_mle, "ove": ove_fit, "bouchard": bouchard_fit}[args.method]
        result = fitter(counts)
        trace_rows = result.objective_trace
        manifest.config = {"method": args.method, "counts": counts.counts.tolist()}

    stage("probs.json", lambda path: write_json(result.to_json_dict(), path))
    stage("trace.csv", lambda path: _write_value_trace(path, trace_rows))
    return f"wrote {os.path.join(args.out, 'probs.json')}, {os.path.join(args.out, 'trace.csv')}"


def _load_dataset(path, num_classes, num_features):
    """``load_sparse`` that refuses a K x D model no array can hold, and
    counts below 2 classes or 1 feature: exit 2 naming the flags when they
    alone are at fault, else exit 3 naming the file."""
    from softmax_bounds.config import ConfigError
    from softmax_bounds.datasets import load_sparse

    flags = (("--num-classes", num_classes, 2), ("--num-features", num_features, 1))
    for flag, value, least in flags:
        if value is not None and value < least:
            raise ConfigError(f"{flag} must be at least {least}, got {value}")
    k, d = num_classes or 2, num_features or 1  # without the flags, 4 values: never refused
    _refuse_oversize(k * d + k, "the model", " ".join(f"{f} {v}" for f, v, _ in flags if v),
                     ConfigError)
    data = load_sparse(path, num_classes=num_classes, num_features=num_features)
    _refuse_model(data, path)
    return data


def _refuse_model(data, source) -> None:
    from softmax_bounds.datasets import DatasetFormatError

    k, d = data.num_classes, data.num_features
    _refuse_oversize(k * d + k, f"a {k} x {d} model", source, DatasetFormatError)


def _evaluate(model, data):
    import numpy as np

    from softmax_bounds.linear_model import predict_proba_all
    from softmax_bounds.metrics import error_rate, nlpd

    probs = predict_proba_all(model, data)
    truth = data.labels()
    preds = np.argmax(probs, axis=1)
    return error_rate(preds, truth), nlpd(probs, truth)


def _cmd_train(args, manifest, stage) -> str:
    from concurrent.futures import ThreadPoolExecutor

    from softmax_bounds.datasets import unify_pair
    from softmax_bounds.linear_model import (
        KIND_BOUCHARD,
        KIND_EXACT,
        KIND_OVE,
        LinearModel,
        Objective,
        ove_loglik,
    )
    from softmax_bounds.manifest import SCOPE_NO_ELAPSED, write_json
    from softmax_bounds.metrics import MethodReport
    from softmax_bounds.trainer import fit_full_batch, train

    train_data = _load_dataset(args.train, args.num_classes, args.num_features)
    manifest.add_dataset(args.train)
    if args.test is not None:
        test_data = _load_dataset(args.test, args.num_classes, args.num_features)
        manifest.add_dataset(args.test)
        train_data, test_data = unify_pair(train_data, test_data)
        _refuse_model(train_data, args.test)  # its K or D joined with the train set's
        eval_data, eval_split = test_data, "test"
    else:
        eval_data, eval_split = train_data, "train"

    model0 = LinearModel.zeros(train_data.num_classes, train_data.num_features)
    if args.objective == "ove-sgd":
        config = _train_config(args, lam=args.lam)
        fitted, trace = train(model0, train_data, config)
        stage("trace.csv", trace.to_csv, SCOPE_NO_ELAPSED)
        bound_final = ove_loglik(fitted, train_data, lam=args.lam)
        manifest.config = {"objective": args.objective, **config.to_dict()}
    else:
        kind = {
            "soft": KIND_EXACT,
            "ove": KIND_OVE,
            "bouchard": KIND_BOUCHARD,
        }[args.objective]
        fitted, rows = fit_full_batch(model0, train_data, Objective(kind=kind, lam=args.lam))
        stage("trace.csv", lambda path: _write_value_trace(path, rows))
        bound_final = rows[-1][1]
        manifest.config = {"objective": args.objective, "lam": args.lam}

    # save and _evaluate only read W and spend their time with the GIL
    # released, so one helper thread writes and hashes the checkpoint while
    # this thread evaluates
    with ThreadPoolExecutor(max_workers=1) as pool:
        saved = pool.submit(stage, "checkpoint.bin", fitted.save)
        try:
            error, mean_nlpd = _evaluate(fitted, eval_data)
        finally:
            # joined before anything else is staged; a save error replaces
            # an evaluation error, as when the save ran first
            saved.result()
    report = MethodReport(
        method=args.objective, error=error, nlpd=mean_nlpd, bound_final=bound_final
    )
    report.validate()
    payload = {"eval_split": eval_split, "report": report.to_json_dict()}
    stage("report.json", lambda path: write_json(payload, path))
    return (f"{args.objective}: bound_final={bound_final:.6f} "
            f"{eval_split} error={error:.4f} nlpd={mean_nlpd:.4f}")


def _parse_named_checkpoint(text: str) -> tuple[str, str]:
    from softmax_bounds.config import ConfigError

    name, sep, path = text.partition("=")
    if not sep or not name or not path:
        raise ConfigError(f"expected NAME=CHECKPOINT, got {text!r}")
    return name, path


def _cmd_compare(args, manifest, stage) -> str:
    from softmax_bounds.config import ConfigError
    from softmax_bounds.datasets import load_sparse
    from softmax_bounds.linear_model import CheckpointError, LinearModel
    from softmax_bounds.metrics import (
        MethodReport,
        param_norm,
        write_report_csv,
        write_report_json,
    )

    if not args.candidate:
        raise ConfigError("need at least one --candidate NAME=CHECKPOINT")
    ref_name, ref_path = _parse_named_checkpoint(args.reference)
    candidates = [_parse_named_checkpoint(c) for c in args.candidate]

    # the reference is the first model, and its K and D are the test set's
    reference = LinearModel.load(ref_path)
    k, d = reference.num_classes, reference.num_features
    if k < 2 or d < 1:
        raise CheckpointError(f"reference {ref_path} is {k} x {d}; need >= 2 classes, >= 1 feature")
    test_data = load_sparse(args.test, num_classes=k, num_features=d)
    manifest.add_dataset(args.test)

    reports = []
    for name, path in [(ref_name, ref_path)] + candidates:
        model = LinearModel.load(path) if reports else reference
        manifest.add_dataset(path)
        try:
            norm = None if model is reference else param_norm(reference, model)
        except ValueError as exc:  # another shape, or a reference that is zero
            raise CheckpointError(f"{path} against reference {ref_path}: {exc}") from None
        error, mean_nlpd = _evaluate(model, test_data)
        reports.append(MethodReport(method=name, error=error, nlpd=mean_nlpd, norm=norm))

    stage("reports.csv", lambda path: write_report_csv(reports, path))
    stage("reports.json", lambda path: write_report_json(reports, path))
    manifest.config = {
        "reference": ref_name,
        "candidates": [name for name, _ in candidates],
    }
    return f"wrote {os.path.join(args.out, 'reports.csv')} ({len(reports)} methods)"


def _args_echo(args) -> list[str]:
    """Stable listing of the parsed arguments for the manifest."""
    skip = {"command"}
    out = []
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if value is None:
            continue
        out.append(f"--{key.replace('_', '-')}={value}")
    return out


def main(argv=None) -> int:
    _configure_threads()
    args = build_parser().parse_args(argv)

    from softmax_bounds.bounds import ConvergenceError
    from softmax_bounds.config import ConfigError, NumericalError
    from softmax_bounds.datasets import DatasetFormatError
    from softmax_bounds.linear_model import CheckpointError

    handlers = {
        "estimate": _cmd_estimate,
        "train": _cmd_train,
        "compare": _cmd_compare,
    }
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {args.seed}")
        with _publishing(args) as (manifest, stage):
            summary = handlers[args.command](args, manifest, stage)
        print(summary)
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DatasetFormatError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
