"""The benchmark's traced layers must exist in the package and run.

``perfbench/tracer.py`` wraps each ``"module:qualname"`` in ``TRACED`` and
the benchmark builds its per-layer metrics from those spans. A renamed or
deleted layer function would silently drop its metrics from a traced run,
and so would a layer function that still exists but no longer runs on a
workload's path: ``perfbench/run.py`` leaves out every metric whose span
never ran. The first check parses the tracer, without importing it; the
second runs every workload's commands at toy shapes through the benchmark's
own traced runner and checks the metric names ``run.per_layer`` makes.
"""

import ast
import importlib
import importlib.util
import json
import pathlib
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
TRACER = PERFBENCH / "tracer.py"

WORKLOADS = ("sgd-b1", "sgd-b100", "fullbatch-mnistlike", "estimate-powerlaw")
# shapes small enough that each command is mostly process start-up
TOY = {
    "SGD": {"K": 12, "D": 40, "n_train": 60, "n_test": 30, "epochs": 1,
            "S": 3, "lam": 0.1, "lr": 1e-3, "lr_decay": 0.9},
    "FULLBATCH": {"K": 3, "D": 784, "n_train": 12, "n_test": 12, "lam": 1.0, "data_seed": 4},
    "ESTIMATE": {"K": 20, "N": 2000, "epochs": 1, "b": 100, "S": 3, "lr": 0.005},
}


def traced_names():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TRACED tuple")


@pytest.mark.parametrize("name", traced_names())
def test_traced_layer_resolves(name):
    module, qualname = name.split(":")
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.fixture(scope="module")
def bench_run():
    """``perfbench/run.py`` loaded from its file, with toy workload shapes."""
    # run.py imports its input generator as the top-level module ``gen``
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        for name, shape in TOY.items():
            getattr(run, name).update(shape)
        yield run
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def traced_metrics(bench_run, tmp_path_factory):
    """{workload: the per-layer metrics of one traced repetition}."""
    run = bench_run
    workdir = tmp_path_factory.mktemp("bench")

    def traced_rep(workload):
        bench = run.Bench(str(ROOT), workload, 1, str(workdir / workload))
        (workdir / workload / "inputs").mkdir(parents=True)
        bench._generate()
        rep = bench.rep(traced=True)
        spans = [op["spans"] for op in rep["ops"] if op["spans"]]
        return bench, run.per_layer(workload, spans)

    # the workloads run side by side; their commands are separate processes
    with ThreadPoolExecutor(len(run.WORKLOADS)) as pool:
        done = dict(zip(run.WORKLOADS, pool.map(traced_rep, run.WORKLOADS)))
    for workload, (bench, _) in done.items():
        assert bench.failed == 0 and bench.correct, f"{workload}: a toy command failed"
    return {workload: metrics for workload, (_, metrics) in done.items()}


def declared_traced_names(run, workload):
    """The per-layer names BENCHMARK.json declares that a traced repetition
    of ``workload`` makes: all of the workload's, less the values of its
    untraced repetition and the micro-cases."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    elsewhere = {f"{workload}.trace_overhead_s", *run.MICRO}
    elsewhere.update(f"{workload}.{name}" for name in run.WORKLOAD_VALUES[workload])
    return {
        m["name"] for m in spec["per_layer"]
        if m["name"].startswith(workload + ".") and m["name"] not in elsewhere
    }


def test_every_workload_is_checked(bench_run):
    assert bench_run.WORKLOADS == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_makes_every_declared_metric(bench_run, traced_metrics, workload):
    expected = declared_traced_names(bench_run, workload)
    assert expected, f"BENCHMARK.json declares no traced metric for {workload}"
    missing = sorted(expected - set(traced_metrics[workload]))
    assert not missing, f"{workload}: the traced run no longer makes {missing}"


def test_fullbatch_fits_run_under_lbfgs(traced_metrics):
    # micro.py's stall probe wraps scipy.optimize.minimize the same way
    metrics = traced_metrics["fullbatch-mnistlike"]
    for objective in ("soft", "ove", "bouchard"):
        assert metrics[f"fullbatch-mnistlike.trainer.fit_full_batch.nit.{objective}"] > 0
    assert metrics["fullbatch-mnistlike.trainer.lbfgs.self_s"] > 0
