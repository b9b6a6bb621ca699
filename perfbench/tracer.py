"""Span recording for the traced benchmark run.

``install`` wraps the public functions of each package layer with span
recorders. A wrapper replaces every binding of the original function in the
package's loaded modules (and its class, for methods), because a module
that did ``from x import f`` at import time resolves ``f`` from its own
namespace. The CLI imports lazily, so wrappers set before ``cli.main`` runs
take effect. Spans stay in memory; ``Tracer.dump`` writes them when the
command ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# layer functions, as "module:qualname", that get a span each
TRACED = (
    "softmax_bounds.datasets:load_sparse",
    "softmax_bounds.datasets:SparseDataset.to_csr",
    "softmax_bounds.datasets:SparseDataset.labels",
    "softmax_bounds.nonparam:sample_rival_classes",
    "softmax_bounds.nonparam:ove_sgd_fit",
    "softmax_bounds.nonparam:exact_mle",
    "softmax_bounds.trainer:train",
    "softmax_bounds.trainer:fit_full_batch",
    "softmax_bounds.linear_model:scores_matrix",
    "softmax_bounds.linear_model:full_gradient",
    "softmax_bounds.linear_model:exact_loglik",
    "softmax_bounds.linear_model:ove_loglik",
    "softmax_bounds.linear_model:bouchard_loglik",
    "softmax_bounds.linear_model:optimal_alphas",
    "softmax_bounds.linear_model:predict_proba_all",
    "softmax_bounds.linear_model:LinearModel.save",
    "softmax_bounds.linear_model:LinearModel.load",
    "softmax_bounds.bounds:optimize_alpha_batch",
    "softmax_bounds.metrics:error_rate",
    "softmax_bounds.metrics:nlpd",
    "softmax_bounds.metrics:param_norm",
    "softmax_bounds.manifest:sha256_file",
)

PACKAGE_MODULES = (
    "bounds", "config", "datasets", "linear_model", "manifest",
    "metrics", "nonparam", "rng", "trainer", "cli",
)


def _counts_for(span_name: str, args, kwargs, result, ok: bool) -> dict:
    """Work counts recorded at the layer boundary, per span.

    When the call raised (``ok`` false) the counts that need its result or
    its output file are left out.
    """
    if span_name == "datasets.load_sparse":
        return {"rows": len(result)} if ok else {}
    if span_name == "trainer.train":
        config = args[2] if len(args) > 2 else kwargs["config"]
        return {"instances": len(args[1]) * config.epochs}
    if span_name == "trainer.fit_full_batch":
        objective = args[2] if len(args) > 2 else kwargs["objective"]
        return {"kind": objective.kind}
    if span_name == "linear_model.LinearModel.save" and ok:
        return {"bytes": os.path.getsize(args[1])}
    if span_name == "manifest.sha256_file" and ok:
        return {"bytes": os.path.getsize(args[0])}
    return {}


class Tracer:
    """In-memory span list: [id, parent id, name, start, end, counts]."""

    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [sid, parent, name, time.perf_counter(), None, {}]
        self.spans.append(span)
        self._stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[4] = time.perf_counter()
            self._stack.pop()
            span[5] = _counts_for(name, args, kwargs, None, False)
            raise
        span[4] = time.perf_counter()
        self._stack.pop()
        span[5] = _counts_for(name, args, kwargs, result, True)
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"command_id": self.command_id, "spans": self.spans}, fh)


def _span_name(module: str, qualname: str) -> str:
    return module.rsplit(".", 1)[1] + "." + qualname


def _rebind(original, replacement) -> None:
    """Point every package-global binding of ``original`` at ``replacement``."""
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("softmax_bounds") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _wrap_lbfgs(tracer: Tracer) -> None:
    """Span around scipy's minimize, with the objective callbacks as children.

    The full-batch fitters import ``minimize`` at call time, so replacing
    the attribute on ``scipy.optimize`` reaches them. The solver's own time
    is the span's self time.
    """
    import scipy.optimize

    original = scipy.optimize.minimize

    def minimize(fun, x0, *args, **kwargs):
        def objective(x, *a):
            return tracer.call("trainer.lbfgs.objective", fun, (x,) + a, {})

        sid = len(tracer.spans)
        res = tracer.call("trainer.lbfgs", original, (objective, x0) + args, kwargs)
        tracer.spans[sid][5]["nit"] = int(res.nit)
        return res

    scipy.optimize.minimize = minimize


def install(tracer: Tracer) -> None:
    """Import every package module and wrap the traced layer functions."""
    for name in PACKAGE_MODULES:
        importlib.import_module(f"softmax_bounds.{name}")
    for target in TRACED:
        module, qualname = target.split(":")
        mod = sys.modules[module]
        span_name = _span_name(module, qualname)
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(span_name, raw.__func__)))
            else:
                setattr(cls, meth, tracer.wrap(span_name, raw))
            continue
        original = getattr(mod, qualname)
        _rebind(original, tracer.wrap(span_name, original))
    _wrap_lbfgs(tracer)
