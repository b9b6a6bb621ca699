"""Run one ``softmax-bounds`` command in this fresh process and time it.

Usage: python3 child.py RESULT_JSON [--trace SPANS_JSON --id CMD_ID] -- CLI_ARGS...

The parent sets ``PYTHONPATH`` to the checkout's ``src`` and pins the
thread count through the environment, so numpy starts single-threaded.
The result file gets the exit code, the wall time from before the package
import to the end of ``cli.main``, and this process's peak RSS. With
``--trace`` the layer functions are wrapped with span recorders first and
the spans are written to SPANS_JSON at the end; without it no span code is
imported.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1 :]
    result_path = own[0]
    spans_path = own[own.index("--trace") + 1] if "--trace" in own else None

    t0 = time.perf_counter()
    tracer = None
    if spans_path is not None:
        import tracer as tracing

        tracer = tracing.Tracer(own[own.index("--id") + 1])
        tracing.install(tracer)
    from softmax_bounds import cli

    if tracer is None:
        rc = cli.main(cli_args)
    else:
        rc = tracer.call("cli.main", cli.main, (cli_args,), {})
    wall = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "wall_s": wall, "peak_rss_mb": peak_kb / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
