"""Starts the analysis server as ``python -m repro serve`` does, for the
``serve_mixed`` workload.

    python e2ebench/serve_launcher.py --store DIR --out FILE [--trace 0|1]

The server listens on an ephemeral port (printed on its ``listening`` line)
with every other ``repro serve`` default, and runs until ``POST
/v1/shutdown``.  With ``--trace 1`` the span wrappers are installed first;
each ``SIGUSR1`` then marks a boundary of the timed window (answered with a
``mark`` line), and the per-layer summary of the window is written to
``--out`` together with the server's peak RSS.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path

from common import peak_rss_mb, write_json


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from repro.__main__ import _parse_age, build_parser
    from repro.engine.mapcache import map_cache_stats
    from repro.service import get_server_class
    from repro.study import ResultStore

    tracer = None
    marks = []
    if args.trace:
        from tracing import Tracer, install_program_wrappers

        tracer = Tracer()
        install_program_wrappers(tracer)

        def mark(signum, frame) -> None:
            marks.append((time.perf_counter(), map_cache_stats()))
            print("mark", flush=True)

        signal.signal(signal.SIGUSR1, mark)

    serve = build_parser().parse_args(["serve", "--store", args.store, "--port", "0"])
    server = get_server_class()(
        ResultStore(serve.store),
        host=serve.host,
        port=serve.port,
        jobs=serve.jobs,
        shard_size=0 if serve.shard_size is None else serve.shard_size,
        concurrency=serve.concurrency,
        gc_interval=serve.gc_interval,
        gc_age=_parse_age(serve.gc_age) if serve.gc_age is not None else 3600.0,
    )
    server.run()

    result = {"peak_rss_mb": peak_rss_mb(), "layers": None}
    if tracer is not None:
        from tracing import map_cache_metrics, summarize

        tracer.uninstall()
        if len(marks) != 2:
            raise SystemExit(f"expected 2 window marks, got {len(marks)}")
        (start, before), (end, after) = marks
        result["layers"] = summarize(tracer.spans, (start, end))
        result["layers"].update(map_cache_metrics(before, after))
    write_json(Path(args.out), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
