"""The server process of the ``http-keepalive`` workload.

Builds the chain database, starts ``serve_http`` over a ``DatalogService``,
reads every hot query once (so each later read is a cache hit), prints
``{"port": P}`` and then obeys one command per line on standard input:

``trace 1`` / ``trace 0``
    install / remove the span collector's tracer (traced runs only);
``mark``
    snapshot the service's metrics registry;
``dump``
    print the collected spans, the registry delta since ``mark`` and this
    process's peak resident memory as one JSON line;
``quit`` (or end of input)
    close the server and the service, then exit.

Started with ``--trace 1``, it also times ``parse_query`` as called by the
HTTP layer and ``DatalogService.read`` (the service read), as ``bench.*``
spans.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import DatalogService, MetricsRegistry, Tracer, set_tracer  # noqa: E402
from repro.obs.trace import NULL_TRACER  # noqa: E402
from repro.service import service as service_module  # noqa: E402
from repro.service.net import http as http_module  # noqa: E402
from repro.service.net.http import serve_http  # noqa: E402

import common  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--chains", type=int, required=True)
    parser.add_argument("--length", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    chains = common.Chains(args.chains, args.length, args.seed)
    registry = MetricsRegistry()
    service = DatalogService(chains.atoms(), common.rules(), metrics=registry)
    for pred, edge in common.hot_set(args.chains, args.length):
        service.answers(common.query(pred, edge))
    stats = common.SpanStats()
    tracer = Tracer(capacity=1, sinks=[stats])
    patches = (
        (http_module, "parse_query", common.timer("bench.parse_query")),
        (service_module.DatalogService, "read", common.timer("bench.service_read")),
    )
    server = None
    try:
        with common.patched(*(patches if args.trace else ())):
            server = serve_http(service)
            print(json.dumps({"port": server.address[1]}), flush=True)
            mark = registry.snapshot()
            for line in sys.stdin:
                command = line.strip()
                if command == "trace 1":
                    set_tracer(tracer)
                elif command == "trace 0":
                    set_tracer(NULL_TRACER)
                elif command == "mark":
                    mark = registry.snapshot()
                elif command == "dump":
                    delta = registry.snapshot().diff(mark)
                    print(
                        json.dumps(
                            {
                                "spans": stats.as_dict(),
                                "counters": dict(delta.counters),
                                "rss_mb": common.peak_rss_mb(),
                            }
                        ),
                        flush=True,
                    )
                    continue
                elif command == "quit":
                    break
                print(json.dumps({"ok": command}), flush=True)
    finally:
        set_tracer(NULL_TRACER)
        if server is not None:
            server.close()
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
