"""Run ``repro serve`` with the benchmark's layer spans installed.

Usage: ``python3 perfbench/serve_traced.py TRACE_OUT [repro serve options]``

The spans are written to ``TRACE_OUT`` as JSON when the server shuts down.
Spans recorded before the server starts listening belong to set-up; the
rest belong to the request window.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from spans import Tracer

from repro.cli import serve_main
from repro.service.server import QueryService


def main(argv: list[str]) -> int:
    trace_out = Path(argv[0])
    tracer = Tracer()
    start = QueryService.start

    async def start_then_run(self, host, port):
        address = await start(self, host, port)
        tracer.phase = "run"
        return address

    QueryService.start = start_then_run
    tracer.install()
    try:
        return serve_main(argv[1:])
    finally:
        tracer.uninstall()
        QueryService.start = start
        trace_out.write_text(json.dumps(tracer.export()))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
