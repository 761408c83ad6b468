"""Run ``python -m repro.serve`` with the span tracer installed.

Usage::

    python3 perfbench/traced_server.py TRACE_OUT [repro.serve arguments...]

The server runs exactly as ``python -m repro.serve`` would; when it
exits (SIGTERM shuts it down gracefully) the recorded spans and
collector pauses are written to ``TRACE_OUT`` as JSON lines.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracer import SERVER_WRAPS, Tracer


def main() -> int:
    trace_out, serve_args = Path(sys.argv[1]), sys.argv[2:]
    from repro.serve.__main__ import main as serve_main

    tracer = Tracer()
    tracer.install(SERVER_WRAPS)
    try:
        return serve_main(serve_args)
    finally:
        tracer.uninstall()
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
