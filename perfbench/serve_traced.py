"""Run ``repro serve`` with the server-side layer wrappers installed.

Usage: ``python3 perfbench/serve_traced.py TRACE_JSON <repro CLI args>``

Installs :func:`perfbench.tracing.install_server_layers`, then calls the
normal CLI entry point unchanged.  When the server exits (SIGTERM drains
it and returns), the recorded spans are written to ``TRACE_JSON`` as
Chrome trace-event JSON.
"""

from __future__ import annotations

import sys

from perfbench.tracing import Tracer, install_server_layers


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install_server_layers(tracer)
    from repro.cli import main as repro_main

    code = repro_main(cli_args)
    tracer.write(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
