"""Run ``repro serve`` with a reference-loop responder beside it.

Usage: ``python3 perfbench/serve_paced.py <repro CLI args>``

Prints ``pace on PORT`` on standard output, then calls the normal CLI
entry point unchanged.  A daemon thread answers each byte received on
that loopback port with the seconds one
:func:`perfbench.common.reference_loop` took, as a little-endian double.
The load generator asks only while no request is in flight, so the loop
times the server process's speed without slowing any request.
"""

from __future__ import annotations

import socket
import struct
import sys
import threading

from perfbench.common import reference_loop


def _respond(listener: socket.socket) -> None:
    conn, _ = listener.accept()
    with conn:
        while conn.recv(1):
            conn.sendall(struct.pack("<d", reference_loop()))


def main(argv) -> int:
    listener = socket.create_server(("127.0.0.1", 0))
    threading.Thread(target=_respond, args=(listener,), daemon=True).start()
    print(f"pace on {listener.getsockname()[1]}", flush=True)
    from repro.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
