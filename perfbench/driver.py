"""Open-loop HTTP load driver: one thread, a capped number of connections.

Arrival times are fixed up front (see :mod:`perfbench.plans`); each
request is sent when it is due or, when every connection slot is busy,
as soon as one frees.  Latency is timed from the *due* time, so a stall
is charged to every request that queued behind it.  The driver also
reports how late it ran itself: send time minus the earliest moment it
could have sent (the due time, or the moment a slot freed), which is
the generator's own lag and must stay small for the latencies to mean
anything.

The service speaks HTTP/1.1 with ``Connection: close``, so every
request is one fresh TCP connection: connect, send, read to EOF.
"""

from __future__ import annotations

import errno
import json
import selectors
import socket
import time
from typing import Callable, List, Optional, Sequence

__all__ = ["Sample", "envelope_ok", "fetch", "run_open_loop"]

#: Envelope keys every 200 query body must carry (the loadgen contract).
ENVELOPE_KEYS = ("schema_version", "kind", "spec", "data")
#: ``on_idle`` runs only in a quiet gap at least this long.
IDLE_GAP_S = 0.03


class Sample:
    """One request: when it was due, sent and done, and what came back."""

    __slots__ = ("index", "due", "sent", "done", "status", "body", "late")

    def __init__(self, index: int, due: float) -> None:
        self.index = index
        self.due = due
        self.sent = 0.0
        self.done = 0.0
        #: HTTP status; 0 = transport failure or timeout.
        self.status = 0
        self.body = b""
        #: Generator lag: sent minus the earliest moment it could send.
        self.late = 0.0

    @property
    def latency(self) -> float:
        """Seconds from the due time to the last response byte."""
        return self.done - self.due


def envelope_ok(body: bytes) -> bool:
    """True when a 200 body is a JSON object with the envelope keys."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return False
    return isinstance(payload, dict) and all(
        key in payload for key in ENVELOPE_KEYS
    )


def _split_response(raw: bytes):
    head, separator, body = raw.partition(b"\r\n\r\n")
    if not separator:
        return 0, b""
    try:
        status = int(head.split(b"\r\n", 1)[0].split(None, 2)[1])
    except (IndexError, ValueError):
        return 0, b""
    return status, body


class _Conn:
    __slots__ = ("sample", "request", "chunks", "deadline")

    def __init__(self, sample: Sample, request: bytes, deadline: float) -> None:
        self.sample = sample
        self.request = request
        self.chunks: List[bytes] = []
        self.deadline = deadline


def run_open_loop(
    host: str,
    port: int,
    offsets: Sequence[float],
    paths: Sequence[str],
    max_connections: int,
    timeout: float = 30.0,
    on_done: Optional[Callable[[Sample, str], None]] = None,
    on_idle: Optional[Callable[[], None]] = None,
) -> List[Sample]:
    """Offer ``paths[i]`` at ``offsets[i]`` seconds from now; all samples.

    At most ``max_connections`` requests are in flight; a due request
    waits in the driver until a slot frees.  ``on_done`` sees each
    sample as it completes (body included) so callers can validate or
    keep bodies without holding all of them.  ``on_idle`` runs once in
    each gap where nothing is in flight and the next request is at
    least ``IDLE_GAP_S`` away, so its own few milliseconds delay no
    send and no receive.
    """
    selector = selectors.DefaultSelector()
    samples = [Sample(index, 0.0) for index in range(len(offsets))]
    requests = [
        f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n"
        .encode("ascii")
        for path in paths
    ]
    start = time.perf_counter() + 0.005
    for sample, offset in zip(samples, offsets):
        sample.due = start + offset
    next_index = 0
    in_flight = 0
    #: When the driver last went from "all slots busy" to "one free".
    slot_free_at = 0.0
    #: ``on_idle`` runs at most once per gap: the request it ran before.
    idle_before = -1

    def finish(key, conn: _Conn, now: float, ok: bool) -> None:
        nonlocal in_flight, slot_free_at
        selector.unregister(key.fileobj)
        key.fileobj.close()
        sample = conn.sample
        sample.done = now
        if ok:
            sample.status, sample.body = _split_response(b"".join(conn.chunks))
        if in_flight == max_connections:
            slot_free_at = now
        in_flight -= 1
        if on_done is not None:
            on_done(sample, paths[sample.index])

    try:
        while next_index < len(samples) or in_flight:
            now = time.perf_counter()
            while (
                in_flight < max_connections
                and next_index < len(samples)
                and samples[next_index].due <= now
            ):
                sample = samples[next_index]
                next_index += 1
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.setblocking(False)
                sample.sent = time.perf_counter()
                sample.late = sample.sent - max(sample.due, slot_free_at)
                code = sock.connect_ex((host, port))
                conn = _Conn(sample, requests[sample.index], sample.sent + timeout)
                if code not in (0, errno.EINPROGRESS):
                    sock.close()
                    sample.done = sample.sent
                    if on_done is not None:
                        on_done(sample, paths[sample.index])
                    continue
                selector.register(sock, selectors.EVENT_WRITE, conn)
                in_flight += 1
                now = time.perf_counter()
            if in_flight < max_connections and next_index < len(samples):
                wait = max(0.0, samples[next_index].due - now)
                if (on_idle is not None and not in_flight
                        and wait >= IDLE_GAP_S and idle_before != next_index):
                    idle_before = next_index
                    on_idle()
                    continue
            else:
                wait = 0.05
            for key, events in selector.select(wait):
                conn = key.data
                sock = key.fileobj
                now = time.perf_counter()
                if events & selectors.EVENT_WRITE and conn.request:
                    try:
                        sent = sock.send(conn.request)
                    except OSError:
                        finish(key, conn, now, False)
                        continue
                    conn.request = conn.request[sent:]
                    if not conn.request:
                        selector.modify(sock, selectors.EVENT_READ, conn)
                    continue
                try:
                    chunk = sock.recv(262144)
                except BlockingIOError:
                    continue
                except OSError:
                    finish(key, conn, now, False)
                    continue
                if chunk:
                    conn.chunks.append(chunk)
                else:
                    finish(key, conn, now, True)
            now = time.perf_counter()
            for key in list(selector.get_map().values()):
                if key.data.deadline < now:
                    finish(key, key.data, now, False)
    finally:
        for key in list(selector.get_map().values()):
            key.fileobj.close()
        selector.close()
    return samples


def fetch(host: str, port: int, path: str, timeout: float = 60.0):
    """One blocking GET; ``(status, body)`` with status 0 on failure."""
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.sendall(
                f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n"
                .encode("ascii")
            )
            chunks = []
            while True:
                chunk = sock.recv(262144)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError:
        return 0, b""
    return _split_response(b"".join(chunks))
