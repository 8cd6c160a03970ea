"""Server-sent-event framing for the live event feed.

One tiny dialect of `text/event-stream` shared by the serving side
(:mod:`repro.service.server`) and :meth:`repro.client.QueryClient.
follow_events`, so the two cannot drift: every change event becomes ::

    id: <seq>
    event: <kind>
    data: <canonical event JSON>
    <blank line>

The ``id`` line carries the event's monotonic sequence number, which
is exactly what ``Last-Event-ID`` reconnection needs — a client that
lost its connection mid-stream re-subscribes with the last id it fully
received and the server replays from the durable event log.

When a consumer is too slow for its bounded buffer the server does not
silently skip: it emits an explicit ``gap`` frame whose payload names
the dropped range and whose ``id`` jumps to the end of it, so the
client both *knows* it missed events and resumes cleanly past them
(the events are never lost — they stay in the log and ``/v1/events``
serves them on demand).

:class:`SseParser` is the incremental decoder the client feeds raw
socket chunks into; it tolerates frames split at arbitrary byte
boundaries and ignores comment lines (used as keepalives).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..ioutil import canonical_json
from .events import LiveEvent

__all__ = [
    "GAP_EVENT",
    "encode_event_frame",
    "encode_gap_frame",
    "encode_comment",
    "SseFrame",
    "SseParser",
]

#: The synthetic frame kind marking dropped events (slow consumer).
GAP_EVENT = "gap"


def encode_event_frame(event: LiveEvent) -> bytes:
    """One change event as a complete SSE frame."""
    data = canonical_json(event.to_dict())
    return (
        f"id: {event.seq}\nevent: {event.kind}\ndata: {data}\n\n"
    ).encode("utf-8")


def encode_gap_frame(from_seq: int, to_seq: int) -> bytes:
    """An explicit drop marker covering ``[from_seq, to_seq]``.

    The ``id`` advances to ``to_seq`` so a reconnect resumes *after*
    the dropped range instead of replaying events the server already
    decided this consumer cannot keep up with.
    """
    payload = canonical_json(
        {"dropped": to_seq - from_seq + 1, "from": from_seq, "to": to_seq}
    )
    return (
        f"id: {to_seq}\nevent: {GAP_EVENT}\ndata: {payload}\n\n"
    ).encode("utf-8")


def encode_comment(text: str) -> bytes:
    """A comment frame (clients ignore it; used as a keepalive)."""
    return f": {text}\n\n".encode("utf-8")


class SseFrame:
    """One decoded frame: ``id``/``event``/``data`` (any may be absent)."""

    __slots__ = ("id", "event", "data")

    def __init__(
        self,
        id: Optional[str] = None,
        event: Optional[str] = None,
        data: str = "",
    ) -> None:
        self.id = id
        self.event = event
        self.data = data

    @property
    def seq(self) -> Optional[int]:
        try:
            return int(self.id) if self.id is not None else None
        except ValueError:
            return None

    def json(self) -> Dict:
        return json.loads(self.data)

    def __repr__(self) -> str:
        return f"SseFrame(id={self.id!r}, event={self.event!r})"


class SseParser:
    """Incremental `text/event-stream` decoder.

    Feed it raw byte chunks as they arrive; it returns the frames each
    chunk completes.  Partial lines and partial frames are buffered —
    a frame only counts once its terminating blank line has been seen,
    so an aborted connection can never yield a half-received event
    (that is what makes mid-event disconnects safe to retry).
    """

    def __init__(self) -> None:
        self._buffer = b""
        self._fields: List[tuple] = []

    @property
    def pending(self) -> bool:
        """True when a partial frame is buffered — the stream tore
        mid-frame and the connection should be resumed, not ended."""
        return bool(self._buffer) or bool(self._fields)

    def feed(self, chunk: bytes) -> List[SseFrame]:
        self._buffer += chunk
        frames: List[SseFrame] = []
        while b"\n" in self._buffer:
            line, self._buffer = self._buffer.split(b"\n", 1)
            text = line.decode("utf-8", errors="replace").rstrip("\r")
            if text == "":
                frame = self._dispatch()
                if frame is not None:
                    frames.append(frame)
                continue
            if text.startswith(":"):
                continue  # comment / keepalive
            name, _, value = text.partition(":")
            if value.startswith(" "):
                value = value[1:]
            self._fields.append((name, value))
        return frames

    def _dispatch(self) -> Optional[SseFrame]:
        if not self._fields:
            return None
        frame = SseFrame()
        data_lines: List[str] = []
        for name, value in self._fields:
            if name == "id":
                frame.id = value
            elif name == "event":
                frame.event = value
            elif name == "data":
                data_lines.append(value)
        frame.data = "\n".join(data_lines)
        self._fields = []
        return frame
