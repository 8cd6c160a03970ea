"""Crash-safe file IO shared by the archive writers, and canonical JSON.

Every durable file the pipeline produces (day shards, manifests) goes
through :func:`atomic_write_bytes`: bytes land in a same-directory temp
file that is renamed over the final name with ``os.replace``, so an
interrupted or faulted write can never leave a torn file behind a name
that passes existence checks.  Transient failures (including injected
ones) are retried with bounded exponential backoff, and when a fault
plan is active every write is read back and compared before the rename
— which is what turns injected byte corruption into a retry instead of
a poisoned archive.

:func:`canonical_json` is the one text form of every JSON body the
service writes and of every live-feed frame.
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional

from .errors import ArchiveError, RecoveryError

__all__ = ["atomic_write_bytes", "backoff_seconds", "canonical_json"]

#: Longest single retry sleep, seconds (keeps tests and CI snappy).
_BACKOFF_CAP = 0.25


def canonical_json(payload: object) -> str:
    """Sorted-key, compact JSON text: the form every JSON body takes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def backoff_seconds(attempt: int, base: float) -> float:
    """Bounded exponential backoff for retry attempt ``attempt`` (0-based)."""
    return min(base * (2 ** attempt), _BACKOFF_CAP)


def atomic_write_bytes(
    path: str,
    data: bytes,
    faults=None,
    site: str = "io.write",
    retries: int = 6,
    backoff: float = 0.01,
) -> int:
    """Atomically write ``data`` to ``path``; returns retries used.

    ``site`` names the fault-injection site (see
    :mod:`repro.faults.plan`); the per-attempt key is
    ``"<basename>#<attempt>"`` so a retry re-rolls the fault decision.
    When a plan is attached, the temp file is read back and compared to
    ``data`` before the rename, catching injected (or real) corruption
    while the final name still holds the previous good version.
    """
    name = os.path.basename(path)
    temp_path = f"{path}.tmp.{os.getpid()}"
    for attempt in range(retries + 1):
        key = f"{name}#{attempt}"
        try:
            payload = data
            if faults is not None:
                payload = faults.corrupt_bytes(f"{site}.bytes", key, data)
            try:
                with open(temp_path, "wb") as handle:
                    if faults is not None:
                        # Split the write so an injected error mid-way
                        # leaves a *torn temp file*, never a torn final.
                        handle.write(payload[: len(payload) // 2])
                        faults.check(site, key)
                        handle.write(payload[len(payload) // 2:])
                    else:
                        handle.write(payload)
                if faults is not None:
                    with open(temp_path, "rb") as handle:
                        written = handle.read()
                    if written != data:
                        raise ArchiveError(
                            f"read-back verify failed for {path} "
                            f"(attempt {attempt})"
                        )
                os.replace(temp_path, path)
            finally:
                if os.path.exists(temp_path):
                    os.unlink(temp_path)
            return attempt
        except (OSError, ArchiveError) as exc:
            if attempt >= retries:
                raise RecoveryError(
                    f"could not write {path} after {retries + 1} attempts: {exc}"
                ) from exc
            time.sleep(backoff_seconds(attempt, backoff))
    raise AssertionError("unreachable")  # pragma: no cover
