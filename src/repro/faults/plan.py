"""Seed-driven deterministic fault injection.

A :class:`FaultPlan` decides, per **injection site**, whether a hot-path
operation should experience a transient IO error, a worker crash,
corrupted bytes, or a stall.  Decisions are *pure
functions* of ``(seed, site, key)`` — the key carries the work item's
identity plus its attempt number (``"2022-03-04.shard#1"``), so the
same fault seed reproduces the identical injected-fault sequence in
any process, and a retry of the same
operation re-rolls under a fresh key instead of hitting the same fault
forever.

Hot paths hold an ``Optional[FaultPlan]``; when it is ``None`` the hook
is a single ``is not None`` check, so the disabled pipeline pays
nothing.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..errors import FaultError
from ..rng import derive_rng

__all__ = [
    "IO_ERROR",
    "CRASH",
    "CORRUPT",
    "STALL",
    "KINDS",
    "SITES",
    "SERVICE_SITES",
    "TransientIOError",
    "WorkerCrashed",
    "FaultSpec",
    "FaultPlan",
    "default_plan",
    "service_plan",
    "sync_fault_metrics",
]

# ----------------------------------------------------------------------
# Fault kinds
# ----------------------------------------------------------------------

#: Raise :class:`TransientIOError` (an ``OSError``) at the site.
IO_ERROR = "io-error"
#: Raise :class:`WorkerCrashed` at the site (a survivable crash).
CRASH = "crash"
#: Flip one deterministic bit of the bytes passing the site.
CORRUPT = "corrupt"
#: Sleep ``stall_seconds`` at the site, then continue.
STALL = "stall"

KINDS = (IO_ERROR, CRASH, CORRUPT, STALL)

#: Known injection sites and what faulting there simulates.
SITES = {
    "sweep.chunk": "one sweep engine run, before it reduces its days",
    "shard.write": "shard write, mid-way through the temp file",
    "shard.write.bytes": "shard bytes on their way to disk (corruption)",
    "manifest.write": "manifest write, mid-way through the temp file",
    "manifest.write.bytes": "manifest bytes on their way to disk (corruption)",
    "shard.read": "shard read from an opened archive (transient IO)",
    "service.compute": "query computation entering the serving worker pool",
    "service.archive_read": (
        "service-level archive day read (fails the query; unlike "
        "shard.read it is not retried in-path, so the breaker sees it)"
    ),
    "service.response_write": "HTTP response bytes on their way to the client",
    "live.ingest_day": "follow-engine day ingest, before the incremental build",
    "live.journal_write": "follow journal checkpoint, mid-way through the temp file",
    "live.journal_write.bytes": "follow journal bytes on their way to disk (corruption)",
    "live.detector": "change detector pass over the day's summary delta",
    "live.sse_write": "SSE event frame bytes, mid-way through the write",
}

#: The injection sites the serving path owns (``repro serve``).
SERVICE_SITES = (
    "service.compute", "service.archive_read", "service.response_write",
)


class TransientIOError(OSError):
    """An injected transient IO failure (retry-able by construction)."""


class WorkerCrashed(RuntimeError):
    """An injected worker crash (the unit of work died mid-flight)."""


class FaultSpec:
    """How one site misbehaves: kind, probability, budget, targeting."""

    __slots__ = ("kind", "rate", "max_injections", "stall_seconds", "match")

    def __init__(
        self,
        kind: str,
        rate: float = 1.0,
        max_injections: int = 64,
        stall_seconds: float = 0.005,
        match: Optional[str] = None,
    ) -> None:
        if kind not in KINDS:
            raise FaultError(f"unknown fault kind {kind!r} (known: {KINDS})")
        if not 0.0 <= rate <= 1.0:
            raise FaultError(f"fault rate must be in [0, 1]: {rate}")
        if max_injections < 0:
            raise FaultError(f"max_injections must be >= 0: {max_injections}")
        self.kind = kind
        self.rate = float(rate)
        #: Per-plan-instance safety cap, not part of the decision
        #: function: a new plan instance starts with a fresh budget.
        self.max_injections = int(max_injections)
        self.stall_seconds = float(stall_seconds)
        #: Only keys containing this substring are eligible (lets tests
        #: target one work item or one attempt deterministically).
        self.match = match

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultSpec):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.rate == other.rate
            and self.max_injections == other.max_injections
            and self.stall_seconds == other.stall_seconds
            and self.match == other.match
        )

    def __repr__(self) -> str:
        return (
            f"FaultSpec({self.kind!r}, rate={self.rate}, "
            f"max={self.max_injections}, match={self.match!r})"
        )


class FaultPlan:
    """Deterministic per-site fault decisions derived from one seed."""

    def __init__(
        self,
        seed: int,
        sites: Optional[Dict[str, FaultSpec]] = None,
        enabled: bool = True,
    ) -> None:
        self.seed = int(seed)
        self.sites: Dict[str, FaultSpec] = dict(sites or {})
        for site in self.sites:
            if site not in SITES:
                raise FaultError(
                    f"unknown injection site {site!r} "
                    f"(known: {', '.join(sorted(SITES))})"
                )
        self.enabled = bool(enabled)
        #: Injections fired by this plan instance, in firing order.
        self.events: List[Tuple[str, str, str]] = []
        #: Events already mirrored into SweepMetrics (see
        #: :func:`sync_fault_metrics`).
        self.reported = 0

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def injected(self, site: Optional[str] = None) -> int:
        """Injections fired by this plan (optionally for one site)."""
        if site is None:
            return len(self.events)
        return sum(1 for fired_site, _, _ in self.events if fired_site == site)

    def decide(self, site: str, key: str = "") -> Optional[str]:
        """The fault kind to inject at ``(site, key)``, or ``None``.

        Pure in ``(seed, site, key)`` apart from the per-instance
        injection budget, so any two copies of the same plan agree on
        every decision.
        """
        if not self.enabled:
            return None
        spec = self.sites.get(site)
        if spec is None:
            return None
        if spec.match is not None and spec.match not in key:
            return None
        if self.injected(site) >= spec.max_injections:
            return None
        if spec.rate < 1.0:
            roll = derive_rng(self.seed, "faults", site, key).random()
            if roll >= spec.rate:
                return None
        return spec.kind

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------

    def _record(self, site: str, key: str, kind: str) -> None:
        self.events.append((site, key, kind))

    def check(self, site: str, key: str = "") -> None:
        """Fire the site's fault, if the plan schedules one here.

        Raising kinds raise; :data:`STALL` sleeps.  :data:`CORRUPT` is only
        meaningful for byte streams — route those through
        :meth:`corrupt_bytes` instead.
        """
        kind = self.decide(site, key)
        if kind is None:
            return
        self._record(site, key, kind)
        if kind == STALL:
            time.sleep(self.sites[site].stall_seconds)
            return
        if kind == IO_ERROR:
            raise TransientIOError(f"injected transient IO error at {site} [{key}]")
        if kind == CRASH:
            raise WorkerCrashed(f"injected worker crash at {site} [{key}]")
        raise FaultError(
            f"site {site} schedules {kind!r}, which needs corrupt_bytes()"
        )

    def corrupt_bytes(self, site: str, key: str, data: bytes) -> bytes:
        """Return ``data``, bit-flipped if the plan corrupts this site.

        Non-:data:`CORRUPT` kinds configured on a byte site behave as
        in :meth:`check` (raise or stall) so specs compose freely.
        """
        kind = self.decide(site, key)
        if kind is None or not data:
            return data
        if kind != CORRUPT:
            self.check(site, key)
            return data
        self._record(site, key, kind)
        position = int(
            derive_rng(self.seed, "faults", site, key, "position").integers(len(data))
        )
        mutated = bytearray(data)
        mutated[position] ^= 1 << int(
            derive_rng(self.seed, "faults", site, key, "bit").integers(8)
        )
        return bytes(mutated)

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, sites={sorted(self.sites)}, "
            f"injected={len(self.events)})"
        )


def default_plan(seed: int, rate: float = 0.05) -> FaultPlan:
    """The fault mix ``--fault-seed`` enables: every recoverable site.

    All sites self-heal in-path (retry, read-back verify), so a
    pipeline run under the default plan converges to
    output bit-identical to a fault-free run.
    """
    return FaultPlan(
        seed,
        {
            "sweep.chunk": FaultSpec(CRASH, rate),
            "shard.write": FaultSpec(IO_ERROR, rate),
            "shard.write.bytes": FaultSpec(CORRUPT, rate),
            "manifest.write": FaultSpec(IO_ERROR, rate),
            "manifest.write.bytes": FaultSpec(CORRUPT, rate),
            "shard.read": FaultSpec(IO_ERROR, rate),
            # Live follow sites: every one self-heals in-path too (the
            # engine retries the day under a fresh key, the journal
            # write read-back-verifies, the detector re-runs), so a
            # follow run under the default plan converges to the same
            # archive digest and event sequence as a fault-free run.
            "live.ingest_day": FaultSpec(IO_ERROR, rate),
            "live.journal_write": FaultSpec(IO_ERROR, rate),
            "live.journal_write.bytes": FaultSpec(CORRUPT, rate),
            "live.detector": FaultSpec(IO_ERROR, rate),
            # Aborted SSE frames are recovered by the *client*
            # (Last-Event-ID reconnect), not in-path, so the budget is
            # bounded the same way service.response_write's is.
            "live.sse_write": FaultSpec(IO_ERROR, rate, max_injections=2),
        },
    )


def service_plan(
    seed: int,
    rate: float = 0.05,
    stall_seconds: float = 0.05,
    match: Optional[str] = None,
) -> FaultPlan:
    """The fault mix ``repro serve --fault-seed`` enables.

    Only the service-layer sites fire: computations stall, archive day
    reads fail with transient IO errors that the serving path (unlike
    the build path) does *not* retry internally — they surface as
    classified failures so the circuit breaker and the client retry
    policy do the recovering — and a bounded number of response writes
    abort mid-flight.  ``match`` restricts every site to keys containing
    the substring (a date, a spec fragment, a path), which is how the
    chaos suite targets one query deterministically.
    """
    return FaultPlan(
        seed,
        {
            "service.compute": FaultSpec(
                STALL, rate, stall_seconds=stall_seconds, match=match
            ),
            "service.archive_read": FaultSpec(IO_ERROR, rate, match=match),
            "service.response_write": FaultSpec(
                IO_ERROR, rate, max_injections=2, match=match
            ),
        },
    )


def sync_fault_metrics(plan: Optional[FaultPlan], metrics) -> None:
    """Mirror this process's new injections into ``metrics``.

    Called at the end of engine runs and archive builds.
    """
    if plan is None or metrics is None:
        return
    fresh = plan.injected() - plan.reported
    if fresh > 0:
        metrics.record_recovery("faults_injected", fresh)
        plan.reported = plan.injected()
