"""Seed-pure change detectors over day-over-day summary deltas.

Each detector compares two consecutive :class:`~repro.archive.DaySummary`
objects — yesterday's and today's pre-aggregated counts — and emits
zero or more ``(kind, payload)`` findings.  Detection uses **no
randomness and no wall clock**: it is a pure function of the two
summaries plus the detector's thresholds, so two independent follow
runs over the same scenario and seed produce byte-identical event
logs.  That purity is what the determinism and kill-and-resume chaos
tests pin.

The four stock detectors mirror the paper's headline findings:

* ``provider-exit`` — a hosting ASN that carried a meaningful share of
  domains yesterday all but vanishes today (Section 3.3's Western
  providers terminating Russian customers).
* ``composition-step`` — the full/part/non composition of NS or
  hosting geography takes a day-over-day step larger than the usual
  drift (the Figure 1/2 inflection around the invasion).
* ``ru-ca-issuance-spike`` — a burst of domains becoming *fully*
  dependent on Russian infrastructure in one day.  The archived
  summaries carry no per-CA issuance series, so this reproduction
  proxies the paper's Russian-CA migration (Section 4.1) by the jump
  in fully-Russian NS TLD dependency that accompanies it.
* ``sanctions-migration-burst`` — domains on the sanction lists moving
  onto fully Russian infrastructure in a burst (Section 5's
  sanctions-evasion migration).

Payload values are plain ints and round-to-six-places floats so the
canonical JSON encoding in :mod:`repro.live.events` is stable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Detector",
    "ProviderExitDetector",
    "CompositionStepDetector",
    "IssuanceSpikeDetector",
    "SanctionsMigrationDetector",
    "default_detectors",
    "run_detectors",
]

Finding = Tuple[str, Dict]


def _fraction(numerator: int, denominator: int) -> float:
    return round(numerator / denominator, 6) if denominator else 0.0


class Detector:
    """Base class: compare two summaries, yield ``(kind, payload)``."""

    #: The stable machine-readable event kind this detector emits.
    kind: str = ""

    def detect(self, previous, current) -> List[Finding]:
        raise NotImplementedError


class ProviderExitDetector(Detector):
    """A hosting ASN with real share yesterday is (nearly) gone today."""

    kind = "provider-exit"

    def __init__(self, min_count: int = 8, exit_fraction: float = 0.25) -> None:
        #: Yesterday's minimum domain count for an ASN to be tracked.
        self.min_count = int(min_count)
        #: Today/yesterday ratio at or below which the ASN has "exited".
        self.exit_fraction = float(exit_fraction)

    def detect(self, previous, current) -> List[Finding]:
        findings: List[Finding] = []
        for asn in sorted(previous.asn_counts):
            before = previous.asn_counts[asn]
            if before < self.min_count:
                continue
            after = current.asn_counts.get(asn, 0)
            if after <= before * self.exit_fraction:
                findings.append((self.kind, {
                    "asn": int(asn),
                    "before": int(before),
                    "after": int(after),
                }))
        return findings


class CompositionStepDetector(Detector):
    """The full/part/non composition takes an outsized one-day step."""

    kind = "composition-step"

    def __init__(self, threshold: float = 0.05) -> None:
        #: Minimum day-over-day change in the fully-Russian fraction.
        self.threshold = float(threshold)

    def detect(self, previous, current) -> List[Finding]:
        findings: List[Finding] = []
        for axis in ("ns", "hosting"):
            before_triple = getattr(previous, axis)
            after_triple = getattr(current, axis)
            before = _fraction(before_triple[0], sum(before_triple))
            after = _fraction(after_triple[0], sum(after_triple))
            delta = round(after - before, 6)
            if abs(delta) >= self.threshold:
                findings.append((self.kind, {
                    "axis": axis,
                    "before": before,
                    "after": after,
                    "delta": delta,
                }))
        return findings


class IssuanceSpikeDetector(Detector):
    """A one-day burst of domains turning fully Russian-dependent.

    Proxies the paper's Russian-CA issuance spike: the summaries carry
    no per-CA counts, and the migration to Russian CAs coincides with
    domains becoming fully dependent on Russian NS TLD infrastructure.
    """

    kind = "ru-ca-issuance-spike"

    def __init__(self, spike_fraction: float = 0.2, min_jump: int = 5) -> None:
        #: Relative day-over-day growth of the fully-dependent count.
        self.spike_fraction = float(spike_fraction)
        #: Absolute growth floor, so tiny archives do not false-alarm.
        self.min_jump = int(min_jump)

    def detect(self, previous, current) -> List[Finding]:
        before = previous.tld[0]
        after = current.tld[0]
        jump = after - before
        if jump >= max(self.min_jump, self.spike_fraction * max(before, 1)):
            return [(self.kind, {
                "before": int(before),
                "after": int(after),
                "jump": int(jump),
            })]
        return []


class SanctionsMigrationDetector(Detector):
    """Sanctioned domains migrate onto fully Russian infrastructure."""

    kind = "sanctions-migration-burst"

    def __init__(self, min_burst: int = 3, burst_fraction: float = 0.02) -> None:
        #: Absolute one-day growth floor of the sanctioned-full count.
        self.min_burst = int(min_burst)
        #: Growth floor as a fraction of the sanction-list size.
        self.burst_fraction = float(burst_fraction)

    def detect(self, previous, current) -> List[Finding]:
        before = previous.sanctioned[0]
        after = current.sanctioned[0]
        burst = after - before
        floor = max(self.min_burst,
                    self.burst_fraction * max(current.listed_count, 1))
        if burst >= floor:
            return [(self.kind, {
                "before": int(before),
                "after": int(after),
                "burst": int(burst),
                "listed": int(current.listed_count),
            })]
        return []


def default_detectors() -> List[Detector]:
    """The stock detector set ``repro serve --follow`` runs."""
    return [
        ProviderExitDetector(),
        CompositionStepDetector(),
        IssuanceSpikeDetector(),
        SanctionsMigrationDetector(),
    ]


def run_detectors(
    detectors: Sequence[Detector],
    previous: Optional[object],
    current: Optional[object],
) -> List[Finding]:
    """All findings for one day transition, in deterministic order.

    Order is detector order then each detector's internal (sorted)
    order, so the sequence numbers the engine assigns are reproducible.
    The first archived day has nothing to compare against, so a
    missing side (``None``) yields no findings.
    """
    if previous is None or current is None:
        return []
    findings: List[Finding] = []
    for detector in detectors:
        findings.extend(detector.detect(previous, current))
    return findings
