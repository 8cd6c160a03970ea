"""The archive manifest: what an archive contains and what built it.

``manifest.json`` is the archive's single source of truth:

* a schema version, so readers refuse formats they do not understand;
* the **scenario fingerprint** — the config's scenario key
  (:func:`_scenario_key`) plus the collector's outage parameters — so
  an archive built from one scenario is refused by a context configured
  for another;
* the covered date set, one entry per day shard, each carrying the
  shard's file name, byte size, record count, and payload CRC32.

The manifest is rewritten atomically (temp file + ``os.replace``) with
sorted keys and no timestamps, so resumed builds converge on bytes
identical to uninterrupted ones.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
from typing import Dict, List, Optional, Sequence

from ..errors import ArchiveError, ArchiveMismatchError
from ..ioutil import atomic_write_bytes

__all__ = ["SCHEMA_VERSION", "MANIFEST_NAME", "scenario_fingerprint", "DayEntry", "Manifest"]

SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"

#: Field names matching the tuple order of :func:`_scenario_key`.  The
#: two optional trailing fields identify a counterfactual scenario; a
#: baseline key has exactly the first five, so baseline manifests stay
#: byte-identical to archives built before the scenario engine existed.
_FINGERPRINT_FIELDS = (
    "scale",
    "seed",
    "geo_lag_days",
    "netnod_mode",
    "sanctioned_domain_count",
    "scenario",
    "spec_digest",
)


def _scenario_key(config) -> tuple:
    key = (
        config.scale,
        config.seed,
        config.geo_lag_days,
        config.netnod_mode,
        config.sanctioned_domain_count,
    )
    # Counterfactual scenarios extend the key with their identity; the
    # baseline key stays the historical 5-tuple so pre-scenario-engine
    # archives keep matching (getattr: old pickled configs lack these).
    scenario_id = getattr(config, "scenario_id", "baseline")
    if scenario_id != "baseline":
        key += (scenario_id, getattr(config, "spec_digest", None))
    return key


def scenario_fingerprint(config) -> Dict[str, object]:
    """The scenario identity an archive is bound to, as a JSON-safe dict."""
    key = _scenario_key(config)
    if len(key) > len(_FINGERPRINT_FIELDS):
        raise ArchiveError(
            f"scenario key has {len(key)} fields; "
            f"manifest knows {len(_FINGERPRINT_FIELDS)}"
        )
    return dict(zip(_FINGERPRINT_FIELDS, key))


class DayEntry:
    """Manifest entry for one day shard."""

    __slots__ = ("date", "file", "bytes", "records", "crc32")

    def __init__(
        self, date: _dt.date, file: str, bytes: int, records: int, crc32: int
    ) -> None:
        self.date = date
        self.file = file
        self.bytes = int(bytes)
        self.records = int(records)
        self.crc32 = int(crc32)

    def as_dict(self) -> Dict[str, object]:
        return {
            "file": self.file,
            "bytes": self.bytes,
            "records": self.records,
            "crc32": self.crc32,
        }

    def __repr__(self) -> str:
        return f"DayEntry({self.date}, {self.records} records, {self.bytes}B)"


class Manifest:
    """Schema version, scenario fingerprint, and the covered date set."""

    def __init__(
        self,
        scenario: Dict[str, object],
        collector: Dict[str, object],
        population_size: int,
        days: Optional[Dict[_dt.date, DayEntry]] = None,
    ) -> None:
        self.scenario = dict(scenario)
        #: Outage parameters the measurements were collected under.
        self.collector = dict(collector)
        self.population_size = int(population_size)
        self.days: Dict[_dt.date, DayEntry] = dict(days or {})

    # ------------------------------------------------------------------
    # Coverage
    # ------------------------------------------------------------------

    def covered_dates(self) -> List[_dt.date]:
        """All archived dates, chronological."""
        return sorted(self.days)

    def missing_dates(self, wanted: Sequence[_dt.date]) -> List[_dt.date]:
        """The subset of ``wanted`` not yet archived, chronological."""
        return sorted(set(wanted) - set(self.days))

    def add_day(self, entry: DayEntry) -> None:
        """Record (or overwrite) one day's shard entry."""
        self.days[entry.date] = entry

    def total_bytes(self) -> int:
        """Shard bytes covered by the manifest."""
        return sum(entry.bytes for entry in self.days.values())

    def total_records(self) -> int:
        """Domain-day records covered by the manifest."""
        return sum(entry.records for entry in self.days.values())

    # ------------------------------------------------------------------
    # Compatibility checks
    # ------------------------------------------------------------------

    def check_scenario(self, config) -> None:
        """Refuse a scenario that does not match the archive's fingerprint."""
        wanted = scenario_fingerprint(config)
        if self.scenario != wanted:
            differing = sorted(
                field
                for field in set(self.scenario) | set(wanted)
                if self.scenario.get(field) != wanted.get(field)
            )
            raise ArchiveMismatchError(
                "archive was built for a different scenario "
                f"(mismatched fields: {', '.join(differing)}; "
                f"archive={self.scenario}, requested={wanted})"
            )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "format": "repro-measurement-archive",
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "collector": self.collector,
            "population_size": self.population_size,
            "days": {
                date.isoformat(): entry.as_dict()
                for date, entry in sorted(self.days.items())
            },
        }

    def save(self, directory: str, faults=None) -> str:
        """Atomically (re)write ``manifest.json``; returns its path."""
        path = os.path.join(directory, MANIFEST_NAME)
        text = json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"
        atomic_write_bytes(
            path, text.encode("utf-8"), faults=faults, site="manifest.write"
        )
        return path

    @classmethod
    def load(cls, directory: str) -> "Manifest":
        """Load and validate ``manifest.json`` from an archive directory."""
        path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ArchiveError(f"no archive manifest at {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ArchiveError(f"archive manifest {path} is not valid JSON: {exc}") from exc
        if raw.get("format") != "repro-measurement-archive":
            raise ArchiveError(f"{path} is not a measurement-archive manifest")
        version = raw.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ArchiveError(
                f"archive schema version {version} is not supported "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        try:
            days = {
                _dt.date.fromisoformat(text): DayEntry(
                    _dt.date.fromisoformat(text),
                    entry["file"],
                    entry["bytes"],
                    entry["records"],
                    entry["crc32"],
                )
                for text, entry in raw["days"].items()
            }
            return cls(
                raw["scenario"], raw["collector"], raw["population_size"], days
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArchiveError(f"archive manifest {path} is malformed: {exc}") from exc
