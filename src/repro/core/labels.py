"""Classification primitives: the paper's full/partial/non labels.

Three independent classifications per domain (Section 3):

* **hosting geography** — do all / some / none of the apex A records
  geolocate to the Russian Federation?
* **name-server geography** — same question for the authoritative
  name-server addresses;
* **name-server TLD dependency** — are all / some / none of the NS
  *names* registered under Russian-administered TLDs?

Each has a record-level form (operating on one
:class:`~repro.measurement.records.DomainMeasurement` plus a geolocation
database) and a vectorised snapshot form used by longitudinal sweeps.
The integration suite proves both forms agree.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import AnalysisError
from ..geo.countries import RU
from ..geo.database import GeoDatabase
from ..measurement.fast import DailySnapshot
from ..measurement.records import DomainMeasurement
from ..registry.tld import is_russian_tld
from ..sim.plans import LABEL_FULL, LABEL_NON, LABEL_PART

__all__ = [
    "LABEL_FULL",
    "LABEL_PART",
    "LABEL_NON",
    "classify_flags",
    "classify_ns_geo",
    "classify_hosting_geo",
    "classify_ns_tld",
    "snapshot_ns_geo_labels",
    "snapshot_hosting_geo_labels",
    "snapshot_ns_tld_labels",
]

def classify_flags(flags: Tuple[bool, ...]) -> int:
    """Full/part/non from per-element "is Russian" booleans."""
    if not flags:
        raise AnalysisError("cannot classify an empty composition")
    russian = sum(flags)
    if russian == len(flags):
        return LABEL_FULL
    if russian == 0:
        return LABEL_NON
    return LABEL_PART


def _country_flags(
    addresses: Tuple[int, ...], geo: GeoDatabase
) -> Tuple[bool, ...]:
    return tuple(geo.lookup(address) == RU for address in addresses)


def classify_ns_geo(measurement: DomainMeasurement, geo: GeoDatabase) -> int:
    """Name-server country composition of one measurement."""
    if not measurement.ns_addresses:
        raise AnalysisError(f"{measurement.domain}: no NS addresses measured")
    return classify_flags(_country_flags(measurement.ns_addresses, geo))


def classify_hosting_geo(measurement: DomainMeasurement, geo: GeoDatabase) -> int:
    """Apex hosting country composition of one measurement."""
    if not measurement.apex_addresses:
        raise AnalysisError(f"{measurement.domain}: no apex addresses measured")
    return classify_flags(_country_flags(measurement.apex_addresses, geo))


def classify_ns_tld(measurement: DomainMeasurement) -> int:
    """Name-server TLD-dependency composition of one measurement."""
    tlds = measurement.ns_tlds()
    if not tlds:
        raise AnalysisError(f"{measurement.domain}: no NS names measured")
    return classify_flags(tuple(is_russian_tld(tld) for tld in tlds))


# ----------------------------------------------------------------------
# Vectorised snapshot forms
# ----------------------------------------------------------------------

def snapshot_ns_geo_labels(
    snapshot: DailySnapshot, indices: Optional[np.ndarray] = None
) -> np.ndarray:
    """NS-geography label per measured domain (or a subset)."""
    subset = snapshot.measured if indices is None else indices
    return snapshot.epoch.dns_labels.geo_label[snapshot.dns_ids[subset]]


def snapshot_hosting_geo_labels(
    snapshot: DailySnapshot, indices: Optional[np.ndarray] = None
) -> np.ndarray:
    """Hosting-geography label per measured domain (or a subset)."""
    subset = snapshot.measured if indices is None else indices
    return snapshot.epoch.hosting_labels.geo_label[snapshot.hosting_ids[subset]]


def snapshot_ns_tld_labels(
    snapshot: DailySnapshot, indices: Optional[np.ndarray] = None
) -> np.ndarray:
    """NS TLD-dependency label per measured domain (or a subset)."""
    subset = snapshot.measured if indices is None else indices
    return snapshot.epoch.dns_labels.tld_label[snapshot.dns_ids[subset]]
