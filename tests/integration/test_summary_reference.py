"""Every ``DaySummary`` field, recomputed per domain in plain Python.

:func:`~repro.archive.kernel.summarize_snapshot` is the only code that
turns a snapshot into series counts, and it does so with vectorised
gathers over per-epoch label tables.  This oracle shares none of that:
it builds each measured domain's record with ``measurement_for`` and
classifies it with the scalar record classifiers, then counts.
"""

import datetime as dt
from collections import Counter

import pytest

from repro.archive.kernel import summarize_snapshot
from repro.core.labels import (
    LABEL_FULL,
    LABEL_NON,
    LABEL_PART,
    classify_hosting_geo,
    classify_ns_geo,
    classify_ns_tld,
)
from repro.measurement import FastCollector

from .test_collector_equivalence import DATES

#: The paper's footnote-8 measurement outage day.
OUTAGE = dt.date(2021, 3, 22)


def _triple(labels):
    counts = Counter(labels)
    return (counts[LABEL_FULL], counts[LABEL_PART], counts[LABEL_NON])


@pytest.mark.parametrize("date", DATES + [OUTAGE], ids=str)
def test_summary_matches_per_domain_reference(tiny_world, date):
    snapshot = FastCollector(tiny_world).collect(date)
    epoch = snapshot.epoch
    measured = [int(index) for index in snapshot.measured]
    records = {index: snapshot.measurement_for(index) for index in measured}

    tld_counts = Counter()
    asn_counts = Counter()
    for record in records.values():
        tld_counts.update(set(record.ns_tlds()))
        asn_counts.update(
            {epoch.routing.lookup(address) for address in record.apex_addresses}
        )
    sanctioned = set(int(i) for i in tiny_world.sanctioned_indices)

    summary = summarize_snapshot(snapshot)
    assert summary.date == snapshot.date
    assert summary.measured_count == len(measured)
    assert summary.ns == _triple(
        classify_ns_geo(record, epoch.geo) for record in records.values()
    )
    assert summary.hosting == _triple(
        classify_hosting_geo(record, epoch.geo) for record in records.values()
    )
    assert summary.tld == _triple(
        classify_ns_tld(record) for record in records.values()
    )
    assert summary.tld_counts == dict(tld_counts)
    assert summary.asn_counts == dict(asn_counts)
    assert summary.sanctioned == _triple(
        classify_ns_geo(records[index], epoch.geo)
        for index in measured
        if index in sanctioned
    )
