"""Tests for repro.core.labels, including fast/record-form agreement."""

import datetime as dt

import pytest
from hypothesis import given, strategies as st

from repro.core.labels import (
    LABEL_FULL,
    LABEL_NON,
    LABEL_PART,
    classify_flags,
    classify_hosting_geo,
    classify_ns_geo,
    classify_ns_tld,
    snapshot_hosting_geo_labels,
    snapshot_ns_geo_labels,
    snapshot_ns_tld_labels,
)
from repro.dns.name import DomainName
from repro.errors import AnalysisError
from repro.geo.database import GeoDatabaseBuilder
from repro.measurement.fast import FastCollector
from repro.measurement.records import DomainMeasurement


@pytest.fixture
def geo():
    return (
        GeoDatabaseBuilder()
        .add_range(0, 99, "RU")
        .add_range(100, 199, "SE")
        .build()
    )


def measurement(ns_addresses=(10,), apex=(20,), ns_names=("ns1.reg.ru",)):
    return DomainMeasurement(
        dt.date(2022, 3, 1),
        DomainName.parse("example.ru"),
        ns_names,
        ns_addresses,
        apex,
    )


class TestRecordForm:
    def test_ns_geo_full(self, geo):
        assert classify_ns_geo(measurement(ns_addresses=(10, 20)), geo) == LABEL_FULL

    def test_ns_geo_part(self, geo):
        assert classify_ns_geo(measurement(ns_addresses=(10, 150)), geo) == LABEL_PART

    def test_ns_geo_non(self, geo):
        assert classify_ns_geo(measurement(ns_addresses=(150,)), geo) == LABEL_NON

    def test_hosting_geo(self, geo):
        assert classify_hosting_geo(measurement(apex=(150,)), geo) == LABEL_NON

    def test_ns_tld(self):
        assert classify_ns_tld(measurement(ns_names=("ns1.reg.ru",))) == LABEL_FULL
        assert (
            classify_ns_tld(
                measurement(ns_names=("ns1.reg.ru", "a.ns.cloudflare.com"))
            )
            == LABEL_PART
        )
        assert (
            classify_ns_tld(measurement(ns_names=("a.ns.cloudflare.com",)))
            == LABEL_NON
        )

    def test_su_counts_as_russian(self):
        assert classify_ns_tld(measurement(ns_names=("ns1.old.su",))) == LABEL_FULL

    def test_empty_rejected(self, geo):
        with pytest.raises(AnalysisError):
            classify_ns_geo(measurement(ns_addresses=()), geo)

    @given(st.lists(st.booleans(), min_size=1, max_size=6))
    def test_classify_flags_total(self, flags):
        assert classify_flags(tuple(flags)) in (LABEL_FULL, LABEL_PART, LABEL_NON)


class TestSnapshotAgreement:
    """The vectorised labels must equal record-level classification."""

    def test_agreement_on_sample(self, tiny_world):
        collector = FastCollector(tiny_world)
        for date in ("2019-07-01", "2022-03-04"):
            snapshot = collector.collect(date)
            sample = snapshot.measured[:: max(len(snapshot.measured) // 60, 1)]
            ns_fast = snapshot_ns_geo_labels(snapshot, sample)
            host_fast = snapshot_hosting_geo_labels(snapshot, sample)
            tld_fast = snapshot_ns_tld_labels(snapshot, sample)
            geo = snapshot.epoch.geo
            for position, index in enumerate(sample):
                record = snapshot.measurement_for(int(index))
                assert classify_ns_geo(record, geo) == ns_fast[position]
                assert classify_hosting_geo(record, geo) == host_fast[position]
                assert classify_ns_tld(record) == tld_fast[position]
