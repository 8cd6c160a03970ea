"""Tests for repro.geo.service: date-versioned geolocation with lag."""

import pytest

from repro.errors import GeolocationError
from repro.geo.database import GeoDatabaseBuilder
from repro.geo.service import GeoService


def db(country):
    return GeoDatabaseBuilder().add_range(0, 100, country).build()


class TestPublish:
    def test_out_of_order_rejected(self):
        service = GeoService()
        service.publish("2020-01-02", db("RU"))
        with pytest.raises(GeolocationError):
            service.publish("2020-01-01", db("US"))

    def test_empty_service_rejects_queries(self):
        with pytest.raises(GeolocationError):
            GeoService().database_at("2020-01-01")

    def test_negative_lag_rejected(self):
        with pytest.raises(GeolocationError):
            GeoService(lag_days=-1)


class TestContemporaneousLookup:
    def test_picks_latest_effective(self):
        service = GeoService()
        service.publish("2020-01-01", db("RU"))
        service.publish("2020-06-01", db("SE"))
        assert service.lookup("2020-03-01", 50) == "RU"
        assert service.lookup("2020-06-01", 50) == "SE"
        assert service.lookup("2021-01-01", 50) == "SE"

    def test_before_first_snapshot_falls_back(self):
        service = GeoService()
        service.publish("2020-01-01", db("RU"))
        assert service.lookup("2019-01-01", 50) == "RU"


class TestLag:
    def test_lag_delays_new_snapshot(self):
        service = GeoService(lag_days=14)
        service.publish("2020-01-01", db("RU"))
        service.publish("2020-06-01", db("SE"))
        # On June 5, a 14-day-lagged client still sees the May data.
        assert service.lookup("2020-06-05", 50) == "RU"
        assert service.lookup("2020-06-15", 50) == "SE"

    def test_zero_lag_is_instant(self):
        service = GeoService(lag_days=0)
        service.publish("2020-01-01", db("RU"))
        service.publish("2020-06-01", db("SE"))
        assert service.lookup("2020-06-01", 50) == "SE"
