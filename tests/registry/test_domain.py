"""Tests for repro.registry.domain."""

import datetime as dt

import pytest

from repro.dns.name import DomainName
from repro.errors import RegistryError
from repro.registry.domain import NEVER, DomainRecord


def record(created=0, deleted=NEVER):
    return DomainRecord(DomainName.parse("example.ru"), 0, created, deleted)


class TestLifecycle:
    def test_active_window_half_open(self):
        rec = record(created=10, deleted=20)
        assert not rec.is_active(9)
        assert rec.is_active(10)
        assert rec.is_active(19)
        assert not rec.is_active(20)

    def test_never_deleted(self):
        rec = record(created=0)
        assert rec.is_active(10**6)

    def test_dates(self):
        rec = record(created=0, deleted=10)
        assert rec.created_date == dt.date(2017, 6, 18)

    def test_deletion_before_creation_rejected(self):
        with pytest.raises(RegistryError):
            record(created=10, deleted=10)

    def test_active_accepts_date_objects(self):
        rec = record(created=0, deleted=10)
        assert rec.is_active(dt.date(2017, 6, 20))
