"""Tests for repro.geo.database: range DB, bulk lookup, overrides."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import GeolocationError
from repro.geo.database import GeoDatabase, GeoDatabaseBuilder, GeoRange, with_override
from repro.net.prefix import Prefix


@pytest.fixture
def database():
    return (
        GeoDatabaseBuilder()
        .add_prefix(Prefix.parse("10.0.0.0/16"), "RU")
        .add_prefix(Prefix.parse("10.1.0.0/16"), "US")
        .add_prefix(Prefix.parse("10.3.0.0/16"), "DE")
        .build()
    )


class TestGeoRange:
    def test_inverted_rejected(self):
        with pytest.raises(GeolocationError):
            GeoRange(10, 5, "RU")

    def test_bad_country_rejected(self):
        with pytest.raises(ValueError):
            GeoRange(0, 1, "ru")


class TestLookup:
    def test_hit(self, database):
        assert database.lookup(Prefix.parse("10.0.0.0/16").first + 5) == "RU"

    def test_boundary_inclusive(self, database):
        ru = Prefix.parse("10.0.0.0/16")
        assert database.lookup(ru.first) == "RU"
        assert database.lookup(ru.last) == "RU"

    def test_gap_returns_none(self, database):
        assert database.lookup(Prefix.parse("10.2.0.0/16").first) is None

    def test_before_first_range(self, database):
        assert database.lookup(0) is None

    def test_lookup_many(self, database):
        ru = Prefix.parse("10.0.0.0/16").first
        assert database.lookup_many([ru, 0]) == ["RU", None]

    def test_overlap_rejected(self):
        with pytest.raises(GeolocationError):
            GeoDatabase([GeoRange(0, 10, "RU"), GeoRange(5, 20, "US")])


class TestLookupArray:
    def test_matches_point_lookup(self, database):
        addresses = np.array(
            [
                Prefix.parse("10.0.0.0/16").first,
                Prefix.parse("10.1.0.0/16").first + 7,
                Prefix.parse("10.2.0.0/16").first,  # gap
                Prefix.parse("10.3.0.0/16").last,
                0,
            ],
            dtype=np.int64,
        )
        indices = database.lookup_array(addresses)
        codes = database.countries
        decoded = [codes[i] if i >= 0 else None for i in indices]
        assert decoded == [database.lookup(int(a)) for a in addresses]

    def test_empty_database(self):
        empty = GeoDatabase([])
        result = empty.lookup_array(np.array([1, 2, 3]))
        assert (result == -1).all()


class TestBuilder:
    def test_merges_adjacent_same_country(self):
        db = (
            GeoDatabaseBuilder()
            .add_range(0, 9, "RU")
            .add_range(10, 19, "RU")
            .build()
        )
        assert len(db) == 1
        assert db.ranges[0].end == 19

    def test_no_merge_across_countries(self):
        db = (
            GeoDatabaseBuilder().add_range(0, 9, "RU").add_range(10, 19, "US").build()
        )
        assert len(db) == 2

    def test_countries_listing(self, database):
        assert database.countries == ["DE", "RU", "US"]


class TestWithOverride:
    def test_override_inside_range(self, database):
        ru = Prefix.parse("10.0.0.0/16")
        patched = with_override(database, ru.first + 10, ru.first + 20, "SE")
        assert patched.lookup(ru.first + 15) == "SE"
        assert patched.lookup(ru.first + 5) == "RU"
        assert patched.lookup(ru.first + 25) == "RU"

    def test_override_whole_range(self, database):
        us = Prefix.parse("10.1.0.0/16")
        patched = with_override(database, us.first, us.last, "RU")
        assert patched.lookup(us.first + 100) == "RU"

    def test_override_gap(self, database):
        gap = Prefix.parse("10.2.0.0/16")
        patched = with_override(database, gap.first, gap.last, "NL")
        assert patched.lookup(gap.first) == "NL"

    def test_inverted_override_rejected(self, database):
        with pytest.raises(GeolocationError):
            with_override(database, 10, 5, "RU")

    def test_adjacent_overrides_remerge(self, database):
        """Two adjacent same-country overrides coalesce into one range."""
        ru = Prefix.parse("10.0.0.0/16")
        patched = with_override(database, ru.first + 10, ru.first + 19, "SE")
        patched = with_override(patched, ru.first + 20, ru.first + 29, "SE")
        se_ranges = [r for r in patched.ranges if r.country == "SE"]
        assert len(se_ranges) == 1
        assert se_ranges[0].start == ru.first + 10
        assert se_ranges[0].end == ru.first + 29
        assert patched.lookup(ru.first + 25) == "SE"
        assert patched.lookup(ru.first + 30) == "RU"

    def test_repeated_overrides_do_not_fragment(self, database):
        """Re-applying the same transfer never grows the database."""
        us = Prefix.parse("10.1.0.0/16")
        patched = database
        sizes = []
        for _ in range(5):
            patched = with_override(patched, us.first, us.last, "NL")
            sizes.append(len(patched))
        assert len(set(sizes)) == 1
        # Same-country merge with a clipped neighbour: overriding back to
        # US re-joins nothing (DE neighbour differs) but stays bounded.
        restored = with_override(patched, us.first, us.last, "US")
        assert len(restored) == len(database)
        for probe in (us.first, us.first + 99, us.last):
            assert restored.lookup(probe) == database.lookup(probe)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1000),
            st.integers(min_value=0, max_value=200),
            st.sampled_from(["RU", "US", "DE", "NL"]),
        ),
        max_size=10,
    ),
    st.integers(min_value=0, max_value=1500),
)
def test_lookup_matches_naive(raw, probe):
    """Property: binary-search lookup equals a linear scan."""
    builder = GeoDatabaseBuilder()
    cursor = 0
    ranges = []
    for gap, width, country in raw:
        start = cursor + gap
        end = start + width
        builder.add_range(start, end, country)
        ranges.append((start, end, country))
        cursor = end + 1
    database = builder.build(merge_adjacent=False)
    expected = None
    for start, end, country in ranges:
        if start <= probe <= end:
            expected = country
    assert database.lookup(probe) == expected
