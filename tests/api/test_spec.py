"""Tests for repro.api.spec: validation, canonicalisation, envelopes."""

import datetime
import inspect
import json

import pytest

from repro.api import QUERY_KINDS, SCHEMA_VERSION, SERIES_NAMES
from repro.api.spec import MAX_RECORDS_LIMIT, QueryResult, QuerySpec, jsonify
from repro.errors import QueryError


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(QueryError, match="unknown query kind"):
            QuerySpec("mystery")

    def test_every_declared_kind_constructs(self):
        QuerySpec("experiment", experiment="fig1")
        QuerySpec("series", series="ns_composition")
        QuerySpec("headline")
        QuerySpec("records", date="2022-03-04")
        QuerySpec("catalog")
        QuerySpec("diff", experiment="fig1", scenario="no-invasion")
        assert len(QUERY_KINDS) == 6

    def test_experiment_requires_id(self):
        with pytest.raises(QueryError, match="'experiment' id"):
            QuerySpec("experiment")

    def test_series_requires_known_name(self):
        with pytest.raises(QueryError, match="unknown series"):
            QuerySpec("series", series="nope")

    def test_series_rejects_inverted_range(self):
        with pytest.raises(QueryError, match="inverted"):
            QuerySpec(
                "series", series="tld_shares",
                start="2022-06-01", end="2022-01-01",
            )

    def test_records_requires_date(self):
        with pytest.raises(QueryError, match="need a 'date'"):
            QuerySpec("records")

    def test_bad_date_rejected(self):
        with pytest.raises(QueryError, match="bad 'date' date"):
            QuerySpec("records", date="yesterday-ish")

    def test_negative_counts_rejected(self):
        with pytest.raises(QueryError, match="offset"):
            QuerySpec("records", date="2022-03-04", offset=-1)
        with pytest.raises(QueryError, match="limit"):
            QuerySpec("records", date="2022-03-04", limit=-5)

    def test_records_limit_capped(self):
        spec = QuerySpec("records", date="2022-03-04", limit=MAX_RECORDS_LIMIT)
        assert spec.limit == MAX_RECORDS_LIMIT
        with pytest.raises(QueryError, match=f"limit must be <= {MAX_RECORDS_LIMIT}"):
            QuerySpec("records", date="2022-03-04", limit=MAX_RECORDS_LIMIT + 1)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(QueryError, match="unknown query field"):
            QuerySpec.from_dict({"kind": "headline", "colour": "blue"})

    def test_from_dict_requires_kind(self):
        with pytest.raises(QueryError, match="needs a 'kind'"):
            QuerySpec.from_dict({"series": "tld_shares"})

    def test_from_json_rejects_non_object(self):
        with pytest.raises(QueryError):
            QuerySpec.from_json("[1, 2]")
        with pytest.raises(QueryError, match="not valid JSON"):
            QuerySpec.from_json("{kind:")


class TestCanonicalisation:
    def test_dates_normalise_to_iso(self):
        spec = QuerySpec(
            "series", series="tld_shares",
            start=datetime.date(2022, 2, 24), end="2022-06-01",
        )
        assert spec.start == "2022-02-24"
        assert spec.end == "2022-06-01"

    def test_tld_unicode_and_alabel_agree(self):
        unicode_spec = QuerySpec("records", date="2022-03-04", tld="рф")
        alabel_spec = QuerySpec("records", date="2022-03-04", tld="xn--p1ai")
        assert unicode_spec.tld == "xn--p1ai"
        assert unicode_spec == alabel_spec
        assert unicode_spec.cache_key() == alabel_spec.cache_key()
        assert hash(unicode_spec) == hash(alabel_spec)

    def test_tld_case_and_dot_normalised(self):
        assert QuerySpec("records", date="2022-03-04", tld=".RU").tld == "ru"

    def test_empty_tld_rejected(self):
        with pytest.raises(QueryError, match="empty tld"):
            QuerySpec("records", date="2022-03-04", tld=" . ")

    def test_counts_accept_strings(self):
        spec = QuerySpec("records", date="2022-03-04", offset="5", limit="10")
        assert spec.offset == 5 and spec.limit == 10

    def test_to_dict_omits_none(self):
        assert QuerySpec("headline").to_dict() == {"kind": "headline"}

    def test_cache_key_is_sorted_compact_json(self):
        spec = QuerySpec("records", date="2022-03-04", tld="ru", limit=3)
        payload = json.loads(spec.cache_key())
        assert payload == spec.to_dict()
        assert ": " not in spec.cache_key()


class TestJsonify:
    def test_dates_tuples_and_keys(self):
        value = jsonify(
            {
                1: (datetime.date(2022, 3, 4), {"set"}),
                "nested": {"tuple": (1, 2)},
            }
        )
        assert value["1"][0] == "2022-03-04"
        assert value["1"][1] == ["set"]
        assert value["nested"]["tuple"] == [1, 2]

    def test_numpy_like_scalars_unwrapped(self):
        class FakeScalar:
            def item(self):
                return 7

        assert jsonify({"n": FakeScalar()}) == {"n": 7}


class TestQueryResult:
    def test_exactly_one_payload_source(self):
        # The envelope carries its payload as ``data`` and nothing else.
        parameters = inspect.signature(QueryResult).parameters
        assert list(parameters) == ["kind", "spec", "data"]

    def test_envelope_shape_and_version(self):
        result = QueryResult("headline", {"kind": "headline"}, {"x": 1})
        envelope = result.to_dict()
        assert set(envelope) == {"schema_version", "kind", "spec", "data"}
        assert envelope["schema_version"] == SCHEMA_VERSION
        assert envelope["data"] == {"x": 1}

    def test_to_json_is_canonical(self):
        result = QueryResult("headline", {"kind": "headline"}, {"b": 2, "a": 1})
        text = result.to_json()
        assert text.index('"a"') < text.index('"b"')
        assert ": " not in text and text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        )

    def test_data_result_has_no_delegation(self):
        result = QueryResult("headline", {"kind": "headline"}, {"x": 1})
        assert vars(result) == {
            "kind": "headline", "spec": {"kind": "headline"}, "data": {"x": 1},
        }
        with pytest.raises(AttributeError):
            result.render()

    def test_series_names_catalogued(self):
        assert "asn_shares" in SERIES_NAMES and len(SERIES_NAMES) == 7
