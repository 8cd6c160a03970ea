"""Tests for repro.api.facade: the unified query entry point."""

import json

import pytest

from repro.api import QueryResult, QuerySpec
from repro.errors import QueryError
from repro.experiments import ExperimentContext, run_experiment


@pytest.fixture(scope="module")
def context(tiny_world):
    return ExperimentContext(world=tiny_world, cadence_days=60)


class TestFacadeCaching:
    def test_api_property_is_cached(self, context):
        assert context.api is context.api

    def test_full_sweep_cached_across_consumers(self, context):
        assert context.api.full_sweep() is context.api.full_sweep()

    def test_recent_window_cached(self, context):
        assert context.api.recent_window() is context.api.recent_window()


class TestHeadlineQueries:
    def test_headline_matches_facade_helper(self, context):
        result = context.api.query({"kind": "headline"})
        assert result.kind == "headline"
        assert result.data == context.api.headline()

    def test_query_json_deterministic(self, context):
        spec = QuerySpec("headline")
        assert context.api.query_json(spec) == context.api.query_json(spec)


class TestSeriesQueries:
    def test_composition_columns_align(self, context):
        data = context.api.query(
            {"kind": "series", "series": "ns_composition"}
        ).data
        assert data["series"] == "ns_composition"
        lengths = {
            len(data[key])
            for key in ("dates", "full", "part", "non", "total", "full_pct")
        }
        assert len(lengths) == 1

    def test_range_slice_is_subset(self, context):
        whole = context.api.query(
            {"kind": "series", "series": "hosting_composition"}
        ).data
        window = context.api.query(
            {
                "kind": "series", "series": "hosting_composition",
                "start": "2022-01-01", "end": "2022-06-01",
            }
        ).data
        assert 0 < len(window["dates"]) < len(whole["dates"])
        assert all("2022-01-01" <= day <= "2022-06-01" for day in window["dates"])
        positions = [whole["dates"].index(day) for day in window["dates"]]
        assert window["full"] == [whole["full"][p] for p in positions]

    def test_asn_shares_track_fig4_providers(self, context):
        data = context.api.query({"kind": "series", "series": "asn_shares"}).data
        assert set(data["providers"]) == set(data["shares_pct"])
        assert "regru" in data["providers"]
        assert len(data["counts"]["regru"]) == len(data["dates"])

    def test_listed_counts_shape(self, context):
        data = context.api.query(
            {"kind": "series", "series": "listed_counts"}
        ).data
        assert len(data["listed"]) == len(data["dates"])


class TestRecordsQueries:
    def test_pagination_consistent(self, context):
        base = {"kind": "records", "date": "2022-03-04", "tld": "ru"}
        page = context.api.query(dict(base, limit=5)).data
        assert page["limit"] == 5
        assert len(page["records"]) == min(5, page["matched_total"])
        follow = context.api.query(dict(base, offset=5, limit=5)).data
        first_ids = {r["index"] for r in page["records"]}
        assert first_ids.isdisjoint(r["index"] for r in follow["records"])

    def test_punycode_filter_byte_identical(self, context):
        unicode_text = context.api.query_json(
            {"kind": "records", "date": "2022-03-04", "tld": "рф", "limit": 10}
        )
        alabel_text = context.api.query_json(
            {"kind": "records", "date": "2022-03-04", "tld": "xn--p1ai", "limit": 10}
        )
        assert unicode_text == alabel_text
        data = json.loads(unicode_text)["data"]
        assert all(
            record["domain"].endswith(".xn--p1ai")
            for record in data["records"]
        )
        assert all(
            record["domain_unicode"].endswith(".рф")
            for record in data["records"]
        )

    def test_filter_reduces_matches(self, context):
        everything = context.api.query(
            {"kind": "records", "date": "2022-03-04", "limit": 1}
        ).data
        filtered = context.api.query(
            {"kind": "records", "date": "2022-03-04", "tld": "com", "limit": 1}
        ).data
        assert filtered["matched_total"] < everything["matched_total"]
        assert everything["matched_total"] == everything["measured_total"]


class TestExperimentQueries:
    def test_experiment_query_carries_payload(self, context):
        result = context.api.query({"kind": "experiment", "experiment": "fig1"})
        assert isinstance(result, QueryResult)
        assert result.kind == "experiment"
        assert result.data == run_experiment("fig1", context).as_payload()
        assert not hasattr(result, "render")
        payload = json.loads(result.to_json())
        assert payload["spec"] == {"kind": "experiment", "experiment": "fig1"}
        assert payload["data"]["experiment_id"] == "fig1"

    def test_unknown_experiment_is_query_error(self, context):
        with pytest.raises(QueryError, match="fig99"):
            context.api.query({"kind": "experiment", "experiment": "fig99"})


class TestCatalog:
    def test_catalog_lists_everything(self, context):
        data = context.api.query({"kind": "catalog"}).data
        assert "fig1" in data["experiments"]
        assert "concentration" in data["extensions"]
        assert "ns_composition" in data["series"]
        assert data["kinds"] == list(
            ("experiment", "series", "headline", "records", "catalog", "diff")
        )
