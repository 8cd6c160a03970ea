"""Calibration: the DNS-side figures recover the paper's shapes.

Tolerances are deliberately generous — the reproduction runs at 1:500
scale with churn noise — but tight enough that who-wins, rough magnitudes,
and crossover timing must hold.
"""

import datetime as dt

import pytest

from repro.experiments import run_experiment


@pytest.fixture(scope="module")
def fig(small_context):
    cache = {}

    def run(experiment_id):
        if experiment_id not in cache:
            cache[experiment_id] = run_experiment(experiment_id, small_context)
        return cache[experiment_id]

    return run


class TestFig1NsComposition:
    def test_start_two_thirds_fully_russian(self, fig):
        measured = fig("fig1").measured
        assert 63.0 <= measured["ns_full_start_pct"] <= 71.0

    def test_end_rises_to_paper_level(self, fig):
        measured = fig("fig1").measured
        assert 70.0 <= measured["ns_full_end_pct"] <= 78.0

    def test_change_is_single_digit_positive(self, fig):
        change = fig("fig1").measured["ns_full_change_pp"]
        assert 3.5 <= change <= 10.0

    def test_stable_before_conflict(self, small_context):
        series = small_context.api.full_sweep().ns_composition
        early = series.nearest(dt.date(2018, 1, 1)).share("full")
        late_pre = series.nearest(dt.date(2022, 2, 20)).share("full")
        assert abs(late_pre - early) < 3.5

    def test_jump_concentrated_after_conflict(self, small_context):
        series = small_context.api.full_sweep().ns_composition
        pre = series.nearest(dt.date(2022, 2, 20)).share("full")
        post = series.nearest(dt.date(2022, 5, 25)).share("full")
        assert post - pre > 4.0


class TestFig2TldDependency:
    def test_full_declines(self, fig):
        assert -9.0 <= fig("fig2").measured["tld_full_change_pp"] <= -3.0

    def test_part_grows(self, fig):
        assert 3.0 <= fig("fig2").measured["tld_part_change_pp"] <= 10.0

    def test_conflict_bumps_small(self, fig):
        measured = fig("fig2").measured
        assert -0.5 <= measured["conflict_full_bump_pp"] <= 1.5
        assert -0.5 <= measured["conflict_part_bump_pp"] <= 2.0


class TestFig3TopTlds:
    def test_top5_identity(self, fig):
        assert set(fig("fig3").measured["top_tlds"]) == {
            "ru", "com", "pro", "org", "net",
        }

    def test_ru_first(self, fig):
        assert fig("fig3").measured["top_tlds"][0] == "ru"

    def test_ru_share_level(self, fig):
        end = fig("fig3").measured["end"]
        assert 74.0 <= end["ru"] <= 84.0

    def test_com_grows_substantially(self, fig):
        measured = fig("fig3").measured
        growth = measured["end"]["com"] - measured["start"]["com"]
        assert 4.0 <= growth <= 10.0

    def test_pro_grows_net_shrinks(self, fig):
        measured = fig("fig3").measured
        assert measured["end"]["pro"] > measured["start"]["pro"]
        assert measured["end"]["net"] < measured["start"]["net"]


class TestFig4HostingNetworks:
    def test_russian_big4_stable_around_38(self, fig):
        measured = fig("fig4").measured
        assert 34.0 <= measured["russian_big4_start_pct"] <= 42.0
        assert 34.0 <= measured["russian_big4_end_pct"] <= 43.0
        drift = abs(
            measured["russian_big4_end_pct"] - measured["russian_big4_start_pct"]
        )
        assert drift < 4.0

    def test_cloudflare_around_7_and_stable(self, fig):
        assert 4.5 <= fig("fig4").measured["cloudflare_pct"] <= 8.5

    def test_sedo_collapses_serverel_rises(self, small_context):
        series = small_context.api.recent_window().asn_shares
        sedo = small_context.world.catalog.get("sedo").primary_asn
        serverel = small_context.world.catalog.get("serverel").primary_asn
        assert series.first().share(sedo) > 2.0
        assert series.last().share(sedo) < 0.5
        assert series.first().share(serverel) < 0.5
        assert series.last().share(serverel) > 2.0


class TestFig5Sanctioned:
    def test_feb24_composition(self, fig):
        measured = fig("fig5").measured
        assert measured["sanctioned_total"] == 107
        assert 30.0 <= measured["feb24_part_pct"] <= 38.0
        assert 3.0 <= measured["feb24_non_pct"] <= 8.0

    def test_march4_jump_to_full(self, fig):
        assert fig("fig5").measured["mar4_full_pct"] >= 90.0

    def test_netnod_transition_dates(self, small_context):
        series = small_context.api.recent_window().sanctioned_composition
        before = series.at(dt.date(2022, 3, 2)).share("part")
        after = series.at(dt.date(2022, 3, 4)).share("part")
        assert before > 25.0
        assert after < 6.0


class TestHeadline:
    def test_hosting_baseline(self, fig):
        measured = fig("headline").measured
        assert 68.0 <= measured["hosting_full_start_pct"] <= 74.5
        assert measured["hosting_part_start_pct"] < 1.0
        assert 25.0 <= measured["hosting_non_start_pct"] <= 32.0
