"""ScenarioSpec: validation, canonical JSON round-trips, digests."""

import datetime as _dt
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ScenarioError
from repro.scenario import (
    FlowSpec,
    ProviderExit,
    PulseSpec,
    ScenarioSpec,
    WaveSpec,
)


class TestValidation:
    def test_name_must_be_kebab_case(self):
        for bad in ("", "Invasion", "no_invasion", "-lead", "a" * 65):
            with pytest.raises(ScenarioError):
                ScenarioSpec(name=bad)

    def test_intensity_must_be_positive(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(name="x", migration_intensity=0.0)

    def test_baseline_name_is_reserved_for_the_identity(self):
        with pytest.raises(ScenarioError, match="baseline"):
            ScenarioSpec(name="baseline", conflict=False)
        with pytest.raises(ScenarioError, match="baseline"):
            ScenarioSpec(name="baseline", migration_intensity=2.0)
        # ...but the delta-free baseline itself is fine.
        assert not ScenarioSpec(name="baseline").has_deltas()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ScenarioError, match="bogus"):
            ScenarioSpec.from_dict({"name": "x", "bogus": 1})
        with pytest.raises(ScenarioError, match="bogus"):
            ScenarioSpec.from_dict({"name": "x", "config": {"bogus": 1}})
        with pytest.raises(ScenarioError, match="bogus"):
            ScenarioSpec.from_dict({"name": "x", "world": {"bogus": 1}})

    def test_flow_field_and_pp_validation(self):
        with pytest.raises(ScenarioError):
            FlowSpec("mx", ["a"], "b", 1.0, "2022-03-01", "2022-03-08")
        with pytest.raises(ScenarioError):
            FlowSpec("dns", [], "b", 1.0, "2022-03-01", "2022-03-08")
        with pytest.raises(ScenarioError):
            FlowSpec("dns", ["a"], "b", 0.0, "2022-03-01", "2022-03-08")

    def test_pulse_needs_exactly_one_of_fraction_count(self):
        for quantum in (
            {}, {"fraction": 0.5, "count": 3},
            {"fraction": 0}, {"fraction": -0.1}, {"fraction": 1.5},
            {"count": -3},
        ):
            with pytest.raises(ScenarioError):
                PulseSpec("dns", ["a"], "b", "2022-03-01", **quantum)

    def test_wave_count_positive(self):
        with pytest.raises(ScenarioError):
            WaveSpec("2022-03-01", 0)

    def test_provider_exit_unknown_plans_fail_at_compile(self):
        spec = ScenarioSpec(
            name="ghost-exit",
            provider_exits=[ProviderExit("nonexistent", "2022-03-01")],
        )
        with pytest.raises(ScenarioError, match="resolves to no flows"):
            spec.compile()

    def test_with_config_rejects_unknown_knobs(self):
        spec = ScenarioSpec(name="x", conflict=False)
        with pytest.raises(ScenarioError, match="workers"):
            spec.with_config(workers=4)


class TestRoundTrip:
    def _sample(self) -> ScenarioSpec:
        return ScenarioSpec(
            name="sample",
            title="Sample",
            description="round-trip sample",
            scale=30000.0,
            migration_intensity=1.5,
            provider_exits=[ProviderExit("cloudflare", "2022-04-04")],
            extra_flows=[
                FlowSpec("dns", ["hetzner_dns"], "rucenter_dns", 1.2,
                         "2022-03-01", "2022-03-15"),
            ],
            extra_pulses=[
                PulseSpec("hosting", ["hetzner_h"], "timeweb_h",
                          "2022-03-10", fraction=0.25),
            ],
            sanction_waves=[WaveSpec("2022-03-01", 40)],
            notes=[("2022-03-01", "actor", "text")],
        )

    def test_dict_round_trip(self):
        spec = self._sample()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_preserves_digest(self):
        spec = self._sample()
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_digest_covers_only_the_world_block(self):
        spec = self._sample()
        rescaled = spec.with_config(scale=500.0, seed=7)
        assert rescaled.scale == 500.0 and rescaled.seed == 7
        # Same world deltas => same digest; scale/seed live in the
        # archive fingerprint's own fields, not the digest.
        assert rescaled.digest() == spec.digest()

    def test_digest_moves_with_the_world(self):
        spec = self._sample()
        payload = spec.to_dict()
        payload["name"] = "sample-2"
        payload["world"]["migration_intensity"] = 2.0
        assert ScenarioSpec.from_dict(payload).digest() != spec.digest()

    def test_resolve_by_path(self, tmp_path):
        spec = self._sample()
        path = tmp_path / "sample.json"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        assert ScenarioSpec.resolve(str(path)) == spec

    def test_resolve_unknown_id_lists_the_library(self):
        with pytest.raises(ScenarioError, match="baseline"):
            ScenarioSpec.resolve("definitely-not-a-scenario")


# Constrained generators: real plan keys, study-window dates, sane values.
_DATES = st.dates(
    min_value=_dt.date(2022, 2, 25),
    max_value=_dt.date(2022, 5, 1),
)
_FLOWS = st.builds(
    lambda field, src, dest, pp, day, span: FlowSpec(
        field, [src], dest, pp, day, day + _dt.timedelta(days=span),
    ),
    st.sampled_from(["dns", "hosting"]),
    st.sampled_from(["hetzner_dns", "hetzner_h"]),
    st.sampled_from(["rucenter_dns", "timeweb_h"]),
    st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    _DATES,
    st.integers(min_value=1, max_value=30),
)
_WAVES = st.lists(
    st.builds(WaveSpec, _DATES, st.integers(min_value=1, max_value=60)),
    min_size=1, max_size=4,
)
_SPECS = st.builds(
    lambda conflict, intensity, flows, waves, with_waves: ScenarioSpec(
        name="prop-spec",
        conflict=conflict,
        migration_intensity=intensity,
        extra_flows=flows,
        sanction_waves=waves if with_waves else None,
    ),
    st.booleans(),
    st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
    st.lists(_FLOWS, max_size=3),
    _WAVES,
    st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(_SPECS)
def test_property_json_round_trip(spec):
    """Any constructible spec survives JSON canonicalisation exactly."""
    again = ScenarioSpec.from_json(spec.to_json())
    assert again == spec
    assert again.digest() == spec.digest()
    assert again.to_json() == spec.to_json()
