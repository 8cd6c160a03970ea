"""The byte-identity and determinism contracts.

The defining constraint of the scenario engine: the ``baseline`` spec
compiles to a world whose archive shards are byte-identical to the
pre-scenario-engine ad-hoc config path, and any spec builds the same
bytes in any process.
"""

import os
import pickle
import subprocess
import sys

import pytest

from repro.archive import ArchiveBuilder, archive_digest
from repro.errors import ArchiveMismatchError
from repro.experiments import ExperimentContext
from repro.scenario import ScenarioSpec, world_digest
from repro.sim import ConflictScenarioConfig, build_world

TEST_SCALE = 30000.0

#: A short build range: three conflict-window days per archive.
RANGE = ("2022-03-01", "2022-03-03", 1)


def _spec(name: str) -> ScenarioSpec:
    return ScenarioSpec.resolve(name).with_config(
        scale=TEST_SCALE, with_pki=False
    )


class TestBaselineByteIdentity:
    def test_world_digest_matches_the_ad_hoc_config_path(self):
        legacy = build_world(
            ConflictScenarioConfig(scale=TEST_SCALE, with_pki=False)
        )
        assert world_digest(_spec("baseline").build()) == world_digest(legacy)

    def test_archive_bytes_match_the_ad_hoc_config_path(self, tmp_path):
        legacy_dir = str(tmp_path / "legacy")
        spec_dir = str(tmp_path / "spec")
        ArchiveBuilder(
            legacy_dir,
            ConflictScenarioConfig(scale=TEST_SCALE, with_pki=False),
        ).build(*RANGE)
        ArchiveBuilder(spec_dir, _spec("baseline").compile()).build(*RANGE)
        assert archive_digest(legacy_dir) == archive_digest(spec_dir)

    def test_counterfactual_archives_diverge(self, tmp_path):
        base_dir = str(tmp_path / "baseline")
        cf_dir = str(tmp_path / "depeering")
        ArchiveBuilder(base_dir, _spec("baseline").compile()).build(*RANGE)
        ArchiveBuilder(cf_dir, _spec("depeering").compile()).build(*RANGE)
        assert archive_digest(base_dir) != archive_digest(cf_dir)

    def test_cross_scenario_reads_are_refused(self, tmp_path):
        directory = str(tmp_path / "baseline")
        ArchiveBuilder(directory, _spec("baseline").compile()).build(*RANGE)
        with pytest.raises(ArchiveMismatchError):
            ExperimentContext(
                scenario=_spec("ixp-disconnect"), archive=directory
            )


class TestDeterminism:
    def test_identical_digests_across_two_processes(self):
        local = world_digest(_spec("depeering").build())
        snippet = (
            "from repro.scenario import ScenarioSpec, world_digest\n"
            "spec = ScenarioSpec.resolve('depeering').with_config("
            f"scale={TEST_SCALE!r}, with_pki=False)\n"
            "print(world_digest(spec.build()))\n"
        )
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        remote = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.strip()
        assert remote == local

    def test_compiled_configs_survive_pickling(self):
        # A config is self-contained: a variant that loses state when
        # pickled would silently rebuild a different counterfactual.
        config = _spec("ixp-disconnect").compile()
        clone = pickle.loads(pickle.dumps(config))
        assert clone.scenario_id == config.scenario_id
        assert clone.spec_digest == config.spec_digest
        assert world_digest(build_world(clone)) == world_digest(
            build_world(config)
        )
