"""Exit-code and message pins for ``repro archive verify``/``repair``.

Each corruption class has a contractual exit code and a stable
``[kind]`` tag on stderr (documented in docs/archive.md); these tests
pin them so scripts and CI jobs can branch on them safely.
"""

import json
import os
import shutil

import pytest

from repro.cli import main

#: Small world (1:2500), PKI skipped — matches tests/test_cli.py.
ARGS = ["--scale", "2500", "--no-pki"]
RANGE = ["--start", "2022-03-01", "--end", "2022-03-03", "--step", "1"]


@pytest.fixture(scope="module")
def base_archive(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-exitcodes") / "base"
    assert main(ARGS + ["archive", "build", str(directory)] + RANGE) == 0
    return directory


@pytest.fixture()
def archive_copy(base_archive, tmp_path):
    target = tmp_path / "copy"
    shutil.copytree(base_archive, target)
    return target


def corrupt_payload(directory, day="2022-03-02"):
    path = directory / f"{day}.shard"
    blob = bytearray(path.read_bytes())
    blob[-10] ^= 0x20
    path.write_bytes(bytes(blob))
    return path


class TestVerifyExitCodes:
    def test_clean_archive_exits_zero(self, base_archive, capsys):
        assert main(ARGS + ["archive", "verify", str(base_archive)]) == 0
        assert "archive ok" in capsys.readouterr().out

    def test_bit_flip_tagged_corrupt(self, archive_copy, capsys):
        corrupt_payload(archive_copy)
        assert main(ARGS + ["archive", "verify", str(archive_copy)]) == 1
        err = capsys.readouterr().err
        assert "[corrupt]" in err
        assert "1 problem(s) found" in err

    def test_truncation_tagged(self, archive_copy, capsys):
        path = archive_copy / "2022-03-02.shard"
        path.write_bytes(path.read_bytes()[:-7])
        assert main(ARGS + ["archive", "verify", str(archive_copy)]) == 1
        err = capsys.readouterr().err
        assert "[truncated]" in err
        assert "manifest says" in err

    def test_missing_shard_tagged(self, archive_copy, capsys):
        os.unlink(archive_copy / "2022-03-02.shard")
        assert main(ARGS + ["archive", "verify", str(archive_copy)]) == 1
        err = capsys.readouterr().err
        assert "[missing-shard]" in err
        assert "2022-03-02.shard is missing" in err

    def test_stale_manifest_crc_tagged(self, archive_copy, capsys):
        manifest_path = archive_copy / "manifest.json"
        raw = json.loads(manifest_path.read_text())
        raw["days"]["2022-03-02"]["crc32"] ^= 1
        manifest_path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
        assert main(ARGS + ["archive", "verify", str(archive_copy)]) == 1
        err = capsys.readouterr().err
        assert "[stale-manifest-crc]" in err
        assert "does not match the manifest" in err

    def test_orphan_tagged(self, archive_copy, capsys):
        (archive_copy / "2022-03-09.shard").write_bytes(b"stray")
        assert main(ARGS + ["archive", "verify", str(archive_copy)]) == 1
        assert "[orphan]" in capsys.readouterr().err

    def test_no_manifest_exits_four(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(ARGS + ["archive", "verify", str(empty)]) == 4
        assert "no archive manifest" in capsys.readouterr().err


class TestRepairExitCodes:
    def test_repair_restores_and_exits_zero(self, base_archive, archive_copy, capsys):
        damaged = corrupt_payload(archive_copy)
        assert main(ARGS + ["archive", "repair", str(archive_copy)]) == 0
        out = capsys.readouterr().out
        assert "quarantined 1 file(s), rebuilt 1 day(s)" in out
        assert damaged.read_bytes() == (
            base_archive / damaged.name
        ).read_bytes()
        assert os.path.exists(str(damaged) + ".quarantined")
        assert main(ARGS + ["archive", "verify", str(archive_copy)]) == 0

    def test_scenario_mismatch_exits_three(self, archive_copy, capsys):
        code = main(
            ["--scale", "5000", "--no-pki", "archive", "repair", str(archive_copy)]
        )
        assert code == 3
        assert "different scenario" in capsys.readouterr().err

    def test_no_manifest_exits_four(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(ARGS + ["archive", "repair", str(empty)]) == 4


class TestBuildExitCodes:
    def test_scenario_mismatch_exits_three(self, archive_copy, capsys):
        code = main(
            ["--scale", "5000", "--no-pki", "archive", "build", str(archive_copy)]
            + RANGE
        )
        assert code == 3
        assert "different scenario" in capsys.readouterr().err

    def test_profile_json_includes_recovery_counters(
        self, archive_copy, tmp_path, capsys
    ):
        out_path = tmp_path / "metrics.json"
        code = main(
            ARGS
            + ["archive", "build", str(archive_copy), "--profile-json", str(out_path)]
            + RANGE
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert set(payload) == {
            "phases", "caches", "recovery", "endpoints", "counters", "memory",
        }
