"""Tests for the repro CLI."""

import pathlib

import pytest

from repro.cli import build_parser, main

ARGS = ["--scale", "2500", "--no-pki"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["list"])
        # scale/seed default to None (unset) so spec-file values are
        # never stomped; the compiled config supplies 250.0.
        assert args.scale is None
        assert args.seed is None
        assert args.scenario == "baseline"
        assert args.cadence == 7
        assert args.workers == 1

    def test_unset_scale_compiles_to_the_config_default(self):
        from repro.scenario import ScenarioSpec

        config = ScenarioSpec.resolve("baseline").compile()
        assert config.scale == 250.0


class TestCommands:
    def test_list(self, capsys):
        assert main(ARGS + ["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "trustedca" in out

    def test_info(self, capsys):
        assert main(ARGS + ["info"]) == 0
        out = capsys.readouterr().out
        assert "sanctioned domains: 107" in out

    def test_run_fig1(self, capsys, tmp_path):
        out_file = tmp_path / "fig1.txt"
        code = main(ARGS + ["--cadence", "30", "run", "fig1", "--out", str(out_file)])
        assert code == 0
        assert "fig1" in capsys.readouterr().out
        assert out_file.read_text().startswith("== fig1")

    def test_run_unknown_experiment(self, capsys):
        assert main(ARGS + ["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_resolve_registered_domain(self, capsys):
        code = main(
            ARGS + ["resolve", "sanctioned-entity-000.ru", "--date", "2022-03-02"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ns4-cloud.nic.ru" in out
        assert "(SE)" in out  # Netnod still serving before March 3

    def test_resolve_unknown_domain(self, capsys):
        code = main(ARGS + ["resolve", "never-registered-xyz.ru"])
        assert code == 1
        assert "not registered" in capsys.readouterr().out

    def test_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["--scale", "2500", "--cadence", "60", "report",
             "--output", "EXP.md"]
        )
        assert code == 0
        text = pathlib.Path(tmp_path, "EXP.md").read_text()
        assert "# EXPERIMENTS" in text
        assert "Figure 1" in text

    def test_bundle(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        code = main(
            ["--scale", "2500", "--cadence", "60", "bundle",
             "--output", str(out_dir), "--extensions"]
        )
        assert code == 0
        names = {path.name for path in out_dir.iterdir()}
        assert "fig1.txt" in names
        assert "fig1_series.csv" in names
        assert "gl25.txt" in names  # extensions included
        assert "table2_rows.csv" in names
        assert "validation.txt" in names
        assert "timeline.txt" in names
        assert (out_dir / "validation.txt").read_text().startswith(
            "world is internally consistent"
        )


    def test_bundle_json_manifest(self, tmp_path):
        import json

        out_dir = tmp_path / "artifacts"
        code = main(
            ["--scale", "2500", "--cadence", "60", "bundle",
             "--output", str(out_dir), "--profile"]
        )
        assert code == 0
        manifest = json.loads((out_dir / "bundle.json").read_text())
        assert manifest["bundle_format"] == 2
        # The canonical scenario identity archives share (joinable).
        assert manifest["scenario"]["id"] == "baseline"
        assert manifest["scenario"]["spec_digest"]
        assert manifest["scenario"]["fingerprint"] == {
            "scale": 2500.0,
            "seed": 20220224,
            "geo_lag_days": 0,
            "netnod_mode": "renumber",
            "sanctioned_domain_count": 107,
        }
        assert manifest["run"] == {
            "scale": 2500.0,
            "seed": 20220224,
            "cadence_days": 60,
            "workers": 1,
            "with_pki": True,
        }
        assert manifest["include_extensions"] is False
        ids = [entry["id"] for entry in manifest["experiments"]]
        assert "fig1" in ids and "headline" in ids
        for entry in manifest["experiments"]:
            assert entry["title"]
            for name in entry["files"]:
                assert (out_dir / name).exists()
        assert "validation.txt" in manifest["extra_files"]
        assert "full_sweep" in manifest["profile"]["phases"]

    def test_timeline(self, capsys):
        assert main(ARGS + ["timeline"]) == 0
        out = capsys.readouterr().out
        assert "Netnod" in out
        assert "2022-02-24" in out


    def test_list_includes_extensions(self, capsys):
        assert main(ARGS + ["list"]) == 0
        out = capsys.readouterr().out
        assert "concentration" in out and "extensions:" in out

    def test_run_extension(self, capsys):
        code = main(ARGS + ["--cadence", "60", "run", "countries"])
        assert code == 0
        assert "countries" in capsys.readouterr().out


class TestArchiveCommands:
    """The archive build/status/verify verbs and ``run --archive``."""

    @pytest.fixture(scope="class")
    def cli_archive(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cli-archive") / "std"
        code = main(
            ARGS + ["--cadence", "60", "archive", "build", str(directory)]
        )
        assert code == 0
        return directory

    def test_build_reports_days(self, cli_archive, capsys):
        # Second build over the same plan is a no-op resume.
        code = main(ARGS + ["--cadence", "60", "archive", "build", str(cli_archive)])
        assert code == 0
        out = capsys.readouterr().out
        assert "archived 0 days" in out
        assert "already covered" in out

    def test_custom_range_needs_both_bounds(self, cli_archive, capsys):
        code = main(
            ARGS + ["archive", "build", str(cli_archive), "--start", "2022-03-01"]
        )
        assert code == 2
        assert "together" in capsys.readouterr().err

    def test_status(self, cli_archive, capsys):
        assert main(ARGS + ["--cadence", "60", "archive", "status", str(cli_archive)]) == 0
        out = capsys.readouterr().out
        assert "days covered" in out
        assert "standard plan" in out
        # The standard plan at the build cadence is fully present.
        assert "0/" not in out.split("standard plan:")[1]

    def test_verify_clean(self, cli_archive, capsys):
        assert main(ARGS + ["archive", "verify", str(cli_archive)]) == 0
        assert "archive ok" in capsys.readouterr().out

    def test_verify_detects_corruption(self, cli_archive, tmp_path, capsys):
        import shutil

        copy = tmp_path / "corrupt"
        shutil.copytree(cli_archive, copy)
        shard = sorted(copy.glob("*.shard"))[0]
        blob = bytearray(shard.read_bytes())
        blob[-1] ^= 0xFF
        shard.write_bytes(bytes(blob))
        assert main(ARGS + ["archive", "verify", str(copy)]) == 1
        assert "problem(s) found" in capsys.readouterr().err

    def test_status_on_missing_archive(self, tmp_path, capsys):
        assert main(ARGS + ["archive", "status", str(tmp_path / "nope")]) == 1
        assert "manifest" in capsys.readouterr().err

    def test_run_from_archive_matches_live(self, cli_archive, tmp_path, capsys):
        live = tmp_path / "live.txt"
        replayed = tmp_path / "replayed.txt"
        assert main(
            ARGS + ["--cadence", "60", "run", "fig1", "--out", str(live)]
        ) == 0
        assert main(
            ARGS + ["--cadence", "60", "run", "fig1",
                    "--archive", str(cli_archive), "--out", str(replayed)]
        ) == 0
        capsys.readouterr()
        assert replayed.read_text() == live.read_text()

    def test_run_refuses_mismatched_archive(self, cli_archive, capsys):
        code = main(
            ["--scale", "5000", "--no-pki", "--cadence", "60",
             "run", "fig1", "--archive", str(cli_archive)]
        )
        assert code == 1
        assert "different scenario" in capsys.readouterr().err

    def test_bundle_profile_json_counts_archive_cache(
        self, cli_archive, tmp_path, capsys
    ):
        import json

        out_dir = tmp_path / "artifacts"
        profile_path = tmp_path / "metrics.json"
        code = main(
            ARGS + ["--cadence", "60", "bundle",
                    "--output", str(out_dir),
                    "--archive", str(cli_archive),
                    "--profile", "--profile-json", str(profile_path)]
        )
        assert code == 0
        capsys.readouterr()
        manifest = json.loads((out_dir / "bundle.json").read_text())
        shards = manifest["profile"]["caches"]["archive_shards"]
        assert shards["hits"] + shards["misses"] > 0
        # --profile-json carries the identical summary.
        standalone = json.loads(profile_path.read_text())
        assert standalone["caches"]["archive_shards"] == shards


class TestQueryCommand:
    """``repro query``: offline canonical JSON with contractual exit codes."""

    def test_catalog_roundtrip(self, capsys):
        import json

        assert main(ARGS + ["query", '{"kind": "catalog"}']) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 2
        assert "fig1" in payload["data"]["experiments"]

    def test_flags_build_the_spec(self, capsys):
        import json

        code = main(
            ARGS + ["--cadence", "60", "query",
                    "--kind", "records", "--date", "2022-03-04",
                    "--tld", "RU", "--limit", "2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["tld"] == "ru"
        assert len(payload["data"]["records"]) == 2

    def test_bad_spec_is_usage_error(self, capsys):
        assert main(ARGS + ["query", '{"kind": "mystery"}']) == 2
        assert "unknown query kind" in capsys.readouterr().err

    def test_unknown_experiment_exits_one(self, capsys):
        code = main(
            ARGS + ["query", "--kind", "experiment", "--experiment", "fig99"]
        )
        assert code == 1
        assert "fig99" in capsys.readouterr().err


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8321
        assert args.max_concurrency == 4
        assert args.queue_limit == 32
        assert args.cache_results == 128
        assert args.archive is None
        assert args.processes == 1

    def test_processes_accepts_only_one(self, capsys):
        # One asyncio server per process; the flag survives only so
        # existing ``--processes 1`` invocations keep working.
        assert build_parser().parse_args(
            ["serve", "--processes", "1"]
        ).processes == 1
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--processes", "2"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestLoadgenParser:
    def test_url_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen"])

    def test_defaults(self):
        args = build_parser().parse_args(
            ["loadgen", "--url", "http://127.0.0.1:8321"]
        )
        assert args.rate == 50.0
        assert args.duration == 10.0
        assert args.timeout == 30.0
        assert args.output == "BENCH_service_load.json"
        assert args.max_error_rate is None
        assert args.max_p99_ms is None

    def test_gate_flags(self):
        args = build_parser().parse_args(
            ["--seed", "7", "loadgen", "--url", "http://127.0.0.1:1",
             "--rate", "120", "--duration", "5", "--output", "-",
             "--max-error-rate", "0", "--max-p99-ms", "500"]
        )
        assert args.seed == 7
        assert args.rate == 120.0
        assert args.output == "-"
        assert args.max_error_rate == 0.0
        assert args.max_p99_ms == 500.0
