#!/usr/bin/env python
"""End-to-end smoke for the scenario engine (CI scenario-sweep job).

Three claims, checked against real processes and real bytes:

1. **Baseline byte-identity** — an archive built from
   ``ScenarioSpec.resolve("baseline")`` is byte-identical to one built
   from the legacy ad-hoc ``ConflictScenarioConfig`` path (digest over
   every shard file).
2. **Cross-scenario serving** — ``repro serve --scenario-archive``
   answers ``/v2/scenarios``, per-scenario ``/v2/query``, and a
   ``/v2/diff`` joining two worlds, all over HTTP from disk.
3. **Cache walls** — repeats inside one scenario hit the result cache;
   the same spec under another scenario never does.

Run from the repository root::

    PYTHONPATH=src python scripts/scenario_smoke.py

Exit code 0 means every check passed.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import tempfile

sys.path.insert(0, "src")

from repro.archive import ArchiveBuilder, archive_digest  # noqa: E402
from repro.client import ClientError, QueryClient  # noqa: E402
from repro.scenario import ScenarioSpec  # noqa: E402
from repro.sim import ConflictScenarioConfig  # noqa: E402

SCALE = 20000.0
CADENCE = 90
COUNTERFACTUAL = "no-invasion"

#: A three-day conflict-window slice is plenty for the identity check.
IDENTITY_RANGE = ("2022-03-01", "2022-03-03", 1)

ARGS = ["--scale", str(int(SCALE)), "--no-pki", "--cadence", str(CADENCE)]


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_baseline_identity(scratch: str) -> None:
    print("+ checking baseline archive byte-identity (spec vs ad-hoc config)")
    legacy_config = ConflictScenarioConfig(scale=SCALE, with_pki=False)
    spec_config = (
        ScenarioSpec.resolve("baseline")
        .with_config(scale=SCALE, with_pki=False)
        .compile()
    )
    legacy_dir = f"{scratch}/identity-legacy"
    spec_dir = f"{scratch}/identity-spec"
    ArchiveBuilder(legacy_dir, legacy_config).build(*IDENTITY_RANGE)
    ArchiveBuilder(spec_dir, spec_config).build(*IDENTITY_RANGE)
    legacy = archive_digest(legacy_dir)
    spec = archive_digest(spec_dir)
    if legacy != spec:
        fail(f"baseline archives diverged: legacy {legacy} != spec {spec}")
    print(f"+ byte-identity ok (archive digest {spec[:16]}...)")


def build_archive(scenario: str, directory: str) -> None:
    print(f"+ building {scenario!r} archive at {directory}")
    build = subprocess.run(
        [sys.executable, "-m", "repro", "--scenario", scenario, *ARGS,
         "archive", "build", directory],
        stdout=subprocess.PIPE,
    )
    if build.returncode != 0:
        fail(f"{scenario!r} archive build exited {build.returncode}")


def wait_for_port(process: subprocess.Popen) -> int:
    line = process.stdout.readline().decode()
    if not line.startswith("serving on http://"):
        fail(f"unexpected serve banner: {line!r}")
    return int(line.rsplit(":", 1)[1])


def fetch(client: QueryClient, spec) -> tuple[dict, str]:
    """(envelope, x-cache) for one query spec, failing on any error."""
    try:
        response = client.query(spec)
    except ClientError as exc:
        fail(f"query {spec} failed: {exc}")
    if response.status != 200:
        fail(f"query {spec} returned {response.status}: {response.body!r}")
    return json.loads(response.body), response.headers.get("x-cache", "")


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        check_baseline_identity(scratch)

        baseline_dir = f"{scratch}/baseline"
        counterfactual_dir = f"{scratch}/{COUNTERFACTUAL}"
        build_archive("baseline", baseline_dir)
        build_archive(COUNTERFACTUAL, counterfactual_dir)

        print("+ starting repro serve with both worlds")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *ARGS, "serve",
             "--archive", baseline_dir, "--port", "0",
             "--scenario-archive", f"{COUNTERFACTUAL}={counterfactual_dir}"],
            stdout=subprocess.PIPE,
        )
        try:
            port = wait_for_port(process)
            client = QueryClient(
                f"http://127.0.0.1:{port}", timeout=60.0, retries=3,
                deadline_ms=30_000,
            )
            print(f"+ serving on http://127.0.0.1:{port}")
            client.wait_ready(deadline_seconds=30.0)

            listing = json.loads(client.scenarios().body)
            ids = [entry["id"] for entry in listing["scenarios"]]
            if ids != ["baseline", COUNTERFACTUAL]:
                fail(f"/v2/scenarios listed {ids}")
            print(f"+ /v2/scenarios ok ({', '.join(ids)})")

            base, _ = fetch(client, {"kind": "headline"})
            counterfactual, first_cache = fetch(
                client, {"kind": "headline", "scenario": COUNTERFACTUAL}
            )
            if first_cache == "hit":
                fail("first counterfactual query hit the baseline cache")
            base_end = base["data"]["ns_full_end"]
            cf_end = counterfactual["data"]["ns_full_end"]
            if base_end == cf_end:
                fail(f"worlds answered identically (ns_full_end={base_end})")
            repeat, repeat_cache = fetch(
                client, {"kind": "headline", "scenario": COUNTERFACTUAL}
            )
            if repeat_cache != "hit" or repeat != counterfactual:
                fail("counterfactual repeat missed its own cache")
            print(
                "+ per-scenario queries ok "
                f"(ns_full_end {base_end} vs {cf_end}, cache walls hold)"
            )

            diff, _ = fetch(
                client,
                {"kind": "diff", "experiment": "fig2",
                 "scenario": COUNTERFACTUAL},
            )
            data = diff["data"]
            if data["scenario"] != COUNTERFACTUAL or not data["measured_delta"]:
                fail(f"diff payload malformed: {data}")
            deltas = ", ".join(
                f"{key}={value:+.2f}"
                for key, value in sorted(data["measured_delta"].items())
            )
            print(f"+ cross-scenario diff ok ({deltas})")

            print("+ sending SIGINT")
            process.send_signal(signal.SIGINT)
            code = process.wait(timeout=60)
            if code != 0:
                fail(f"serve exited {code} after SIGINT")
            print("PASS: scenario smoke complete")
            return 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)


if __name__ == "__main__":
    sys.exit(main())
