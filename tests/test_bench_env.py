"""Every committed performance artifact records where it was measured.

A timing means little without its host and source tree, so each
``benchmarks/output/*.json`` carries an ``env`` block with the keys
``benchmarks/_util.py`` stamps, and each ``BENCH_history.jsonl`` row
carries the same fields.
"""

import json
import pathlib

from benchmarks._util import ENV_KEYS

OUTPUT = pathlib.Path(__file__).parent.parent / "benchmarks" / "output"


def test_every_json_artifact_has_an_env_block():
    artifacts = sorted(OUTPUT.glob("*.json"))
    assert artifacts
    for path in artifacts:
        env = json.loads(path.read_text(encoding="utf-8")).get("env") or {}
        missing = [key for key in ENV_KEYS if env.get(key) is None]
        assert not missing, (path.name, missing)


def test_every_history_row_has_its_environment():
    lines = (OUTPUT / "BENCH_history.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines
    for number, line in enumerate(lines, 1):
        row = json.loads(line)
        missing = [key for key in ENV_KEYS if row.get(key) is None]
        assert not missing, (number, missing)
