"""``scripts/bench_history.py`` turns one perfbench run into one history row.

Fed canned perfbench output; no benchmark runs here.
"""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "scripts", "bench_history.py")

ENV_LINE = json.dumps({
    "details": {"days": 93},
    "env": {
        "commit": "716dde5e3e8188f854b74632872cd79a4a743403",
        "cores": 2,
        "numpy": "2.4.6",
        "python": "3.11.7",
        "scale": 250,
        "src_sha256": "e00a2513",
        "workload": "build",
        "workload_seed": 20220224,
    },
})
RESULT_LINE = json.dumps({
    "attempted": 186,
    "correct": True,
    "failed": 0,
    "metrics": {
        "p50_ms": {"unit": "ms", "value": 127.4},
        "throughput_per_s": {"unit": "1/s", "value": 156333.9},
    },
})

ROW_KEYS = {
    "commit", "src_sha256", "label", "workload", "workload_seed", "seconds",
    "cores", "python", "numpy", "correct", "attempted", "failed", "metrics",
    "raw",
}


def run(tmp_path, text, *args):
    output = tmp_path / "history.jsonl"
    result = subprocess.run(
        [sys.executable, SCRIPT, "--output", str(output), *args],
        input=text, capture_output=True, text=True, timeout=60,
    )
    return result, output


def test_row_from_env_and_result_lines(tmp_path):
    text = "progress line\n" + ENV_LINE + "\n" + RESULT_LINE + "\n"
    result, output = run(tmp_path, text, "--label", "parent", "--seconds", "40")
    assert result.returncode == 0, result.stderr
    (row,) = [json.loads(line) for line in output.read_text().splitlines()]
    assert set(row) == ROW_KEYS
    assert row["commit"] == "716dde5e3e8188f854b74632872cd79a4a743403"
    assert (row["label"], row["workload"], row["seconds"]) == ("parent", "build", 40.0)
    assert (row["cores"], row["python"], row["numpy"]) == (2, "3.11.7", "2.4.6")
    assert (row["correct"], row["attempted"], row["failed"]) == (True, 186, 0)
    assert row["metrics"] == {"p50_ms": 127.4, "throughput_per_s": 156333.9}
    assert row["raw"] == {}  # the canned details carry no unpaced figures


def test_rows_append_and_commit_overrides(tmp_path):
    text = ENV_LINE + "\n" + RESULT_LINE + "\n"
    args = ("--label", "change", "--seconds", "40", "--commit", "abc1234")
    run(tmp_path, text, *args)
    result, output = run(tmp_path, text, *args)
    assert result.returncode == 0, result.stderr
    rows = [json.loads(line) for line in output.read_text().splitlines()]
    assert len(rows) == 2
    for row in rows:
        assert set(row) == ROW_KEYS
        assert (row["commit"], row["label"], row["workload"]) == (
            "abc1234", "change", "build"
        )
        assert row["src_sha256"] == "e00a2513"


def test_row_carries_the_workload_seed(tmp_path):
    env = json.loads(ENV_LINE)
    env["env"]["workload_seed"] = 7
    text = json.dumps(env) + "\n" + RESULT_LINE + "\n"
    result, output = run(tmp_path, text, "--label", "change", "--seconds", "40")
    assert result.returncode == 0, result.stderr
    (row,) = [json.loads(line) for line in output.read_text().splitlines()]
    assert row["workload_seed"] == 7


def test_result_line_without_env_line_is_refused(tmp_path):
    result, output = run(
        tmp_path, "progress line\n" + RESULT_LINE + "\n",
        "--label", "change", "--seconds", "40", "--commit", "abc1234",
    )
    assert result.returncode == 2
    assert "no perfbench env line" in result.stderr
    assert not output.exists()


def test_input_without_result_line_is_refused(tmp_path):
    result, output = run(
        tmp_path, "not json\n", "--label", "parent", "--seconds", "40",
    )
    assert result.returncode == 2
    assert "no perfbench result line" in result.stderr
    assert not output.exists()


def test_row_carries_unpaced_build_medians(tmp_path):
    env = json.loads(ENV_LINE)
    env["details"].update(
        world_build_s=[0.41, 0.39, 0.52],
        paced_world_build_s=[0.30, 0.31, 0.33],
        day_loop_s=[6.2, 6.6],
    )
    text = json.dumps(env) + "\n" + RESULT_LINE + "\n"
    result, output = run(tmp_path, text, "--label", "change", "--seconds", "40")
    assert result.returncode == 0, result.stderr
    (row,) = [json.loads(line) for line in output.read_text().splitlines()]
    assert row["raw"] == {"world_build_s": 0.41, "day_loop_s": 6.4}


def test_build_row_carries_each_builds_first_day(tmp_path):
    env = json.loads(ENV_LINE)
    env["details"] = {
        "builds": [{"days": 3}, {"days": 2}, {"days": 3}],
        "day_s": [0.52, 0.03, 0.04, 0.45, 0.02, 0.61, 0.05, 0.03],
        "day_loop_s": [0.59, 0.47, 0.69],
    }
    text = json.dumps(env) + "\n" + RESULT_LINE + "\n"
    result, output = run(tmp_path, text, "--label", "change", "--seconds", "40")
    assert result.returncode == 0, result.stderr
    (row,) = [json.loads(line) for line in output.read_text().splitlines()]
    # The first days are 0.52, 0.45 and 0.61, not the day_s median.
    assert row["raw"] == {"day_loop_s": 0.59, "first_day_s": 0.52}


def test_row_carries_unpaced_query_p50(tmp_path):
    env = json.loads(ENV_LINE)
    env["env"]["workload"] = "query-scan"
    env["details"] = {"fixed": {"raw_p50_ms": 9.25, "p50_ms": 8.1}, "setups_s": [0.4]}
    text = json.dumps(env) + "\n" + RESULT_LINE + "\n"
    result, output = run(tmp_path, text, "--label", "parent", "--seconds", "40")
    assert result.returncode == 0, result.stderr
    (row,) = [json.loads(line) for line in output.read_text().splitlines()]
    assert row["workload"] == "query-scan"
    assert row["raw"] == {"raw_p50_ms": 9.25}
