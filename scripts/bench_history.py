#!/usr/bin/env python
"""Append one perfbench result to the committed bench history.

``perfbench/run.py`` ends its standard output with one JSON line
(``{"correct", "attempted", "failed", "metrics"}``), and the line before
it carries the run's ``env`` block.  This script reads that output and
appends one row to ``benchmarks/output/BENCH_history.jsonl``, so a
before/after claim cites committed rows rather than hand-typed numbers::

    python3 perfbench/run.py --workload build --seconds 40 --trace 0 > run.log
    python3 scripts/bench_history.py --label change --seconds 40 run.log

Each row records ``commit``, ``src_sha256``, ``label`` (``parent`` or
``change``), ``workload``, ``workload_seed``, ``seconds``, ``cores``,
``python``, ``numpy``, ``correct``, ``attempted``, ``failed``,
``metrics`` (name -> value) and ``raw``: the unpaced figures the run's
details carry beside its paced metrics, as medians over the run's
samples (``world_build_s`` and ``day_loop_s`` for ``build``,
``raw_p50_ms`` for ``query-scan``), so a paced claim has its unpaced
partner in the same row.  A ``build`` row's ``raw`` also holds
``first_day_s``: the median over the run's builds of each build's first
unpaced day, where a fresh builder fills its encoded caches.  Rows
appended before ``workload_seed``, ``raw`` or ``first_day_s`` was
recorded lack it.  Environment fields come from the run's ``env`` block;
input without one is refused.  ``--commit`` overrides the block's
commit, which a run from a checkout without git history lacks.
perfbench records the checkout's HEAD as ``commit``, so a change
measured before it is committed carries its parent's commit;
``src_sha256`` tells the two trees apart.  Record alternating
parent/change runs in the order they ran, so consecutive rows pair up.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional

HISTORY = os.path.join("benchmarks", "output", "BENCH_history.jsonl")
LABELS = ("parent", "change")


def _json_object(line: str) -> Optional[Dict]:
    """``line`` as a JSON object, or ``None``."""
    try:
        value = json.loads(line)
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def _first_days(details: Dict) -> List[float]:
    """Each build's first unpaced day, found by the builds' day counts."""
    day_s = details.get("day_s")
    builds = details.get("builds")
    if not isinstance(day_s, list) or not isinstance(builds, list):
        return []
    firsts = []
    start = 0
    for build in builds:
        days = build.get("days", 0)
        if days and start < len(day_s):
            firsts.append(day_s[start])
        start += days
    return firsts


def _raw(details: Dict) -> Dict[str, float]:
    """The unpaced medians in a run's details: build times, query latency."""
    found = {
        "world_build_s": details.get("world_build_s"),
        "day_loop_s": details.get("day_loop_s"),
        "raw_p50_ms": (details.get("fixed") or {}).get("raw_p50_ms"),
        "first_day_s": _first_days(details),
    }
    raw = {}
    for name, value in found.items():
        if isinstance(value, list) and value:
            raw[name] = statistics.median(value)
        elif isinstance(value, (int, float)):
            raw[name] = float(value)
    return raw


def history_row(
    text: str,
    label: str,
    seconds: float,
    commit: Optional[str] = None,
) -> Dict[str, object]:
    """The history row for one run's captured standard output."""
    lines = [line for line in text.splitlines() if line.strip()]
    result = _json_object(lines[-1]) if lines else None
    if result is None or "metrics" not in result:
        raise ValueError("no perfbench result line at the end of the input")
    details = _json_object(lines[-2]) if len(lines) > 1 else None
    env = (details or {}).get("env")
    if not isinstance(env, dict) or "workload" not in env:
        raise ValueError("no perfbench env line before the result line")
    return {
        "commit": commit or env.get("commit"),
        "src_sha256": env.get("src_sha256"),
        "label": label,
        "workload": env["workload"],
        "workload_seed": env.get("workload_seed"),
        "seconds": float(seconds),
        "cores": env.get("cores"),
        "python": env.get("python"),
        "numpy": env.get("numpy"),
        "correct": result.get("correct"),
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "metrics": {
            name: metric["value"] for name, metric in result["metrics"].items()
        },
        "raw": _raw(details.get("details") or {}),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", nargs="?", help="captured output (default: stdin)")
    parser.add_argument("--label", required=True, choices=LABELS)
    parser.add_argument("--seconds", required=True, type=float,
                        help="the --seconds the run was given")
    parser.add_argument("--commit", help="override the env block's commit")
    parser.add_argument("--output", default=HISTORY)
    args = parser.parse_args(argv)
    if args.input:
        with open(args.input, encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    try:
        row = history_row(text, args.label, args.seconds, args.commit)
    except ValueError as exc:
        print(f"bench_history: {exc}", file=sys.stderr)
        return 2
    with open(args.output, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    print(json.dumps(row, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
