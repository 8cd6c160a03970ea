"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload build|query-scan|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the checkout root.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (see ``perfbench/README.md``).  The full report, with
its ``env`` block, is printed on the line before and written under
``perfbench/_work/``.  The exit code is 0 only when every correctness
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import common  # noqa: E402

WORKLOADS = ("build", "query-scan")


def run_build(seed: int, seconds: float, trace: bool) -> dict:
    """The ``build`` workload: fresh subprocess(es), see build_child."""
    from perfbench import layers as layer_lib
    from perfbench.tracing import load_spans

    os.makedirs(common.WORK, exist_ok=True)

    def child(traced: bool) -> dict:
        path = os.path.join(
            common.WORK, f"build-{seed}-{int(traced)}-{os.getpid()}.json"
        )
        common.run_python(
            [os.path.join("perfbench", "build_child.py"), str(seed),
             str(seconds), "1" if traced else "0", path],
            timeout=170,
        )
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        os.unlink(path)
        return result

    plain = child(False)
    builds = plain["builds"]
    problems = [problem for build in builds for problem in build["problems"]]
    pinned = _pinned_digest()
    if seed == common.DEFAULT_SEED and any(
        build["digest"] != pinned for build in builds
    ):
        problems.append(f"archive digest differs from the pinned {pinned}")
    day_s = sorted(plain["paced_day_s"])
    records = sum(build["records"] for build in builds)
    report = {
        "attempted": sum(build["days"] for build in builds),
        "failed": sum(len(build["problems"]) for build in builds),
        "details": {"builds": builds, **{
            key: plain[key] for key in (
                "world_build_s", "paced_world_build_s", "day_loop_s",
                "day_s", "paced_day_s",
            )
        }},
    }
    if not trace:
        report["metrics"] = {
            "setup_s": (common.median(plain["paced_world_build_s"]), "s"),
            "p50_ms": (common.percentile(day_s, 50.0) * 1000.0, "ms"),
            "tail_ms": (common.percentile(day_s, 90.0) * 1000.0, "ms"),
            "throughput_per_s": (records / sum(day_s), "1/s"),
            "peak_rss_mib": (plain["peak_rss_mib"], "MiB"),
            "bytes_per_domain_day": (
                sum(build["bytes"] for build in builds) / records, "B"
            ),
        }
    else:
        traced = child(True)
        trace_path = os.path.join(common.WORK, f"trace-build-{seed}.json")
        os.replace(traced["trace"], trace_path)
        spans, counters = load_spans(trace_path)
        first_root = next(span[3] for span in spans if span[0] == "archive.build")
        layers = layer_lib.build_layers(
            [span for span in spans if span[5] == first_root], counters
        )
        layers["tracing.overhead_pct"] = 100.0 * (
            traced["day_loop_s"][0] - plain["day_loop_s"][0]
        ) / plain["day_loop_s"][0]
        report["layers"] = layers
        report["details"]["trace"] = trace_path
        share = layers["trace.build_layer_sum_pct"]
        if abs(share - 100.0) > 5.0:
            problems.append(
                f"build layers sum to {share:.1f}% of the day loop"
            )
    # Untimed: the first run of a checkout also prepares the archive that
    # query-scan serves, so none of its runs has to build it.
    from perfbench.queries import served_archive

    try:
        served_archive()
    except (OSError, RuntimeError, subprocess.SubprocessError) as error:
        problems.append(f"building the served archive failed: {error}")
    report["details"]["problems"] = problems
    report["correct"] = not problems
    return report


def _pinned_digest() -> str:
    path = os.path.join(ROOT, "perfbench", "pins.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["build_digest_default_seed"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "build":
        report = run_build(seed, seconds, trace)
    else:
        from perfbench import queries

        report = queries.run(seed, seconds, trace)
    from perfbench.layers import layer_metrics

    if trace:
        metrics = layer_metrics(report.pop("layers"))
    else:
        metrics = {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in report.pop("metrics").items()
        }
    rate = report["details"].get("offered_rate_qps")
    report["env"] = common.env_block(workload, seed, rate)
    report["metrics"] = metrics
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = common.check_checkout()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    code = 0
    for workload in workloads:
        report = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace))
        path = os.path.join(
            common.WORK, f"report-{workload}-{args.seed}-{args.trace}.json"
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        for name, metric in report["metrics"].items():
            print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
        print(json.dumps({"env": report["env"], "details": report["details"]},
                         sort_keys=True, default=str))
        print(json.dumps({
            "correct": report["correct"],
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": report["metrics"],
        }, sort_keys=True))
        if not report["correct"]:
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
