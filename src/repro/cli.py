"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — show every reproducible artefact,
* ``run <id>`` — regenerate one figure/table and print it
  (``--archive PATH`` replays a persistent measurement archive instead
  of re-simulating the sweeps),
* ``report`` — regenerate EXPERIMENTS.md; with ``--from``/``--to`` it
  instead renders a live follow report (coverage, composition shift,
  change events) from a followed archive (see :mod:`repro.live.report`),
* ``info`` — summarise the built world,
* ``resolve <name> --date D`` — honestly resolve a domain through the
  simulated root/TLD/authoritative hierarchy and show what the
  measurement pipeline records,
* ``archive build|status|verify|repair`` — manage the on-disk
  measurement archive (incremental builds, coverage summary, CRC
  verification, quarantine-and-rebuild repair),
* ``bundle`` — export every artefact plus a machine-readable
  ``bundle.json`` manifest,
* ``query`` — answer one :class:`repro.api.QuerySpec` offline and print
  the canonical JSON envelope (byte-identical to the HTTP service),
* ``serve`` — start the archive-backed HTTP query service (see
  :mod:`repro.service` and docs/service.md); with
  ``--follow`` a live follow engine ingests new study days and
  publishes change events at ``/v1/events`` and as an SSE stream
  (see :mod:`repro.live` and docs/live.md),
* ``loadgen`` — offer seed-pure open-loop load to a running service and
  write latency/error/staleness percentiles to
  ``BENCH_service_load.json`` (see :mod:`repro.loadgen`),
* ``scenario list|show|sweep`` — inspect the declarative counterfactual
  scenario library and run cross-scenario experiment grids with
  diff-vs-baseline results (see :mod:`repro.scenario` and
  docs/scenarios.md).

The global ``--scenario ID|PATH`` flag selects which world every other
command builds (``baseline`` reproduces the paper's timeline and stays
byte-identical to the pre-scenario-engine path).

The global ``--fault-seed``/``--fault-rate`` options attach a
deterministic fault-injection plan (see :mod:`repro.faults`) to
whatever pipeline the command drives; exit codes and fault semantics
are documented in ``docs/archive.md`` and ``docs/faults.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .dns.name import DomainName
from .dns.rdata import RRType
from .dns.resolver import IterativeResolver
from .errors import ReproError
from .experiments import EXPERIMENTS, EXTENSIONS, ExperimentContext, run_experiment
from .experiments.report import write_markdown_report
from .sim.dnsbuild import DnsTreeBuilder
from .timeline import as_date

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Where .ru? Assessing the Impact of Conflict "
            "on Russian Domain Infrastructure' (IMC 2022)."
        ),
    )
    parser.add_argument(
        "--scenario", default="baseline", metavar="ID|PATH",
        help=(
            "scenario to build the world from: a canonical library id "
            "(see 'repro scenario list') or a path to a spec JSON file "
            "(default baseline, the calibrated historical timeline)"
        ),
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help=(
            "population scale denominator (default: the scenario spec's, "
            "250 for the shipped library; benches also run at 1:250)"
        ),
    )
    parser.add_argument(
        "--cadence", type=int, default=7,
        help="sweep cadence in days for longitudinal series (default 7)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="scenario seed (default: the spec's, 20220224 for the library)",
    )
    parser.add_argument(
        "--no-pki", action="store_true",
        help="skip the certificate simulation (faster; disables PKI artefacts)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help=(
            "enable deterministic fault injection with this seed "
            "(same seed => identical injected-fault sequence)"
        ),
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.05, metavar="RATE",
        help="per-site fault probability when --fault-seed is set (default 0.05)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible artefacts")
    sub.add_parser("info", help="summarise the built world")
    sub.add_parser("timeline", help="print the scripted scenario timeline")

    run_parser = sub.add_parser("run", help="regenerate one artefact")
    run_parser.add_argument("experiment", help="experiment id (see 'list')")
    run_parser.add_argument(
        "--out", default=None, help="also write the rendering to this file"
    )
    run_parser.add_argument(
        "--profile", action="store_true",
        help="print per-phase timing and cache hit-rate metrics",
    )
    run_parser.add_argument(
        "--profile-json", default=None, metavar="PATH",
        help="write the structured metrics summary (JSON) to this file",
    )
    run_parser.add_argument(
        "--archive", default=None, metavar="PATH",
        help="replay sweeps from a measurement archive instead of simulating",
    )

    report_parser = sub.add_parser(
        "report",
        help=(
            "regenerate EXPERIMENTS.md, or render a live follow report "
            "for a date window (--from/--to over a followed archive)"
        ),
    )
    report_parser.add_argument(
        "--output", default="EXPERIMENTS.md", help="output path"
    )
    report_parser.add_argument(
        "--from", dest="from_date", default=None, metavar="DATE",
        help=(
            "start of a live report window (ISO date); with --to, renders "
            "the follow report from --archive instead of EXPERIMENTS.md"
        ),
    )
    report_parser.add_argument(
        "--to", dest="to_date", default=None, metavar="DATE",
        help="end of the live report window (ISO date)",
    )
    report_parser.add_argument(
        "--format", default="md", choices=("md", "csv"),
        help="live report format: md (full report) or csv (event table)",
    )
    report_parser.add_argument(
        "--archive", default=None, metavar="PATH",
        help=(
            "the followed archive directory holding the day summaries "
            "and events.log the live report is rendered from"
        ),
    )

    resolve_parser = sub.add_parser(
        "resolve", help="resolve a domain through the simulated DNS"
    )
    resolve_parser.add_argument("name", help="domain name (Unicode or A-label)")
    resolve_parser.add_argument(
        "--date", default="2022-03-04", help="measurement date (ISO)"
    )

    bundle_parser = sub.add_parser(
        "bundle", help="export every artefact (text + CSV) to a directory"
    )
    bundle_parser.add_argument(
        "--output", default="artifacts", help="output directory"
    )
    bundle_parser.add_argument(
        "--extensions", action="store_true", help="include extension analyses"
    )
    bundle_parser.add_argument(
        "--profile", action="store_true",
        help=(
            "record per-phase timing and cache hit/miss metrics "
            "(including archive shard counters) in bundle.json"
        ),
    )
    bundle_parser.add_argument(
        "--profile-json", default=None, metavar="PATH",
        help="write the structured metrics summary (JSON) to this file",
    )
    bundle_parser.add_argument(
        "--archive", default=None, metavar="PATH",
        help="replay sweeps from a measurement archive instead of simulating",
    )

    query_parser = sub.add_parser(
        "query",
        help="answer one query spec offline (canonical JSON on stdout)",
    )
    query_parser.add_argument(
        "spec", nargs="?", default=None,
        help="query spec as a JSON object (alternative to the flags)",
    )
    query_parser.add_argument(
        "--kind", default=None,
        help="query kind: experiment|series|headline|records|catalog",
    )
    query_parser.add_argument(
        "--experiment", default=None, help="experiment id (kind=experiment)"
    )
    query_parser.add_argument(
        "--series", default=None, help="series name (kind=series)"
    )
    query_parser.add_argument(
        "--start", default=None, help="series range start (ISO date)"
    )
    query_parser.add_argument(
        "--end", default=None, help="series range end (ISO date)"
    )
    query_parser.add_argument(
        "--date", default=None, help="measurement day (kind=records)"
    )
    query_parser.add_argument(
        "--tld", default=None,
        help="TLD filter for records (Unicode or A-label)",
    )
    query_parser.add_argument(
        "--offset", type=int, default=None, help="records page offset"
    )
    query_parser.add_argument(
        "--limit", type=int, default=None, help="records page size"
    )
    query_parser.add_argument(
        "--archive", default=None, metavar="PATH",
        help="replay sweeps from a measurement archive instead of simulating",
    )
    query_parser.add_argument(
        "--url", default=None, metavar="URL",
        help=(
            "execute the query against a running service instead of "
            "computing offline (e.g. http://127.0.0.1:8321); the JSON "
            "printed is byte-identical either way"
        ),
    )
    query_parser.add_argument(
        "--deadline-ms", type=int, default=None, metavar="MS",
        help="per-request deadline sent as X-Repro-Deadline-Ms (with --url)",
    )
    query_parser.add_argument(
        "--retries", type=int, default=3, metavar="N",
        help="retry budget for transient service failures (with --url; default 3)",
    )

    serve_parser = sub.add_parser(
        "serve", help="start the archive-backed HTTP query service"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8321,
        help="bind port (default 8321; 0 picks a free port)",
    )
    serve_parser.add_argument(
        "--archive", default=None, metavar="PATH",
        help="serve from a measurement archive instead of simulating",
    )
    serve_parser.add_argument(
        "--scenario-archive", action="append", default=None,
        metavar="ID=PATH",
        help=(
            "also serve scenario ID from its own archive at PATH "
            "(repeatable; each world keeps separate caches and answers "
            "/v2 queries carrying scenario=ID)"
        ),
    )
    serve_parser.add_argument(
        "--processes", type=int, default=1, choices=(1,),
        help="serving processes; only 1 is accepted (one asyncio server)",
    )
    serve_parser.add_argument(
        "--breaker-threshold", type=int, default=5, metavar="N",
        help="classified failures in the window that open the breaker (default 5)",
    )
    serve_parser.add_argument(
        "--breaker-window", type=float, default=30.0, metavar="SECONDS",
        help="sliding failure window feeding the breaker (default 30)",
    )
    serve_parser.add_argument(
        "--breaker-cooldown", type=float, default=2.0, metavar="SECONDS",
        help="open time before the breaker half-opens for a probe (default 2)",
    )
    serve_parser.add_argument(
        "--fault-match", default=None, metavar="SUBSTRING",
        help=(
            "restrict injected service faults to decision keys containing "
            "this substring (with --fault-seed; see docs/faults.md)"
        ),
    )
    serve_parser.add_argument(
        "--fault-stall-ms", type=int, default=50, metavar="MS",
        help="length of injected service.compute stalls (default 50)",
    )
    serve_parser.add_argument(
        "--follow", action="store_true",
        help=(
            "run the live follow engine alongside serving: ingest each "
            "new study day into --archive, detect day-over-day changes, "
            "and publish them at /v1/events and /v1/events/stream "
            "(requires --archive)"
        ),
    )
    serve_parser.add_argument(
        "--follow-start", default="2022-02-24", metavar="DATE",
        help="first day the follow engine ingests (default 2022-02-24)",
    )
    serve_parser.add_argument(
        "--follow-end", default="2022-03-26", metavar="DATE",
        help="last day the follow engine ingests (default 2022-03-26)",
    )
    serve_parser.add_argument(
        "--profile-json", default=None, metavar="PATH",
        help="write the metrics summary (JSON) on shutdown to this file",
    )

    loadgen_parser = sub.add_parser(
        "loadgen",
        help="offer seed-pure open-loop load to a running query service",
    )
    loadgen_parser.add_argument(
        "--url", required=True, metavar="URL",
        help="service base URL (e.g. http://127.0.0.1:8321)",
    )
    loadgen_parser.add_argument(
        "--rate", type=float, default=50.0, metavar="QPS",
        help="offered arrival rate in queries/second (default 50)",
    )
    loadgen_parser.add_argument(
        "--duration", type=float, default=10.0, metavar="SECONDS",
        help="length of the offered-load window (default 10)",
    )
    loadgen_parser.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-request transport timeout (default 30)",
    )
    loadgen_parser.add_argument(
        "--output", default="BENCH_service_load.json", metavar="PATH",
        help=(
            "where to write the JSON report "
            "(default BENCH_service_load.json; '-' skips the file)"
        ),
    )
    loadgen_parser.add_argument(
        "--max-error-rate", type=float, default=None, metavar="RATE",
        help="exit 1 when the measured error rate exceeds this bound",
    )
    loadgen_parser.add_argument(
        "--max-p99-ms", type=float, default=None, metavar="MS",
        help="exit 1 when p99 latency exceeds this bound (milliseconds)",
    )

    archive_parser = sub.add_parser(
        "archive", help="manage the persistent measurement archive"
    )
    archive_sub = archive_parser.add_subparsers(
        dest="archive_command", required=True
    )
    archive_build = archive_sub.add_parser(
        "build", help="build or extend an archive (incremental, resumable)"
    )
    archive_build.add_argument("path", help="archive directory")
    archive_build.add_argument(
        "--start", default=None,
        help="first day of a custom range (default: the standard plan — "
        "full study at --cadence plus the conflict window daily)",
    )
    archive_build.add_argument(
        "--end", default=None, help="last day of a custom range"
    )
    archive_build.add_argument(
        "--step", type=int, default=1, help="day step of a custom range"
    )
    archive_build.add_argument(
        "--profile", action="store_true",
        help="print build/write timing metrics",
    )
    archive_build.add_argument(
        "--profile-json", default=None, metavar="PATH",
        help="write the structured metrics summary (JSON) to this file",
    )
    archive_status = archive_sub.add_parser(
        "status", help="summarise an archive's coverage and size"
    )
    archive_status.add_argument("path", help="archive directory")
    archive_verify = archive_sub.add_parser(
        "verify", help="re-read every shard and check it against the manifest"
    )
    archive_verify.add_argument("path", help="archive directory")
    archive_repair = archive_sub.add_parser(
        "repair",
        help="quarantine damaged shards and rebuild them from the scenario",
    )
    archive_repair.add_argument("path", help="archive directory")
    archive_repair.add_argument(
        "--profile", action="store_true",
        help="print repair timing and recovery metrics",
    )
    archive_repair.add_argument(
        "--profile-json", default=None, metavar="PATH",
        help="write the structured metrics summary (JSON) to this file",
    )

    scenario_parser = sub.add_parser(
        "scenario",
        help="inspect the scenario library and sweep experiments across worlds",
    )
    scenario_sub = scenario_parser.add_subparsers(
        dest="scenario_command", required=True
    )
    scenario_sub.add_parser(
        "list", help="list every registered scenario spec"
    )
    scenario_show = scenario_sub.add_parser(
        "show", help="print one spec (canonical JSON, digest, fingerprint)"
    )
    scenario_show.add_argument("id", help="scenario id or spec JSON path")
    scenario_sweep = scenario_sub.add_parser(
        "sweep",
        help=(
            "run an experiment grid across scenarios and diff each "
            "counterfactual against baseline"
        ),
    )
    scenario_sweep.add_argument(
        "--scenarios", default=None, metavar="IDS",
        help=(
            "comma-separated scenario ids/spec paths (default: the whole "
            "shipped library); baseline is always included as the diff base"
        ),
    )
    scenario_sweep.add_argument(
        "--experiments", default="headline,fig1,fig2", metavar="IDS",
        help="comma-separated experiment ids (default headline,fig1,fig2)",
    )
    scenario_sweep.add_argument(
        "--archive-root", default=None, metavar="DIR",
        help=(
            "build (or reuse) one measurement archive per scenario under "
            "DIR/<id> and replay the grid from disk instead of simulating "
            "each query"
        ),
    )
    scenario_sweep.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full grid (including diff payloads) as JSON",
    )
    return parser


def _fault_plan(args: argparse.Namespace, service: bool = False):
    """The CLI-selected fault plan, or None when injection is off.

    ``repro serve`` gets the service-layer mix (compute stalls, archive
    read errors, response-write aborts); every other command gets the
    pipeline mix.
    """
    if getattr(args, "fault_seed", None) is None:
        return None
    if service:
        from .faults import service_plan

        return service_plan(
            args.fault_seed,
            rate=args.fault_rate,
            stall_seconds=args.fault_stall_ms / 1000.0,
            match=args.fault_match,
        )
    from .faults import default_plan

    return default_plan(args.fault_seed, rate=args.fault_rate)


def _write_profile_json(path: Optional[str], metrics) -> None:
    if not path:
        return
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(metrics.summary(), handle, indent=2, sort_keys=True)
        handle.write("\n")


#: Sentinel distinguishing "no archive" from "use args.archive".
_DEFAULT_ARCHIVE = object()


def _scenario_spec(args: argparse.Namespace, scenario: Optional[str] = None):
    """Resolve the CLI's scenario into a spec with flag overrides applied.

    Flags left at their defaults resolve to ``None`` and are skipped by
    :meth:`ScenarioSpec.with_config`, so values a spec *file* sets are
    never stomped by unset CLI defaults.
    """
    from .scenario import ScenarioSpec

    spec = ScenarioSpec.resolve(
        scenario or getattr(args, "scenario", None) or "baseline"
    )
    return spec.with_config(
        scale=args.scale,
        seed=args.seed,
        with_pki=False if args.no_pki else None,
    )


def _context(
    args: argparse.Namespace,
    service: bool = False,
    scenario: Optional[str] = None,
    archive: object = _DEFAULT_ARCHIVE,
) -> ExperimentContext:
    if archive is _DEFAULT_ARCHIVE:
        archive = getattr(args, "archive", None)
    return ExperimentContext(
        scenario=_scenario_spec(args, scenario),
        cadence_days=args.cadence,
        archive=archive,
        faults=_fault_plan(args, service=service),
    )


def _cmd_list(_args: argparse.Namespace) -> int:
    print("paper artefacts:")
    for experiment_id in EXPERIMENTS:
        print(f"  {experiment_id}")
    print("extensions:")
    for experiment_id in EXTENSIONS:
        print(f"  {experiment_id}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    context = _context(args)
    world = context.world
    population = world.population
    print(f"scenario:           {context.scenario_id}")
    print(f"scale:              1:{context.config.scale:g}")
    print(f"domains on day 1:   {population.active_count('2017-06-18'):,}")
    print(f"unique over study:  {population.unique_count():,}")
    print(f"providers:          {len(world.catalog)}")
    print(f"dns plans:          {len(world.dns_plans)}")
    print(f"hosting plans:      {len(world.hosting_plans)}")
    print(f"sanctioned domains: {len(world.sanctions.all_domains())}")
    print(f"infra epochs:       {len(world.epochs())}")
    if world.pki is not None:
        print(f"certificates:       {len(world.pki.store):,}")
        print(f"ct log entries:     {sum(len(log) for log in world.pki.logs):,}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.experiment not in EXPERIMENTS and args.experiment not in EXTENSIONS:
        print(
            f"unknown experiment {args.experiment!r}; known: "
            f"{', '.join(list(EXPERIMENTS) + list(EXTENSIONS))}",
            file=sys.stderr,
        )
        return 2
    from .errors import ArchiveError

    try:
        context = _context(args)
        result = run_experiment(args.experiment, context)
    except ArchiveError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    text = result.render()
    print(text)
    if args.profile:
        print(context.metrics.render())
    _write_profile_json(getattr(args, "profile_json", None), context.metrics)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.from_date is not None or args.to_date is not None:
        return _live_report(args)
    text = write_markdown_report(_context(args))
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {args.output}")
    return 0


def _live_report(args: argparse.Namespace) -> int:
    """``repro report --from A --to B``: render the follow report.

    Everything comes from the durable state a follow run left behind
    (day summaries in the archive, ``events.log`` beside them), so the
    same archive always renders byte-identical output.  Prints to
    stdout unless ``--output`` was pointed somewhere explicit.
    """
    from .archive import MeasurementArchive
    from .errors import ArchiveError, LiveError
    from .live import EventLog, compile_report, render_report

    if args.from_date is None or args.to_date is None:
        print("--from and --to must be given together", file=sys.stderr)
        return 2
    if args.archive is None:
        print(
            "a live report needs --archive (the followed archive directory)",
            file=sys.stderr,
        )
        return 2
    try:
        archive = MeasurementArchive(args.archive, faults=_fault_plan(args))
        report = compile_report(
            archive, EventLog(args.archive), args.from_date, args.to_date
        )
        text = render_report(report, args.format)
    except (ArchiveError, LiveError, ReproError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.output != "EXPERIMENTS.md":
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    context = _context(args)
    world = context.world
    date = as_date(args.date)
    name = DomainName.parse(args.name)
    try:
        record = world.population.by_name(name)
    except ReproError:
        print(f"{name} is not registered in the simulated registry")
        return 1

    tree = DnsTreeBuilder(world).build(date, [record.index])
    resolver = IterativeResolver(tree.network, tree.root_addresses)
    epoch = world.epoch_at(date)
    registry = world.catalog.as_registry()

    print(f"{name} on {date} (registered {record.created_date}):")
    ns_result = resolver.resolve(name, RRType.NS)
    if not ns_result.ok:
        print(f"  NS lookup: {ns_result.rcode}")
        return 1
    for target in ns_result.ns_targets():
        target_result = resolver.resolve(target, RRType.A)
        for address in target_result.addresses():
            asn = epoch.routing.lookup(address)
            country = epoch.geo.lookup(address)
            print(
                f"  NS {target} -> AS{asn} {registry.name_of(asn or 0)} ({country})"
            )
    apex = resolver.resolve(name, RRType.A)
    for address in apex.addresses():
        asn = epoch.routing.lookup(address)
        country = epoch.geo.lookup(address)
        print(f"  A  -> AS{asn} {registry.name_of(asn or 0)} ({country})")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    context = _context(args)
    manifest = context.world.manifest
    if manifest is None:
        print("this world has no scenario manifest")
        return 1
    print(manifest.render())
    return 0


def _cmd_bundle(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from .experiments import run_all

    context = _context(args)
    target = pathlib.Path(args.output)
    target.mkdir(parents=True, exist_ok=True)
    results = run_all(context, include_extensions=args.extensions)
    experiments = []
    for result in results:
        text_path = target / f"{result.experiment_id}.txt"
        text_path.write_text(result.render() + "\n", encoding="utf-8")
        written = result.write_csv(target)
        experiments.append(
            {
                "id": result.experiment_id,
                "title": result.title,
                "paper_reference": result.paper_reference,
                "files": [text_path.name] + [path.name for path in written],
            }
        )

    from .sim.validate import validate_world

    issues = validate_world(context.world)
    (target / "validation.txt").write_text(
        ("world is internally consistent\n" if not issues else
         "\n".join(issues) + "\n"),
        encoding="utf-8",
    )
    extra_files = ["validation.txt"]
    if context.world.manifest is not None:
        (target / "timeline.txt").write_text(
            context.world.manifest.render() + "\n", encoding="utf-8"
        )
        extra_files.append("timeline.txt")

    from .archive.manifest import scenario_fingerprint

    config = context.config
    spec = context.scenario_spec
    manifest = {
        "bundle_format": 2,
        # The canonical scenario identity: the same id + spec digest +
        # fingerprint an archive manifest carries, so bundles and
        # archives built from one world are joinable on it.
        "scenario": {
            "id": context.scenario_id,
            "spec_digest": (
                spec.digest() if spec is not None
                else getattr(config, "spec_digest", None)
            ),
            "fingerprint": scenario_fingerprint(config),
        },
        "run": {
            "scale": config.scale,
            "seed": config.seed,
            "cadence_days": args.cadence,
            "with_pki": config.with_pki,
        },
        "include_extensions": bool(args.extensions),
        "experiments": experiments,
        "extra_files": extra_files,
    }
    if args.profile:
        manifest["profile"] = context.metrics.summary()
    (target / "bundle.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_profile_json(getattr(args, "profile_json", None), context.metrics)
    print(f"wrote {len(results)} artefacts to {target}/")
    return 0


def _query_spec(args: argparse.Namespace):
    """A QuerySpec from the positional JSON or the individual flags.

    The global ``--scenario`` flag doubles as the spec's scenario
    dimension (the spec layer normalises ``baseline`` back to the
    legacy, scenario-free form), so
    ``repro --scenario depeering query --kind headline`` asks for the
    counterfactual world's numbers.
    """
    from .api import QUERY_FIELDS, QuerySpec

    if args.spec is not None:
        return QuerySpec.from_json(args.spec)
    payload = {
        field: getattr(args, field)
        for field in QUERY_FIELDS
        if getattr(args, field) is not None
    }
    if "scenario" in payload:
        payload["scenario"] = _canonical_scenario_id(str(payload["scenario"]))
    return QuerySpec.from_dict(payload)


def _canonical_scenario_id(name_or_path: str) -> str:
    """A query-able scenario id for the global ``--scenario`` value.

    Library ids pass through; a spec *file* is loaded and registered so
    the rest of the pipeline (QuerySpec validation, facade routing) can
    address it by its canonical name.
    """
    if "/" not in name_or_path and not name_or_path.endswith(".json"):
        return name_or_path
    from .scenario import ScenarioSpec, register_scenario

    return register_scenario(ScenarioSpec.resolve(name_or_path)).name


def _cmd_query(args: argparse.Namespace) -> int:
    from .errors import QueryError

    try:
        spec = _query_spec(args)
    except QueryError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.url is not None:
        return _remote_query(args, spec)
    try:
        # The primary context serves the spec's own scenario; a diff
        # additionally needs the baseline world registered beside it.
        context = _context(args, scenario=spec.scenario_id)
        if spec.kind == "diff" and context.scenario_id != "baseline":
            context.api.register_scenario(
                _context(args, scenario="baseline", archive=None)
            )
        print(context.api.query_json(spec))
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


def _remote_query(args: argparse.Namespace, spec) -> int:
    """``repro query --url``: the same spec against a running service.

    Prints exactly the service's canonical JSON body, so offline,
    remote-fresh, and remote-stale answers are byte-identical on
    stdout; stale answers additionally get a note on stderr.
    """
    from .client import ClientError, QueryClient

    client = QueryClient(
        args.url, retries=args.retries, deadline_ms=args.deadline_ms
    )
    try:
        response = client.query(spec)
    except ClientError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if response.status == 200:
        print(response.text)
        if response.stale:
            print(
                "note: stale answer served from cache (service degraded)",
                file=sys.stderr,
            )
        return 0
    try:
        message = response.json()["error"]["message"]
    except (ValueError, KeyError, TypeError):
        message = response.text
    print(f"HTTP {response.status}: {message}", file=sys.stderr)
    return 2 if response.status < 500 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import run_service

    try:
        context = _context(args, service=True)
        _register_scenario_archives(args, context)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    service_options = dict(
        breaker_threshold=args.breaker_threshold,
        breaker_window=args.breaker_window,
        breaker_cooldown=args.breaker_cooldown,
    )
    if args.follow:
        if args.archive is None:
            print(
                "--follow needs --archive: the engine ingests new days "
                "into a persistent archive directory",
                file=sys.stderr,
            )
            return 2
        from .live import FollowOptions

        service_options["follow"] = FollowOptions(
            start=args.follow_start, end=args.follow_end
        )

    def announce(service) -> None:
        print(f"serving on http://{args.host}:{service.port}", flush=True)

    try:
        code = asyncio.run(
            run_service(
                context,
                host=args.host,
                port=args.port,
                ready=announce,
                **service_options,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - signal-handler fallback
        code = 0
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    from .faults import sync_fault_metrics

    sync_fault_metrics(context.faults, context.metrics)
    _write_profile_json(getattr(args, "profile_json", None), context.metrics)
    return code


def _register_scenario_archives(args: argparse.Namespace, context) -> None:
    """Attach each ``--scenario-archive ID=PATH`` world to the facade.

    Registration happens before the service starts, so every scenario
    is served from the first request on, with per-scenario caches.
    """
    for item in getattr(args, "scenario_archive", None) or []:
        scenario_id, separator, path = item.partition("=")
        if not separator or not scenario_id or not path:
            raise ValueError(
                f"--scenario-archive wants ID=PATH, got {item!r}"
            )
        extra = _context(
            args, service=True,
            scenario=_canonical_scenario_id(scenario_id), archive=path,
        )
        context.api.register_scenario(extra)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .loadgen import main_report, run_loadgen

    try:
        report = run_loadgen(
            args.url,
            rate=args.rate,
            duration=args.duration,
            seed=args.seed if args.seed is not None else 20220224,
            timeout=args.timeout,
            output=None if args.output == "-" else args.output,
        )
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    main_report(report)
    if args.output != "-":
        print(f"wrote {args.output}")
    failed = False
    if (
        args.max_error_rate is not None
        and report["error_rate"] > args.max_error_rate
    ):
        print(
            f"FAIL: error rate {report['error_rate']} exceeds "
            f"--max-error-rate {args.max_error_rate}",
            file=sys.stderr,
        )
        failed = True
    p99 = report["latency_ms"]["p99"]
    if args.max_p99_ms is not None and (p99 is None or p99 > args.max_p99_ms):
        print(
            f"FAIL: p99 {p99}ms exceeds --max-p99-ms {args.max_p99_ms}",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def _cmd_archive(args: argparse.Namespace) -> int:
    from .archive import ArchiveBuilder, MeasurementArchive
    from .archive.builder import standard_plan_dates
    from .errors import ArchiveError, ArchiveMismatchError, RecoveryError
    from .measurement.metrics import SweepMetrics

    faults = _fault_plan(args)
    if args.archive_command == "build":
        config = _scenario_spec(args).with_config(with_pki=False).compile()
        metrics = SweepMetrics()
        builder = ArchiveBuilder(args.path, config, metrics=metrics, faults=faults)
        try:
            if args.start is not None or args.end is not None:
                if args.start is None or args.end is None:
                    print(
                        "--start and --end must be given together", file=sys.stderr
                    )
                    return 2
                report = builder.build(args.start, args.end, args.step)
            else:
                report = builder.build_standard(args.cadence)
        except ArchiveMismatchError as exc:
            print(str(exc), file=sys.stderr)
            return 3
        except (ArchiveError, RecoveryError) as exc:
            print(str(exc), file=sys.stderr)
            return 1
        adopted = (
            f", {len(report.adopted)} adopted from an interrupted build"
            if report.adopted
            else ""
        )
        print(
            f"archived {len(report.written)} days "
            f"({report.bytes_written:,} bytes, {report.segments} segments); "
            f"{len(report.skipped)} already covered{adopted}"
        )
        metrics.sample_rss()
        if args.profile:
            print(metrics.render())
        _write_profile_json(getattr(args, "profile_json", None), metrics)
        return 0

    try:
        archive = MeasurementArchive(args.path, faults=faults)
    except ArchiveError as exc:
        print(str(exc), file=sys.stderr)
        # `status` predates the richer codes and keeps its historical 1;
        # verify/repair use 4 for "no readable manifest at that path".
        return 1 if args.archive_command == "status" else 4

    if args.archive_command == "repair":
        config = _scenario_spec(args).with_config(with_pki=False).compile()
        metrics = SweepMetrics()
        archive.metrics = metrics
        try:
            report = archive.repair(config)
        except ArchiveMismatchError as exc:
            print(str(exc), file=sys.stderr)
            return 3
        except (ArchiveError, RecoveryError) as exc:
            print(str(exc), file=sys.stderr)
            return 1
        print(
            f"quarantined {len(report.quarantined)} file(s), "
            f"rebuilt {len(report.rebuilt)} day(s)"
        )
        if args.profile:
            print(metrics.render())
        _write_profile_json(getattr(args, "profile_json", None), metrics)
        if not report.ok:
            for problem in report.remaining:
                print(str(problem), file=sys.stderr)
            print(
                f"{len(report.remaining)} problem(s) remain after repair",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.archive_command == "status":
        manifest = archive.manifest
        covered = manifest.covered_dates()
        print(f"archive:        {args.path}")
        print(f"scenario:       {manifest.scenario}")
        print(f"population:     {manifest.population_size:,} domains")
        print(f"days covered:   {len(covered)}")
        if covered:
            print(f"first day:      {covered[0]}")
            print(f"last day:       {covered[-1]}")
        print(f"records:        {manifest.total_records():,}")
        print(f"shard bytes:    {manifest.total_bytes():,}")
        standard = standard_plan_dates(args.cadence)
        missing = manifest.missing_dates(standard)
        print(
            f"standard plan:  {len(standard) - len(missing)}/{len(standard)} "
            f"days present (cadence {args.cadence})"
        )
        return 0

    if args.archive_command == "verify":
        problems = archive.verify()
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            print(f"{len(problems)} problem(s) found", file=sys.stderr)
            return 1
        print(
            f"archive ok: {len(archive.manifest.days)} shards, "
            f"{archive.manifest.total_bytes():,} bytes verified"
        )
        return 0

    raise AssertionError(f"unhandled archive command {args.archive_command!r}")


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .errors import ScenarioError

    try:
        if args.scenario_command == "list":
            return _scenario_list()
        if args.scenario_command == "show":
            return _scenario_show(args)
        if args.scenario_command == "sweep":
            return _scenario_sweep(args)
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    raise AssertionError(
        f"unhandled scenario command {args.scenario_command!r}"
    )


def _scenario_list() -> int:
    from .scenario import LIBRARY, scenario_ids

    width = max(len(name) for name in LIBRARY)
    for scenario_id in scenario_ids():
        spec = LIBRARY[scenario_id]
        print(f"{scenario_id:<{width}}  {spec.digest()}  {spec.title}")
    return 0


def _scenario_show(args: argparse.Namespace) -> int:
    import json

    from .archive.manifest import scenario_fingerprint
    from .scenario import ScenarioSpec

    spec = ScenarioSpec.resolve(args.id)
    print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
    print(f"spec digest:  {spec.digest()}")
    fingerprint = scenario_fingerprint(spec.compile())
    print(f"fingerprint:  {json.dumps(fingerprint, sort_keys=True)}")
    return 0


def _scenario_sweep(args: argparse.Namespace) -> int:
    """The cross-scenario experiment grid, diffed against baseline."""
    import json

    from .api.spec import jsonify
    from .errors import ArchiveError
    from .scenario import scenario_ids

    if args.scenarios:
        ids = [
            _canonical_scenario_id(item.strip())
            for item in args.scenarios.split(",")
            if item.strip()
        ]
    else:
        ids = scenario_ids()
    if "baseline" not in ids:
        ids.insert(0, "baseline")  # every diff needs the base world
    experiments = [
        item.strip() for item in args.experiments.split(",") if item.strip()
    ]
    if len(ids) < 2 or not experiments:
        print(
            "scenario sweep needs at least one non-baseline scenario "
            "and one experiment",
            file=sys.stderr,
        )
        return 2

    try:
        contexts = {
            scenario_id: _context(
                args,
                scenario=scenario_id,
                archive=_sweep_archive(args, scenario_id),
            )
            for scenario_id in ids
        }
    except (ArchiveError, ReproError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    root = contexts["baseline"]
    for scenario_id in ids:
        if scenario_id != "baseline":
            root.api.register_scenario(contexts[scenario_id])

    grid: dict = {}
    rows = []
    for experiment_id in experiments:
        grid[experiment_id] = {}
        for scenario_id in ids:
            if scenario_id == "baseline":
                continue
            result = root.api.query(
                {
                    "kind": "diff",
                    "experiment": experiment_id,
                    "scenario": scenario_id,
                }
            )
            data = result.data
            grid[experiment_id][scenario_id] = data
            for metric, delta in sorted(data["measured_delta"].items()):
                rows.append((experiment_id, scenario_id, metric, delta))

    widths = [
        max(len(str(row[column])) for row in rows + [("experiment",
            "scenario", "metric", "delta-vs-baseline")])
        for column in range(4)
    ]
    header = ("experiment", "scenario", "metric", "delta-vs-baseline")
    print("  ".join(name.ljust(width) for name, width in zip(header, widths)))
    for experiment_id, scenario_id, metric, delta in rows:
        print(
            f"{experiment_id:<{widths[0]}}  {scenario_id:<{widths[1]}}  "
            f"{metric:<{widths[2]}}  {delta:+g}"
        )

    if args.json:
        payload = {
            "schema_version": 2,
            "scenarios": ids,
            "experiments": experiments,
            "results": jsonify(grid),
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def _sweep_archive(
    args: argparse.Namespace, scenario_id: str
) -> Optional[str]:
    """Build (or extend) the per-scenario archive for one sweep world."""
    import os

    if not args.archive_root:
        return None
    from .archive import ArchiveBuilder

    path = os.path.join(args.archive_root, scenario_id)
    config = (
        _scenario_spec(args, scenario_id).with_config(with_pki=False).compile()
    )
    builder = ArchiveBuilder(path, config)
    report = builder.build_standard(args.cadence)
    if report.written:
        print(
            f"[{scenario_id}] archived {len(report.written)} days "
            f"({report.bytes_written:,} bytes)",
            file=sys.stderr,
        )
    return path


_COMMANDS = {
    "list": _cmd_list,
    "info": _cmd_info,
    "run": _cmd_run,
    "report": _cmd_report,
    "resolve": _cmd_resolve,
    "bundle": _cmd_bundle,
    "timeline": _cmd_timeline,
    "archive": _cmd_archive,
    "scenario": _cmd_scenario,
    "query": _cmd_query,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
