"""Command-line interface: regenerate the paper's figures from a terminal.

Examples
--------
Print the Figure 7 model heatmap series on a reduced grid::

    python -m repro.cli figure7 --reduced

Full Figure 7 including the simulation validation (slower)::

    python -m repro.cli figure7 --validate --runs 1000 --csv figure7.csv

Weak-scaling figures::

    python -m repro.cli figure8
    python -m repro.cli figure9 --mtbf-scaling constant
    python -m repro.cli figure10 --csv figure10.csv

Resumable, parallel sweep campaign over the (MTBF, alpha) plane::

    python -m repro.cli campaign --reduced --validate --runs 100 \
        --workers 4 --cache-dir ./campaign-cache
    # interrupted? rerun with --resume to skip completed grid points:
    python -m repro.cli campaign --reduced --validate --runs 100 \
        --workers 4 --cache-dir ./campaign-cache --resume

Declarative scenarios (see EXPERIMENTS.md for the file format)::

    # What protocols and failure models can a scenario name?
    python -m repro.cli scenario list
    # Check a spec without running anything (exit 2 on problems):
    python -m repro.cli scenario validate examples/custom_scenario.json
    # Run a JSON scenario end-to-end (any registered failure model):
    python -m repro.cli scenario run examples/custom_scenario.json
    # Same grid through the vectorized across-trials engine:
    python -m repro.cli scenario run spec.json --backend auto
    python -m repro.cli scenario run spec.json --validate --runs 100 \
        --workers 4 --cache-dir ./scenario-cache --csv out.csv

Strategy advisor: numeric period optimization and regime maps::

    # Numerically optimal period of one protocol (vs the Eq. 11 closed form):
    python -m repro.cli optimize period --protocol PurePeriodicCkpt \
        --mtbf 7200 --checkpoint 600
    # ... refined against the Monte-Carlo engine:
    python -m repro.cli optimize period --protocol PurePeriodicCkpt \
        --refine --runs 200 --backend auto --workers 4
    # Rank every protocol at its own optimal period over a scenario grid:
    python -m repro.cli optimize compare --spec examples/custom_scenario.json
    # Regime map over (nodes x per-node MTBF x checkpoint x phi), resumable:
    python -m repro.cli optimize map --nodes 1000 100000 \
        --node-mtbf-years 5 50 --workers 2 --cache-dir ./regime-cache \
        --resume --json regime.json
    # Storage axis instead of scalar C: compare named checkpoint-storage
    # stacks (inline JSON trees or @file.json), lowered per cell:
    python -m repro.cli optimize map --nodes 1000 100000 \
        --memory-per-node 64e9 \
        --storage 'pfs={"kind": "remote-pfs", "params": {"write_bandwidth": 1e11}}' \
        --storage 'buddy={"kind": "buddy", "params": {"link_bandwidth": 1e10}}'

Advisor service: the optimizer behind an HTTP API (stdlib only)::

    # Serve /optimize, /compare, /simulate, /protocols, /healthz, /jobs/<id>;
    # tier 2 interpolates a precomputed regime map, background jobs share
    # --cache-dir with CLI sweeps:
    python -m repro.cli serve --port 8080 \
        --regime-map regime.json --cache-dir ./advisor-cache --workers 2

ABFT substrate demonstration::

    python -m repro.cli abft --kernel lu --n 128 --block-size 32
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import repro.obs as _obs
from repro.application.scaling import ScalingMode
from repro.experiments import (
    paper_figure7_config,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
)
from repro.utils.units import MINUTE

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type for flags that must be strictly positive (--runs)."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _workers_arg(text: str):
    """argparse type for ``--workers``: a positive integer or ``auto``."""
    if text.strip().lower() == "auto":
        return "auto"
    try:
        return _positive_int(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"must be a positive integer or 'auto', got {text!r}"
        ) from None


def _resolve_workers(workers, runs: int) -> int:
    """Resolve ``--workers`` against the campaign size, with one stderr note.

    How the campaigns are cut is the executor's plan, which depends on how
    many campaigns a batch holds; it reports that plan itself
    (``event=executor-plan``) when it runs one.
    """
    from repro.campaign import resolve_worker_count

    resolved = resolve_worker_count(workers, runs)
    _obs.log("note", "workers-resolved", workers=resolved, runs=runs)
    return resolved


def _note(message: str) -> None:
    """Print a diagnostic (warning, progress note, cache info) to stderr.

    Results -- tables, series, figures, rankings -- go to stdout so users
    can pipe and redirect them; everything that merely narrates the run goes
    through here, keeping stdout machine-parseable.
    """
    print(message, file=sys.stderr)


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    """Add ``--trace-out`` to a subcommand that runs campaigns."""
    parser.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "profile this run: write a Chrome trace-event JSON file of the "
            "campaign/sweep/shard/engine spans (open in Perfetto or "
            "chrome://tracing)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the figures of 'Assessing the Impact of ABFT and "
            "Checkpoint Composite Strategies' (IPDPSW 2014)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig7 = sub.add_parser("figure7", help="waste heatmaps + model validation")
    fig7.add_argument(
        "--validate",
        action="store_true",
        help="also run the Monte-Carlo simulation at every grid point",
    )
    fig7.add_argument(
        "--runs",
        type=_positive_int,
        default=200,
        help="simulated executions per grid point",
    )
    fig7.add_argument(
        "--reduced",
        action="store_true",
        help="use a coarser (faster) grid than the paper's",
    )
    fig7.add_argument("--seed", type=int, default=2014, help="simulation seed")
    fig7.add_argument("--csv", type=str, default=None, help="write the series to CSV")
    fig7.add_argument(
        "--workers",
        type=_workers_arg,
        default="auto",
        help="worker processes for the --validate campaigns (a count, or "
        "'auto' for the machine's cores capped by --runs; default: auto)",
    )

    campaign = sub.add_parser(
        "campaign",
        help="resumable (MTBF, alpha) sweep campaign with an on-disk cache",
    )
    campaign.add_argument(
        "--validate",
        action="store_true",
        help="also run the Monte-Carlo simulation at every grid point",
    )
    campaign.add_argument(
        "--runs",
        type=_positive_int,
        default=200,
        help="simulated executions per grid point",
    )
    campaign.add_argument(
        "--reduced",
        action="store_true",
        help="use a coarser (faster) grid than the paper's",
    )
    campaign.add_argument("--seed", type=int, default=2014, help="simulation seed")
    campaign.add_argument(
        "--backend",
        choices=["event", "vectorized", "auto"],
        default="auto",
        help=(
            "Monte-Carlo engine for validated points: 'auto' (default) "
            "vectorizes wherever the (protocol, failure law) pair supports "
            "it; both engines are bit-identical, so cache entries are "
            "interchangeable"
        ),
    )
    campaign.add_argument(
        "--workers",
        type=_workers_arg,
        default="auto",
        help="worker processes for the Monte-Carlo campaigns (a count, or "
        "'auto' for the machine's cores capped by --runs; default: auto)",
    )
    campaign.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="directory for the per-point result cache (enables caching)",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="reuse completed points from --cache-dir instead of recomputing",
    )
    campaign.add_argument(
        "--csv", type=str, default=None, help="write the series to CSV"
    )
    _add_trace_flag(campaign)

    for name in ("figure8", "figure9", "figure10"):
        fig = sub.add_parser(name, help=f"weak-scaling study ({name})")
        fig.add_argument(
            "--mtbf-scaling",
            choices=["inverse", "constant"],
            default="inverse",
            help=(
                "platform-MTBF scaling with the node count: 'inverse' is the "
                "paper text's literal reading, 'constant' matches the figures "
                "(see EXPERIMENTS.md)"
            ),
        )
        fig.add_argument(
            "--nodes",
            type=int,
            nargs="+",
            default=None,
            help="node counts to evaluate (default: 1k 10k 100k 1M)",
        )
        fig.add_argument("--csv", type=str, default=None, help="write the series to CSV")

    scenario = sub.add_parser(
        "scenario",
        help="run or inspect declarative scenario specs (JSON files)",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    scenario_run = scenario_sub.add_parser(
        "run", help="run a scenario spec end-to-end from a JSON file"
    )
    scenario_run.add_argument("spec", type=str, help="path to the scenario JSON file")
    scenario_run.add_argument(
        "--validate",
        action="store_true",
        default=None,
        help="force Monte-Carlo validation on (overrides the spec)",
    )
    scenario_run.add_argument(
        "--runs",
        type=_positive_int,
        default=None,
        help="simulated executions per grid point (overrides the spec)",
    )
    scenario_run.add_argument(
        "--seed", type=int, default=None, help="root seed (overrides the spec)"
    )
    scenario_run.add_argument(
        "--backend",
        choices=["event", "vectorized", "auto"],
        default=None,
        help=(
            "Monte-Carlo engine (overrides the spec): 'event' walks one "
            "trial at a time, 'vectorized' runs all trials as NumPy arrays "
            "(bit-identical where supported), 'auto' picks per protocol"
        ),
    )
    scenario_run.add_argument(
        "--workers",
        type=_workers_arg,
        default="auto",
        help="worker processes for the Monte-Carlo campaigns (a count, or "
        "'auto' for the machine's cores capped by the campaign size; "
        "default: auto)",
    )
    scenario_run.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="directory for the per-point result cache (enables caching)",
    )
    scenario_run.add_argument(
        "--resume",
        action="store_true",
        help="reuse completed points from --cache-dir instead of recomputing",
    )
    scenario_run.add_argument(
        "--csv", type=str, default=None, help="write the series to CSV"
    )
    _add_trace_flag(scenario_run)
    scenario_validate = scenario_sub.add_parser(
        "validate",
        help=(
            "schema-check a scenario file and dry-run its registry "
            "resolution without simulating anything (exit 2 on problems)"
        ),
    )
    scenario_validate.add_argument(
        "spec", type=str, help="path to the scenario JSON file"
    )
    scenario_list = scenario_sub.add_parser(
        "list", help="list registered protocols and failure models"
    )
    scenario_list.add_argument(
        "--json",
        action="store_true",
        help="emit the registry catalog as JSON (the /protocols payload)",
    )

    optimize = sub.add_parser(
        "optimize",
        help="numeric period optimization and protocol regime maps",
    )
    optimize_sub = optimize.add_subparsers(dest="optimize_command", required=True)

    def add_platform_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--spec",
            type=str,
            default=None,
            help="scenario JSON file providing platform/workload (overrides flags)",
        )
        p.add_argument("--mtbf", type=float, default=7200.0, help="platform MTBF, s")
        p.add_argument(
            "--checkpoint", type=float, default=600.0, help="checkpoint cost C, s"
        )
        p.add_argument(
            "--recovery",
            type=float,
            default=None,
            help="recovery cost R, s (default: C)",
        )
        p.add_argument("--downtime", type=float, default=60.0, help="downtime D, s")
        p.add_argument(
            "--t0", type=float, default=604800.0, help="application time T0, s"
        )
        p.add_argument("--alpha", type=float, default=0.8, help="LIBRARY time fraction")
        p.add_argument("--rho", type=float, default=0.8, help="LIBRARY memory fraction")
        p.add_argument("--phi", type=float, default=1.03, help="ABFT slowdown >= 1")

    def add_campaign_flags(p: argparse.ArgumentParser, *, runs: int) -> None:
        p.add_argument(
            "--runs", type=_positive_int, default=runs, help="simulated runs"
        )
        p.add_argument("--seed", type=int, default=2014, help="campaign root seed")
        p.add_argument(
            "--backend",
            choices=["event", "vectorized", "auto"],
            default="auto",
            help="Monte-Carlo engine (both engines are bit-identical)",
        )
        p.add_argument(
            "--workers",
            type=_workers_arg,
            default="auto",
            help="worker processes for the Monte-Carlo campaigns (a count, "
            "or 'auto' for the machine's cores capped by --runs; "
            "default: auto)",
        )
        p.add_argument(
            "--cache-dir",
            type=str,
            default=None,
            help="directory for the per-point result cache (enables caching)",
        )
        p.add_argument(
            "--resume",
            action="store_true",
            help="reuse completed points from --cache-dir instead of recomputing",
        )
        _add_trace_flag(p)

    optimize_period = optimize_sub.add_parser(
        "period",
        help="numerically optimal period of one protocol (vs Eq. 11)",
    )
    optimize_period.add_argument(
        "--protocol",
        type=str,
        default="PurePeriodicCkpt",
        help="registered protocol name or alias",
    )
    add_platform_flags(optimize_period)
    optimize_period.add_argument(
        "--refine",
        action="store_true",
        help="also re-optimize against the Monte-Carlo engine",
    )
    add_campaign_flags(optimize_period, runs=200)

    optimize_compare = optimize_sub.add_parser(
        "compare",
        help="rank every protocol at its own optimal period over a grid",
    )
    add_platform_flags(optimize_compare)
    optimize_compare.add_argument(
        "--protocols",
        type=str,
        nargs="+",
        default=None,
        help="protocols to compare (default: NoFT + the paper's three)",
    )
    optimize_compare.add_argument(
        "--csv", type=str, default=None, help="write the series to CSV"
    )
    optimize_compare.add_argument(
        "--json",
        action="store_true",
        help="emit the ranking as JSON on stdout instead of a table",
    )

    optimize_map = optimize_sub.add_parser(
        "map",
        help="regime map: winning protocol per (nodes, MTBF, C, phi) cell",
    )
    optimize_map.add_argument(
        "--nodes",
        type=_positive_int,
        nargs="+",
        default=[1000, 10000, 100000],
        help="platform sizes (node counts)",
    )
    optimize_map.add_argument(
        "--node-mtbf-years",
        type=float,
        nargs="+",
        default=[5.0, 25.0, 125.0],
        help="per-node MTBFs in years (platform MTBF = node MTBF / nodes)",
    )
    optimize_map.add_argument(
        "--checkpoint",
        type=float,
        nargs="+",
        default=[600.0],
        help="checkpoint costs C in seconds (R = C)",
    )
    optimize_map.add_argument(
        "--phi",
        type=float,
        nargs="+",
        default=[1.03],
        help="ABFT slowdown factors",
    )
    optimize_map.add_argument(
        "--storage",
        action="append",
        default=None,
        metavar="LABEL=TREE",
        help=(
            "add a named checkpoint-storage stack as the third axis instead "
            "of --checkpoint: LABEL={\"kind\": ..., \"params\": {...}} "
            "(inline JSON) or LABEL=@file.json; repeatable, each label "
            "becomes one axis value, lowered into effective (C, R) per cell"
        ),
    )
    optimize_map.add_argument(
        "--memory-per-node",
        type=float,
        default=0.0,
        metavar="BYTES",
        help=(
            "checkpointed bytes per node for --storage cells (total data "
            "scales weakly: memory_per_node x nodes)"
        ),
    )
    optimize_map.add_argument(
        "--protocols",
        type=str,
        nargs="+",
        default=None,
        help="protocols to compare (default: NoFT + the paper's three)",
    )
    optimize_map.add_argument(
        "--t0", type=float, default=86400.0, help="application time T0, s"
    )
    optimize_map.add_argument(
        "--alpha", type=float, default=0.8, help="LIBRARY time fraction"
    )
    optimize_map.add_argument(
        "--rho", type=float, default=0.8, help="LIBRARY memory fraction"
    )
    optimize_map.add_argument(
        "--downtime", type=float, default=60.0, help="downtime D, s"
    )
    optimize_map.add_argument(
        "--simulate",
        action="store_true",
        help="validate each cell's ranking with Monte-Carlo campaigns",
    )
    add_campaign_flags(optimize_map, runs=100)
    optimize_map.add_argument(
        "--json", type=str, default=None, help="write the map as JSON"
    )
    optimize_map.add_argument(
        "--csv", type=str, default=None, help="write the long-format table as CSV"
    )

    serve = sub.add_parser(
        "serve",
        help="run the tiered advisor service (HTTP, stdlib asyncio)",
        description=(
            "Serve 'which protocol, what period?' over HTTP.  Answers flow "
            "through three tiers: an in-process content-addressed answer "
            "cache, bilinear interpolation over a precomputed regime map "
            "(--regime-map), and the inline analytical optimizer; "
            "Monte-Carlo refinement runs as background jobs polled via "
            "GET /jobs/<id>.  See EXPERIMENTS.md for the endpoint reference."
        ),
    )
    serve.add_argument("--host", type=str, default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8080, help="TCP port (0 picks an ephemeral one)"
    )
    serve.add_argument(
        "--regime-map",
        type=str,
        default=None,
        help="precomputed regime-map JSON ('optimize map --json') for tier 2",
    )
    serve.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="SweepCache directory shared by background simulation jobs",
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="concurrent background simulation jobs (default 2)",
    )
    serve.add_argument(
        "--mc-workers",
        type=_workers_arg,
        default=1,
        help="shard-pool width of each Monte-Carlo campaign "
        "(a count, or 'auto' for the machine's cores; default 1 = serial)",
    )
    serve.add_argument(
        "--answer-cache-size",
        type=_positive_int,
        default=4096,
        help="entries kept in the in-process answer cache (LRU, default 4096)",
    )

    obs_cmd = sub.add_parser(
        "obs",
        help="observability: inspect the in-process metrics registry",
        description=(
            "Dump the global metrics registry (see repro.obs).  Every "
            "cataloged family renders even at zero, so the output doubles "
            "as the metric schema; the live advisor service exposes the "
            "same families at GET /metrics."
        ),
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    obs_dump = obs_sub.add_parser(
        "dump", help="print the metrics registry (deterministic JSON)"
    )
    obs_dump.add_argument(
        "--prometheus",
        action="store_true",
        help="render the Prometheus text exposition format instead of JSON",
    )

    abft = sub.add_parser("abft", help="ABFT kernel demonstration and overhead")
    abft.add_argument("--kernel", choices=["lu", "cholesky"], default="lu")
    abft.add_argument("--n", type=int, default=128, help="matrix order")
    abft.add_argument("--block-size", type=int, default=32)
    abft.add_argument("--trials", type=int, default=3)
    return parser


def _run_figure7(args: argparse.Namespace) -> int:
    config = paper_figure7_config()
    if args.reduced:
        config = config.reduced()
    workers = _resolve_workers(args.workers, args.runs) if args.validate else None
    result = run_figure7(
        config,
        validate=args.validate,
        simulation_runs=args.runs,
        seed=args.seed,
        workers=workers,
    )
    print(result.to_table().to_text())
    if args.validate:
        for protocol in ("PurePeriodicCkpt", "BiPeriodicCkpt", "ABFT&PeriodicCkpt"):
            print(
                f"max |WASTE_simul - WASTE_model| for {protocol}: "
                f"{result.max_difference(protocol):.4f}"
            )
    if args.csv:
        path = result.write_csv(args.csv)
        _note(f"series written to {path}")
    return 0


def _run_weak_scaling(args: argparse.Namespace, which: str) -> int:
    mtbf_scaling = (
        ScalingMode.INVERSE if args.mtbf_scaling == "inverse" else ScalingMode.CONSTANT
    )
    runner = {"figure8": run_figure8, "figure9": run_figure9, "figure10": run_figure10}[
        which
    ]
    kwargs = {"mtbf_scaling": mtbf_scaling}
    if args.nodes:
        kwargs["node_counts"] = tuple(args.nodes)
    result = runner(**kwargs)
    print(result.to_table().to_text())
    crossover = result.crossover_node_count()
    if crossover is not None:
        print(
            "ABFT&PeriodicCkpt wastes less than PurePeriodicCkpt from "
            f"{crossover} nodes on"
        )
    if args.csv:
        path = result.write_csv(args.csv)
        _note(f"series written to {path}")
    return 0


def _run_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import SweepJob, SweepRunner
    from repro.utils.tables import Table

    config = paper_figure7_config()
    if args.reduced:
        config = config.reduced()
    job = SweepJob(
        parameters=config.parameters(config.mtbf_values[0]),
        application_time=config.application_time,
        mtbf_values=tuple(config.mtbf_values),
        alpha_values=tuple(config.alpha_values),
        library_fraction=config.library_fraction,
        simulate=args.validate,
        simulation_runs=args.runs,
        seed=args.seed,
        backend=args.backend,
    )
    workers = _resolve_workers(args.workers, args.runs) if args.validate else None
    runner = SweepRunner(
        cache_dir=args.cache_dir,
        resume=args.resume,
        workers=workers,
    )
    result = runner.run(job)

    headers = ["mtbf_minutes", "alpha"]
    headers.extend(f"model_waste[{name}]" for name in job.protocols)
    if args.validate:
        headers.extend(f"sim_waste[{name}]" for name in job.protocols)
    table = Table(headers, title="Campaign: waste vs (MTBF, alpha)")
    for point in result.points:
        cells: list = [point.mtbf / MINUTE, point.alpha]
        cells.extend(point.model_waste[name] for name in job.protocols)
        if args.validate:
            cells.extend(
                point.simulated_waste.get(name, float("nan"))
                for name in job.protocols
            )
        table.add_row(cells)
    print(table.to_text())
    _note(
        f"grid points: {len(result.points)} "
        f"(computed {result.computed_points}, "
        f"reused {result.cached_points} cached)"
    )
    if args.cache_dir:
        _note(f"cache directory: {args.cache_dir}")
    if args.csv:
        path = table.write(args.csv)
        _note(f"series written to {path}")
    return 0


def _run_scenario_list(*, as_json: bool = False) -> int:
    from repro.core.registry import (
        failure_model_names,
        registry_catalog,
        resolve_failure_model,
        resolve_protocol,
        resolve_storage,
        protocol_names,
        storage_names,
        vectorized_law_names,
        vectorized_protocol_names,
    )
    from repro.simulation.vectorized import ENGINE_BACKENDS

    if as_json:
        # The exact payload the advisor service's GET /protocols serves
        # (same serializer), so scripts can consume either interchangeably.
        import json

        print(json.dumps(registry_catalog(), indent=2, sort_keys=True))
        return 0

    print("registered protocols:")
    for name in protocol_names():
        entry = resolve_protocol(name)
        aliases = f" (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
        backends = "event+vectorized" if entry.has_schedule else "event"
        storage = "any registered stack" if entry.storage else "none"
        print(f"  {name}{aliases} [backends: {backends}; storage: {storage}]")
    print("registered storage stacks (scenario 'storage.kind'):")
    for name in storage_names():
        entry = resolve_storage(name)
        aliases = f" (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
        nested = (
            f" [nested media: {', '.join(entry.nested)}]" if entry.nested else ""
        )
        lowering = "" if entry.analytical else " [MTBF-sensitive lowering]"
        print(f"  {name}{aliases}{nested}{lowering}")
    print("registered failure models:")
    for name in failure_model_names():
        entry = resolve_failure_model(name)
        aliases = f" (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
        backends = "event+vectorized" if entry.vectorized else "event"
        print(f"  {name}{aliases} [backends: {backends}]")
    vectorized = ", ".join(vectorized_protocol_names())
    laws = ", ".join(vectorized_law_names())
    print(f"engine backends (scenario 'simulation.backend'): {', '.join(ENGINE_BACKENDS)}")
    print(
        f"  backend='vectorized' needs a protocol with a schedule compiler "
        f"({vectorized}) and a vectorized failure law ({laws}); "
        "'auto' falls back to 'event' elsewhere"
    )
    return 0


def _validate_scenario(args: argparse.Namespace) -> int:
    """Schema check + registry-resolution dry-run; no simulation at all."""
    from repro.core.registry import UnknownFailureModelError, UnknownProtocolError
    from repro.scenario import ScenarioError, ScenarioSpec
    from repro.scenario.runner import scenario_sweep_job

    try:
        spec = ScenarioSpec.load(args.spec)
    except (ScenarioError, UnknownProtocolError, UnknownFailureModelError) as exc:
        print(f"error: invalid scenario file {args.spec!r}: {exc}", file=sys.stderr)
        return 2
    try:
        # Lower the spec onto the campaign job exactly as a run would --
        # SweepJob.__post_init__ performs the full protocol / failure-model
        # / backend resolution, with no simulation at construction -- then
        # probe every per-point construction a run performs: parameters and
        # failure model at each swept MTBF, workload at each swept alpha.
        scenario_sweep_job(spec)
        for mtbf in spec.mtbf_axis:
            spec.parameters(mtbf)
            spec.failure_model(mtbf)
        for alpha in spec.alpha_axis:
            spec.application_workload(alpha)
    except (
        ScenarioError,
        UnknownProtocolError,
        UnknownFailureModelError,
        ValueError,
    ) as exc:
        print(
            f"error: scenario file {args.spec!r} does not resolve: {exc}",
            file=sys.stderr,
        )
        return 2
    print(f"scenario file {args.spec!r} is valid")
    print(spec.describe())
    grid_points = len(spec.mtbf_axis) * len(spec.alpha_axis)
    print(
        f"would evaluate {grid_points} grid point(s) with "
        f"backend {spec.simulation.backend!r}"
    )
    return 0


def _run_scenario(args: argparse.Namespace) -> int:
    from repro.core.registry import UnknownFailureModelError, UnknownProtocolError
    from repro.scenario import ScenarioError, ScenarioSpec, run_scenario
    from repro.simulation.vectorized import VectorizedBackendError

    if args.scenario_command == "list":
        return _run_scenario_list(as_json=args.json)
    if args.scenario_command == "validate":
        return _validate_scenario(args)

    try:
        spec = ScenarioSpec.load(args.spec)
    except (ScenarioError, UnknownProtocolError, UnknownFailureModelError) as exc:
        print(f"error: invalid scenario file {args.spec!r}: {exc}", file=sys.stderr)
        return 2
    _note(spec.describe())
    validating = (
        spec.simulation.validate if args.validate is None else args.validate
    )
    workers = None
    if validating:
        runs = args.runs if args.runs is not None else spec.simulation.runs
        workers = _resolve_workers(args.workers, runs)
    try:
        result = run_scenario(
            spec,
            validate=args.validate,
            runs=args.runs,
            seed=args.seed,
            backend=args.backend,
            workers=workers,
            cache_dir=args.cache_dir,
            resume=args.resume,
        )
    except (
        ScenarioError,
        UnknownProtocolError,
        UnknownFailureModelError,
        VectorizedBackendError,
    ) as exc:
        print(f"error: scenario {spec.name!r} failed: {exc}", file=sys.stderr)
        return 2
    table = result.to_table()
    print(table.to_text())
    _note(
        f"grid points: {len(result.points)} "
        f"(computed {result.sweep.computed_points}, "
        f"reused {result.sweep.cached_points} cached)"
    )
    if result.truncated_trials:
        _note(
            f"warning: {result.truncated_trials} simulated trial(s) hit the "
            "max_slowdown cap and were truncated (waste ~1)"
        )
    if args.cache_dir:
        _note(f"cache directory: {args.cache_dir}")
    if args.csv:
        path = result.write_csv(args.csv)
        _note(f"series written to {path}")
    return 0


def _optimize_spec(args: argparse.Namespace):
    """The scenario spec behind ``optimize period`` / ``optimize compare``.

    ``--spec`` wins; otherwise the platform/workload flags are assembled
    into an equivalent in-memory spec, so both entry styles flow through
    the same :func:`repro.scenario.optimize_scenario` machinery.
    """
    from repro.scenario import PlatformSpec, ScenarioSpec, WorkloadSpec

    if args.spec:
        return ScenarioSpec.load(args.spec)
    return ScenarioSpec(
        name="cli-optimize",
        platform=PlatformSpec(
            mtbf=args.mtbf,
            checkpoint=args.checkpoint,
            recovery=args.recovery,
            downtime=args.downtime,
            library_fraction=args.rho,
            abft_overhead=args.phi,
        ),
        workload=WorkloadSpec(total_time=args.t0, alpha=args.alpha),
    )


def _print_period_optimum(optimum) -> None:
    from repro.utils.units import MINUTE

    if not optimum.periods:
        print("tunable periods       : none (protocol has no period knob)")
    for keyword in sorted(optimum.periods):
        value = optimum.periods[keyword]
        reference = optimum.closed_form.get(keyword, float("nan"))
        line = f"{keyword:<22}: "
        if value != value:  # NaN: infeasible regime
            line += "n/a (infeasible regime)"
        else:
            line += f"{value:.6g} s ({value / MINUTE:.4g} min)"
        print(line)
        if reference == reference:
            error = optimum.relative_error(keyword)
            print(
                f"  closed form (Eq. 11): {reference:.6g} s; "
                f"relative error {error:.2e}"
            )
    print(f"minimal model waste   : {optimum.waste:.6f}")
    print(f"model evaluations     : {optimum.evaluations}")
    if optimum.flat:
        _note("note: the waste does not depend on the period here "
              "(zero checkpoint cost)")
    if not optimum.feasible:
        _note("note: no period makes progress in this regime (waste = 1)")


def _run_optimize(args: argparse.Namespace) -> int:
    from repro.core.registry import UnknownFailureModelError, UnknownProtocolError
    from repro.scenario import ScenarioError
    from repro.simulation.vectorized import VectorizedBackendError

    try:
        if args.optimize_command == "period":
            return _run_optimize_period(args)
        if args.optimize_command == "compare":
            return _run_optimize_compare(args)
        return _run_optimize_map(args)
    except (
        ScenarioError,
        UnknownProtocolError,
        UnknownFailureModelError,
        VectorizedBackendError,
        ValueError,
    ) as exc:
        print(f"error: optimize {args.optimize_command} failed: {exc}", file=sys.stderr)
        return 2


def _run_optimize_period(args: argparse.Namespace) -> int:
    from repro.optimize import optimize_period, refine_period

    spec = _optimize_spec(args)
    parameters = spec.parameters()
    workload = spec.application_workload()
    optimum = optimize_period(
        args.protocol,
        parameters,
        workload,
        model_kwargs=spec.model_kwargs_for(args.protocol),
    )
    print(f"protocol              : {optimum.protocol}")
    _print_period_optimum(optimum)
    if args.refine:
        refined = refine_period(
            optimum.protocol,
            parameters,
            workload,
            runs=args.runs,
            seed=args.seed,
            backend=args.backend,
            workers=_resolve_workers(args.workers, args.runs),
            cache_dir=args.cache_dir,
            resume=args.resume,
            model_kwargs=spec.model_kwargs_for(args.protocol),
            analytical=optimum,
        )
        if refined.best is None:
            print("refinement            : skipped (nothing to simulate)")
        else:
            print(
                f"refined periods       : "
                + ", ".join(
                    f"{k} = {v:.6g} s"
                    for k, v in sorted(refined.best.periods.items())
                )
                + f" (scale {refined.shift:.4g}x the analytical optimum)"
            )
            print(
                f"simulated waste       : {refined.best.waste_mean:.6f} "
                f"({refined.runs} runs, seed {refined.seed}; "
                f"{refined.computed} campaigns computed, "
                f"{refined.cached} cached)"
            )
    return 0


def _run_optimize_compare(args: argparse.Namespace) -> int:
    from repro.optimize.regime import DEFAULT_REGIME_PROTOCOLS
    from repro.scenario import optimize_scenario

    spec = _optimize_spec(args)
    protocols = args.protocols
    if protocols is None and not args.spec:
        protocols = list(DEFAULT_REGIME_PROTOCOLS)
    result = optimize_scenario(
        spec, protocols=tuple(protocols) if protocols is not None else None
    )
    if args.json:
        # Machine-readable ranking: the same shape the advisor service's
        # POST /compare returns (ScenarioOptimizationResult.to_dict).
        import json

        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.to_table().to_text())
        winners = sorted({point.winner for point in result.points})
        print(f"winning protocol(s) over the grid: {', '.join(winners)}")
    if args.csv:
        path = result.write_csv(args.csv)
        _note(f"series written to {path}")
    return 0


def _parse_storage_stacks(entries: Sequence[str]):
    """Parse repeated ``--storage LABEL=TREE`` flags into (label, tree) pairs.

    ``TREE`` is an inline JSON ``{"kind", "params"}`` object, or ``@path``
    naming a JSON file holding one (the scenario-file storage section
    verbatim, so stacks move freely between scenario specs and maps).
    """
    import json

    stacks = []
    for entry in entries:
        label, sep, tree_text = entry.partition("=")
        if not sep or not label:
            raise ValueError(
                f"--storage expects LABEL=TREE, got {entry!r}"
            )
        tree_text = tree_text.strip()
        if tree_text.startswith("@"):
            from pathlib import Path

            tree_text = Path(tree_text[1:]).read_text(encoding="utf-8")
        try:
            tree = json.loads(tree_text)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"--storage {label}: tree is not valid JSON ({exc})"
            ) from None
        stacks.append((label.strip(), tree))
    return stacks


def _run_optimize_map(args: argparse.Namespace) -> int:
    from repro.optimize import RegimeMapSpec, compute_regime_map
    from repro.utils.units import YEAR

    kwargs = {}
    if args.protocols is not None:
        kwargs["protocols"] = tuple(args.protocols)
    if args.storage:
        kwargs["storage_stacks"] = _parse_storage_stacks(args.storage)
        kwargs["memory_per_node"] = args.memory_per_node
    spec = RegimeMapSpec(
        node_counts=tuple(args.nodes),
        node_mtbf_values=tuple(y * YEAR for y in args.node_mtbf_years),
        checkpoint_costs=tuple(args.checkpoint),
        abft_overheads=tuple(args.phi),
        application_time=args.t0,
        alpha=args.alpha,
        library_fraction=args.rho,
        downtime=args.downtime,
        simulate=args.simulate,
        simulation_runs=args.runs,
        seed=args.seed,
        backend=args.backend,
        **kwargs,
    )
    workers = _resolve_workers(args.workers, args.runs) if args.simulate else None
    regime_map = compute_regime_map(
        spec,
        workers=workers,
        cache_dir=args.cache_dir,
        resume=args.resume,
    )
    print(regime_map.to_ascii())
    counts = regime_map.winner_counts()
    print(
        "cells won: "
        + ", ".join(f"{name}: {counts[name]}" for name in spec.protocols)
    )
    _note(
        f"cells: {len(regime_map.cells)} "
        f"(computed {regime_map.computed_cells}, "
        f"reused {regime_map.cached_cells} cached)"
    )
    if args.cache_dir:
        _note(f"cache directory: {args.cache_dir}")
    if args.json:
        path = regime_map.save(args.json)
        _note(f"map written to {path}")
    if args.csv:
        path = regime_map.write_csv(args.csv)
        _note(f"series written to {path}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import create_app, serve_forever

    try:
        service = create_app(
            regime_map=args.regime_map,
            cache_dir=args.cache_dir,
            workers=args.workers,
            mc_workers=args.mc_workers,
            answer_cache_entries=args.answer_cache_size,
        )
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot start advisor service: {exc}", file=sys.stderr)
        return 2
    if service.surface is not None:
        described = service.surface.describe()
        _note(
            f"regime map loaded from {args.regime_map}: "
            f"{described['cells']} cells, "
            f"protocols {', '.join(described['protocols'])}"
        )
    if args.cache_dir:
        _note(f"background jobs cache to {args.cache_dir}")

    def ready(host: str, port: int) -> None:
        _note(f"advisor service listening on http://{host}:{port}")

    try:
        asyncio.run(serve_forever(service, args.host, args.port, ready=ready))
    except KeyboardInterrupt:
        _note("advisor service stopped")
    return 0


def _run_obs(args: argparse.Namespace) -> int:
    if args.prometheus:
        registry = _obs.global_registry()
        _obs.preregister(registry, (_obs.SCOPE_GLOBAL,))
        print(registry.render_prometheus(), end="")
    else:
        print(_obs.dump_json())
    return 0


def _run_abft(args: argparse.Namespace) -> int:
    from repro.abft import measure_overhead

    measurement = measure_overhead(
        args.kernel, n=args.n, block_size=args.block_size, trials=args.trials
    )
    print(f"kernel                : {measurement.kernel}")
    print(f"matrix order          : {measurement.n}")
    print(f"block size            : {measurement.block_size}")
    print(f"checksums             : {measurement.num_checksums}")
    print(f"unprotected time      : {measurement.unprotected_time:.4f} s")
    print(f"ABFT-protected time   : {measurement.protected_time:.4f} s")
    print(f"measured phi          : {measurement.phi:.3f}")
    print(f"reconstruction time   : {measurement.reconstruction_time * 1e3:.3f} ms")
    return 0


def _dispatch(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.command == "figure7":
        return _run_figure7(args)
    if args.command in ("figure8", "figure9", "figure10"):
        return _run_weak_scaling(args, args.command)
    if args.command == "campaign":
        return _run_campaign(args)
    if args.command == "scenario":
        return _run_scenario(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "optimize":
        return _run_optimize(args)
    if args.command == "obs":
        return _run_obs(args)
    if args.command == "abft":
        return _run_abft(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    # Stderr notes dedupe through module state; a fresh CLI invocation is a
    # fresh run, so clear it (repeated in-process calls -- tests, the
    # service -- must not silently swallow later notes).
    _obs.reset_log_notes()
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    if not trace_out:
        return _dispatch(args, parser)
    # --trace-out turns span collection on for exactly this invocation:
    # collect from a clean tracer, write the Chrome trace even when the
    # command fails (a partial profile of a failed run is still useful),
    # and restore the prior instrumentation flags for in-process callers.
    was_enabled, was_tracing = _obs.enabled(), _obs.tracing()
    _obs.global_tracer().reset()
    _obs.configure(trace=True)
    try:
        return _dispatch(args, parser)
    finally:
        _obs.global_tracer().write_chrome_trace(trace_out)
        _obs.configure(trace=was_tracing, metrics=was_enabled)
        _obs.log(
            "note",
            "trace-written",
            path=trace_out,
            spans=len(_obs.global_tracer().records()),
        )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
