"""Command-line interface: run the paper's experiments from the terminal.

All solve-heavy commands route through the experiment runtime
(:mod:`repro.runtime`): ``--workers`` shards jobs across a process pool,
results are cached on disk under their content hash (``--cache-dir`` to place
the cache, ``--no-cache`` to disable it), and ``--replica-chunk`` splits a
single large solve into schedulable replica ranges.  Per seed, the printed
numbers are bit-identical regardless of the worker count.

Examples
--------
Solve a 7x7 King's graph 4-coloring with 10 iterations::

    msropm solve --rows 7 --iterations 10 --seed 1

Solve an external DIMACS ``.col`` instance (a first-class workload)::

    msropm solve --graph instance.col --iterations 10 --seed 1

Trade bit-identity for speed with the float32 throughput tier (statistically
equivalent accuracy, checked by ``msropm equivalence``)::

    msropm solve --rows 7 --iterations 10 --seed 1 --precision throughput

Reproduce the paper's tables and figures (optionally scaled down)::

    msropm table1 --scale 0.25
    msropm table2 --scale 0.25
    msropm fig5 --scale 0.25
    msropm fig3

Run the whole evaluation in one sharded, cached pass::

    msropm suite --scale 0.25 --workers 4 --cache-dir ~/.cache/msropm

Inspect the workload zoo and run the scenario matrix across it::

    msropm workloads list
    msropm workloads show --family er
    msropm scenarios --family er,regular,planar,dimacs --workers 4

Run the same evaluations as resumable multi-stage campaigns (persistent run
ledger under the cache dir; a killed run resumes from its last completed
stage with zero recomputation)::

    msropm campaign run suite --scale 0.25 --workers 4
    msropm campaign list
    msropm campaign status <run-id>
    msropm campaign resume <run-id> --workers 4

Fleet execution: drain the same jobs through a shared filesystem spool that
any number of worker processes (or hosts on a shared mount) steal from, with
bit-identical reports::

    msropm fleet worker /tmp/spool --wait &
    msropm scenarios --workers 2 --executor spool --spool-dir /tmp/spool
    msropm fleet status /tmp/spool
    msropm fleet stop /tmp/spool

Run the solver as a long-lived service (one warm runner amortized across a
stream of clients; tickets keyed by job content hash are idempotent across
resubmissions *and* server restarts)::

    msropm serve --cache-dir ~/.cache/msropm --workers 4 &
    msropm client submit --rows 7 --iterations 10 --seed 1 --wait
    msropm client submit --scenario-families er --wait
    msropm client poll <ticket>
    msropm client fetch <ticket>
    msropm client stats

Inspect and maintain the artifact store (the content-addressed result cache)::

    msropm cache stats
    msropm cache verify --prune
    msropm cache gc --drop-unreferenced
    msropm cache export results.tar.gz
    msropm cache import results.tar.gz

The parser is built from two tables: ``FLAGS`` declares every flag once (its
``add_argument`` keywords) and ``COMMANDS`` holds one row per command (path,
help, flags, handler).  Adding a flag is one ``FLAGS`` entry; adding a
subcommand is one ``COMMANDS`` row naming its flags and its handler.  A library
error (:class:`~repro.exceptions.ReproError`) ends the command with one
``msropm: error:`` line on stderr and exit status 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from pathlib import Path
from typing import List, Optional

from repro.analysis.reporting import format_table, summarize_campaign_totals
from repro.campaigns import campaign_names
from repro.core.config import MSROPMConfig
from repro.exceptions import ConfigurationError, ReproError
from repro.experiments.fig3_waveforms import render_figure3, run_figure3
from repro.experiments.protocol import run_experiment
from repro.experiments.scenario_matrix import SCENARIO_BASELINES
from repro.graphs.generators import kings_graph
from repro.runtime.cache import ResultCache, default_cache_dir
from repro.runtime.executors import EXECUTOR_NAMES
from repro.runtime.jobs import KingsGraphSpec, as_graph_spec
from repro.runtime.runner import ExperimentRunner
from repro.runtime.spool import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_POLL_INTERVAL,
    JobSpool,
    run_fleet_worker,
)
from repro.service.ratelimit import DEFAULT_BURST, DEFAULT_RATE
from repro.workloads import default_workload, family_names, get_family, iter_families

# Every flag, declared once as its ``add_argument`` keywords.  A command row
# may override a keyword where that command's default or meaning differs.
FLAGS = {
    # Problem and experiment knobs.
    "--rows": dict(type=int, default=7, help="board side length (rows == cols)"),
    "--graph": dict(
        help="solve this DIMACS .col (or graph JSON) instance instead of a King's board"
    ),
    "--colors": dict(type=int, default=4, help="number of colors (power of two)"),
    "--iterations": dict(type=int, help="override iteration count"),
    "--seed": dict(type=int, default=2025, help="base RNG seed"),
    "--precision": dict(
        choices=("exact", "throughput"),
        default="exact",
        help="precision tier (exact keeps the bit-identity contract; "
        "throughput runs float32 state with one batched noise stream — "
        "statistically equivalent accuracy, validated by 'msropm "
        "equivalence'; CI gates its whole-solve speedup at >= 2.5x)",
    ),
    "--scale": dict(type=float, default=1.0, help="problem/iteration scale in (0, 1]"),
    "--family": dict(
        help="comma-separated workload families of the scenario matrix (default: the "
        f"whole zoo; registered: {', '.join(family_names())})",
    ),
    "--baselines": dict(
        default=",".join(SCENARIO_BASELINES),
        help="comma-separated baselines of the scenario matrix "
        f"(subset of: {', '.join(SCENARIO_BASELINES)}; empty string skips all)",
    ),
    "--tolerance": dict(
        type=float, help="equivalence margin on the mean-accuracy difference (default 0.05)"
    ),
    # Experiment runtime.
    "--workers": dict(
        type=int, default=1, help="worker processes for the job scheduler (1 = run in-process)"
    ),
    "--cache-dir": dict(
        help="cache directory holding the result cache, the campaign ledgers and "
        "the service endpoint record (default: $MSROPM_CACHE_DIR or ~/.cache/msropm)",
    ),
    "--no-cache": dict(action="store_true", help="disable the on-disk result cache for this run"),
    "--replica-chunk": dict(
        type=int,
        help="split each solve into jobs of at most this many iterations "
        "(chunk boundaries are independent of --workers, so cache keys are too)",
    ),
    "--executor": dict(
        choices=EXECUTOR_NAMES,
        default="local",
        help="executor backend: 'local' runs a warm process pool on this host; "
        "'spool' drains jobs through a shared filesystem spool that external "
        "'msropm fleet worker' processes steal from (results bit-identical)",
    ),
    "--spool-dir": dict(help="shared spool directory for --executor spool"),
    "--lease-timeout": dict(
        type=float,
        default=DEFAULT_LEASE_TIMEOUT,
        help="seconds before a fleet worker's unrefreshed spool claim is reclaimed "
        f"(default {DEFAULT_LEASE_TIMEOUT:g})",
    ),
    # Campaigns.
    "name": dict(help=f"campaign name (registered: {', '.join(campaign_names())})"),
    "run_id": dict(help="run id (see 'campaign list')"),
    "--run-id": dict(help="explicit run id (default: generated)"),
    "--event-log": dict(help="also append every ledger event as one JSON line to this file"),
    "--webhook": dict(
        help="also POST every ledger event as JSON to this http(s) URL "
        "(best-effort; delivery failures never fail the run)",
    ),
    "--interval": dict(type=float, default=1.0, help="seconds between ledger polls (default 1.0)"),
    "--once": dict(action="store_true", help="render a single frame and exit (scripting/CI mode)"),
    "--metrics-out": dict(help="also write this process's metrics-spine JSON snapshot to PATH"),
    # Fleet.
    "spool_dir": dict(help="the shared spool directory"),
    "--wait": dict(
        action="store_true",
        help="keep polling for new work after the spool drains "
        "(exit on 'fleet stop' or --idle-timeout); default: exit once drained",
    ),
    "--idle-timeout": dict(type=float, help="exit after this many seconds of continuous idleness"),
    "--max-jobs": dict(type=int, help="exit after executing this many jobs"),
    "--poll-interval": dict(
        type=float,
        default=DEFAULT_POLL_INTERVAL,
        help=f"seconds between idle spool scans (default {DEFAULT_POLL_INTERVAL:g})",
    ),
    "--quiet": dict(action="store_true", help="suppress per-job progress lines"),
    "--clear": dict(
        action="store_true", help="remove the stop marker instead, so new workers keep waiting"
    ),
    # Artifact store.
    "bundle": dict(help="path of the bundle file"),
    "--prune": dict(action="store_true", help="delete corrupt entries as found"),
    "--drop-unreferenced": dict(
        action="store_true", help="also remove sound job results no campaign ledger references"
    ),
    "--no-payloads": dict(
        action="store_true",
        help="skip payload namespaces (reference solutions), export job results only",
    ),
    # Service and client.
    "--host": dict(default="127.0.0.1", help="bind address"),
    "--port": dict(
        type=int,
        default=0,
        help="bind port (0 = pick a free port; the bound port is published in "
        "the cache dir's service/endpoint.json)",
    ),
    "--rate": dict(
        type=float,
        default=DEFAULT_RATE,
        help=f"per-client sustained rate limit in jobs/second (default {DEFAULT_RATE:g})",
    ),
    "--burst": dict(
        type=float,
        default=DEFAULT_BURST,
        help=f"per-client burst capacity in jobs (default {DEFAULT_BURST:g})",
    ),
    "--max-pending": dict(
        type=int,
        default=256,
        help="in-flight submitted jobs before the submit queue answers "
        "429 + Retry-After (default 256)",
    ),
    "--endpoint": dict(
        help="service URL, e.g. http://127.0.0.1:8765 (default: discovered "
        "from the cache dir's service/endpoint.json)",
    ),
    "--client-id": dict(default="cli", help="rate-limit identity (default: cli)"),
    "--scenario-families": dict(
        help="submit the MSROPM scenario jobs of these comma-separated workload "
        "families instead of a single solve (empty string = the whole zoo)",
    ),
    "--timeout": dict(type=float, default=600.0, help="--wait timeout in seconds"),
    "ticket": dict(help="ticket id (the job content hash)"),
    # Developer tooling.
    "--format": dict(
        choices=("text", "json"), default="text", help="report format (default: text)"
    ),
    "--rule": dict(
        action="append", metavar="RULE", help="restrict to a checker name or rule id (repeatable)"
    ),
    "--root": dict(help="repo root (default: nearest ancestor with pyproject.toml)"),
    "--force": dict(
        action="store_true", help="regenerate even when a changed surface's version is unbumped"
    ),
    "--check": dict(
        action="store_true", help="only report whether the manifest is current; write nothing"
    ),
}

# Named flag groups that several commands share.
RUNTIME = ["--workers", "--cache-dir", "--no-cache", "--replica-chunk",
           "--executor", "--spool-dir", "--lease-timeout"]
CLIENT = ["--endpoint", "--cache-dir", "--client-id"]
EXPERIMENT = ["--scale", "--iterations", "--seed", "--precision", *RUNTIME]
EVENT_SINKS = ["--event-log", "--webhook"]


def _csv(text: str) -> List[str]:
    """The non-empty, stripped items of a comma-separated flag value."""
    return [name.strip() for name in text.split(",") if name.strip()]


def runner_from_args(args: argparse.Namespace) -> ExperimentRunner:
    """Build the :class:`ExperimentRunner` described by the runtime flags.

    Every command holding a runner uses it as a context manager, so the warm
    worker pool (and the service's drain thread) is released on success *and*
    on error exits alike — no ``ProcessPoolExecutor`` outlives a command.
    """
    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    executor_options = {"lease_timeout": args.lease_timeout} if args.executor == "spool" else {}
    return ExperimentRunner(
        workers=args.workers,
        cache_dir=cache_dir,
        replica_chunk=args.replica_chunk,
        executor=args.executor,
        spool_dir=args.spool_dir,
        executor_options=executor_options,
        max_pending=getattr(args, "max_pending", None),
    )


def _run_solve(args: argparse.Namespace) -> int:
    if args.graph is not None:
        # One spec, parsed once: its built graph is cached in-process, so the
        # display metadata and a serial solve share the same parse.
        spec = as_graph_spec(args.graph)
        graph = spec.build()
        title_name = spec.label
    else:
        graph = kings_graph(args.rows, args.rows)
        spec = KingsGraphSpec(args.rows, args.rows)
        title_name = f"{graph.num_nodes}-node King's graph"
    config = MSROPMConfig(
        num_colors=args.colors, seed=args.seed, precision=args.precision
    )
    with runner_from_args(args) as runner:
        result = runner.solve(spec, config, iterations=args.iterations, seed=args.seed)
        stats = runner.stats()
    rows = [
        [
            item.iteration_index,
            f"{item.stage1_accuracy:.3f}",
            f"{item.stage1_raw_accuracy:.3f}",
            f"{item.accuracy:.3f}",
            item.is_exact,
        ]
        for item in result.iterations
    ]
    print(
        format_table(
            ("iteration", "stage-1 accuracy", "stage-1 raw", "coloring accuracy", "exact"),
            rows,
            title=f"MSROPM on {title_name} ({args.colors} colors, {graph.num_nodes} nodes)",
        )
    )
    print()
    print(f"best accuracy:  {result.best_accuracy:.3f}")
    print(f"mean accuracy:  {result.accuracies.mean():.3f}")
    print(f"exact solutions: {result.num_exact_solutions}/{result.num_iterations}")
    if stats["cache_hits"]:
        print(f"(result served from cache: {stats['cache_hits']} hit(s))")
    return 0


def _run_experiment(name: str, args: argparse.Namespace) -> int:
    """``table1``, ``table2``, ``fig5`` and ``suite``: one runner, one report."""
    params = dict(
        scale=args.scale, iterations=args.iterations, seed=args.seed, precision=args.precision
    )
    with runner_from_args(args) as runner:
        result = run_experiment(name, params, runner)
    print(result.render())
    return 0


def _run_fig3(args: argparse.Namespace) -> int:
    print(render_figure3(run_figure3(rows=args.rows, cols=args.rows, seed=args.seed)))
    return 0


def _workloads_list(args: argparse.Namespace) -> int:
    rows = [
        [
            family.name,
            family.kind,
            family.num_colors,
            len(family.default_grid),
            "yes" if family.seeded else "no",
            family.description,
        ]
        for family in iter_families()
    ]
    print(
        format_table(
            ("Family", "Kind", "Colors", "Grid points", "Seeded", "Description"),
            rows,
            title="Workload zoo",
        )
    )
    return 0


def _workloads_show(args: argparse.Namespace) -> int:
    family = get_family(args.family)
    instances = default_workload(family.name, base_seed=args.seed).expand()
    rows = []
    for instance in instances:
        graph = instance.build()
        reference = instance.reference(graph)
        if reference.kind == "maxcut" and reference.reference_cut is not None:
            reference_text = f"cut {reference.reference_cut:.0f}"
        elif reference.colorable is None:
            reference_text = "unknown"
        elif reference.colorable:
            reference_text = f"{instance.num_colors}-colorable"
        else:
            reference_text = f"not {instance.num_colors}-colorable"
        rows.append(
            [
                instance.label,
                ", ".join(f"{k}={v}" for k, v in instance.params) or "-",
                instance.seed if instance.seed is not None else "-",
                graph.num_nodes,
                graph.num_edges,
                f"{reference_text} ({reference.provider})",
            ]
        )
    print(
        format_table(
            ("Instance", "Parameters", "Seed", "Nodes", "Edges", "Reference"),
            rows,
            title=f"Workload family '{family.name}': {family.description}",
        )
    )
    return 0


def _run_scenarios(args: argparse.Namespace) -> int:
    params = dict(
        families=_csv(args.family) if args.family else None,
        iterations=args.iterations,
        seed=args.seed,
        precision=args.precision,
        baselines=_csv(args.baselines),
    )
    with runner_from_args(args) as runner:
        result = run_experiment("scenarios", params, runner)
    print(result.render())
    stats = result.runner_stats
    # Worker count and wall time deliberately omitted: the scenarios output is
    # byte-comparable between --workers 1 and --workers N.
    print()
    print(
        f"scenarios: {len(result.rows)} instance(s), {stats['jobs_run']} job(s) solved, "
        f"{stats['cache_hits']} cache hit(s), {stats['cache_stores']} store(s)"
    )
    stale = stats.get("cache_stale_misses", 0)
    if stale:
        # Prefixed "scenarios:" so the cold/warm byte-comparison (which strips
        # these status lines) stays intact even when the counts differ.
        print(
            f"scenarios: note: {stale} stale cache entr{'y' if stale == 1 else 'ies'} "
            "skipped (schema or tier change) and recomputed"
        )
    return 0


def _run_equivalence(args: argparse.Namespace) -> int:
    from repro.experiments.equivalence import (
        DEFAULT_EQUIVALENCE_FAMILIES,
        DEFAULT_TOLERANCE,
        run_equivalence,
    )

    families = _csv(args.family) if args.family else list(DEFAULT_EQUIVALENCE_FAMILIES)
    tolerance = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    with runner_from_args(args) as runner:
        result = run_equivalence(
            families=families,
            iterations=args.iterations,
            seed=args.seed,
            tolerance=tolerance,
            runner=runner,
        )
    print(result.render())
    return 0 if result.passed else 1


def _campaign_ledger(cache_dir: Optional[str]):
    """The run ledger under the (explicit or default) cache directory.

    The ledger deliberately ignores ``--no-cache``: the journal is the
    control plane, not a result cache, and a run started uncached should
    still be listable and resumable (its resume recomputes results).
    """
    from repro.campaigns import RunLedger, ledger_root

    base = Path(cache_dir) if cache_dir else default_cache_dir()
    return RunLedger(ledger_root(base))


def _campaign_sinks(args: argparse.Namespace):
    """Build the event-sink router from ``--event-log``/``--webhook`` flags.

    Returns ``None`` when neither flag is set, so un-observed runs skip the
    router entirely.
    """
    from repro.obs import JsonlFileSink, SinkRouter, WebhookSink

    if not args.event_log and not args.webhook:
        return None
    router = SinkRouter()
    if args.event_log:
        router.add(JsonlFileSink(Path(args.event_log)))
    if args.webhook:
        router.add(WebhookSink(args.webhook))
    return router


def _report_sink_errors(sinks) -> None:
    """One stderr line when best-effort event delivery dropped anything."""
    if sinks is not None and sinks.errors:
        print(
            f"warning: {sinks.errors} event delivery failure(s); "
            f"last: {sinks.last_error}",
            file=sys.stderr,
        )


def _campaign_watch(args: argparse.Namespace) -> int:
    """Live terminal view of one run, re-projected from its ledger tail."""
    import time

    from repro.obs import CampaignProjection, LedgerFollower, render_watch, wall_time

    ledger = _campaign_ledger(args.cache_dir)
    path = ledger.path(args.run_id)
    if not path.exists():
        raise ConfigurationError(f"unknown campaign run {args.run_id!r} under {ledger.root}")
    follower = LedgerFollower(path)
    projection = CampaignProjection(args.run_id)
    seen_truncations = 0
    first_frame = True
    while True:
        events = follower.poll()
        if follower.truncations != seen_truncations:
            # The journal shrank under us (rotation/tampering): the follower
            # re-read it from the top, so fold into a fresh projection.
            seen_truncations = follower.truncations
            projection = CampaignProjection(args.run_id)
        for event in events:
            projection.apply(event)
        if events or first_frame:
            first_frame = False
            frame = render_watch(projection, now=wall_time())
            if follower.malformed:
                frame += (
                    f"\nwarning: {follower.malformed} malformed ledger "
                    "line(s) skipped"
                )
            print(frame)
            print()
        if projection.terminal:
            return 1 if projection.failed else 0
        if args.once:
            return 0
        time.sleep(args.interval)


def _campaign_report(args: argparse.Namespace) -> int:
    """Post-hoc report of one run, rendered from ledger + cache alone."""
    from repro.obs import get_metrics, project_state, render_report
    from repro.runtime.atomic import write_atomic_json

    ledger = _campaign_ledger(args.cache_dir)
    state = ledger.replay(args.run_id)
    projection = project_state(state)
    cache_base = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    print(render_report(projection, cache=ResultCache(cache_base)))
    if args.metrics_out:
        write_atomic_json(Path(args.metrics_out), get_metrics().snapshot(), indent=2)
    return 0


def _campaign_list(args: argparse.Namespace) -> int:
    ledger = _campaign_ledger(args.cache_dir)
    runs, corrupt = ledger.scan_runs()
    rows = [
        [
            state.run_id,
            state.campaign,
            sum(1 for value in state.stage_states.values() if value == "passed"),
            state.num_finished_jobs,
            "yes" if state.finished else "no",
        ]
        for state in runs
    ]
    # Journals that failed to replay still get a row: hiding a rotted run
    # from the listing would make its disappearance look like deletion.
    rows.extend(
        [entry["run_id"], "?", "-", "-", "CORRUPT"] for entry in corrupt
    )
    print(
        format_table(
            ("Run", "Campaign", "Stages passed", "Jobs recorded", "Finished"),
            rows,
            title=f"Campaign runs ({ledger.root})",
        )
    )
    for entry in corrupt:
        print(f"warning: run {entry['run_id']}: {entry['error']}", file=sys.stderr)
    return 0


def _campaign_status(args: argparse.Namespace) -> int:
    from repro.campaigns import get_campaign

    state = _campaign_ledger(args.cache_dir).replay(args.run_id)
    spec = get_campaign(state.campaign)
    rows = [
        [
            stage.name,
            ", ".join(stage.requires) if stage.requires else "-",
            state.stage_states.get(stage.name, "not_started"),
            len(state.finished_jobs.get(stage.name, [])),
        ]
        for stage in spec.stages
    ]
    print(
        format_table(
            ("Stage", "Requires", "State", "Jobs recorded"),
            rows,
            title=f"Campaign '{state.campaign}' run {state.run_id}",
        )
    )
    print()
    print(f"finished: {'yes' if state.finished else 'no'}")
    return 0


def _print_campaign_result(result, runner_stats: dict, sinks) -> int:
    final = result.final_output
    if final is not None and hasattr(final, "render"):
        print(final.render())
        print()
    print(result.render())
    totals = summarize_campaign_totals(result.reports)
    print(
        f"campaign {result.run_id}: {totals['stages_passed']}/{totals['stages']} "
        f"stage(s) passed, {totals['computed']} job(s) computed, "
        f"{totals['served']} served from cache"
    )
    stale = runner_stats.get("cache_stale_misses", 0)
    if stale:
        print(
            f"note: {stale} stale cache entr{'y' if stale == 1 else 'ies'} "
            "skipped (schema or tier change) and recomputed"
        )
    _report_sink_errors(sinks)
    return 0


def _campaign_resume(args: argparse.Namespace) -> int:
    from repro.campaigns import resume_campaign

    ledger = _campaign_ledger(args.cache_dir)
    sinks = _campaign_sinks(args)
    with runner_from_args(args) as runner:
        result = resume_campaign(args.run_id, ledger, runner=runner, log=print, sinks=sinks)
        stats = runner.stats()
    return _print_campaign_result(result, stats, sinks)


def _campaign_run(args: argparse.Namespace) -> int:
    from repro.campaigns import get_campaign, run_campaign

    ledger = _campaign_ledger(args.cache_dir)
    sinks = _campaign_sinks(args)
    # Only meaningfully-set knobs go into the params — the orchestrator
    # rejects parameters the chosen campaign does not read, so e.g.
    # `campaign run suite --family er` fails loudly instead of silently
    # running the full suite.
    spec = get_campaign(args.name)
    params = {"seed": args.seed, "precision": args.precision}
    if args.scale != 1.0:
        params["scale"] = args.scale
    if args.iterations is not None:
        params["iterations"] = args.iterations
    if args.family:
        params["families"] = _csv(args.family)
    if args.baselines is not None:
        params["baselines"] = _csv(args.baselines)
    with runner_from_args(args) as runner:
        result = run_campaign(
            spec,
            params,
            runner=runner,
            ledger=ledger,
            run_id=args.run_id,
            log=print,
            sinks=sinks,
        )
        stats = runner.stats()
    return _print_campaign_result(result, stats, sinks)


def _fleet_worker(args: argparse.Namespace) -> int:
    counters = run_fleet_worker(
        args.spool_dir,
        wait=args.wait,
        idle_timeout=args.idle_timeout,
        max_jobs=args.max_jobs,
        lease_timeout=args.lease_timeout,
        poll_interval=args.poll_interval,
        log=None if args.quiet else print,
    )
    print(
        f"fleet worker: {counters['executed']} job(s) executed, "
        f"{counters['failed']} failed, {counters['reclaimed']} claim(s) reclaimed"
    )
    return 0


def _fleet_status(args: argparse.Namespace) -> int:
    spool = JobSpool(args.spool_dir)
    if not spool.exists:
        print(f"{spool.root} is not an initialized spool")
        return 1
    counts = spool.counts()
    print(f"spool {spool.root}")
    print(f"pending: {counts['pending']}")
    print(f"active:  {counts['active']}")
    print(f"results: {counts['results']}")
    print(f"stop requested: {'yes' if spool.stop_requested else 'no'}")
    return 0


def _fleet_stop(args: argparse.Namespace) -> int:
    spool = JobSpool(args.spool_dir)
    if args.clear:
        spool.clear_stop()
        print(f"stop marker cleared on {spool.root}")
    else:
        spool.request_stop()
        print(f"stop requested on {spool.root} (waiting workers will exit)")
    return 0


def _human_bytes(count: int) -> str:
    """A compact human-readable byte count (binary units)."""
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{count} B"
        size /= 1024
    return f"{count} B"  # pragma: no cover - unreachable


def _store(args: argparse.Namespace) -> ResultCache:
    return ResultCache(args.cache_dir or default_cache_dir())


def _cache_stats(args: argparse.Namespace) -> int:
    stats = _store(args).stats()
    rows = [
        [kind, bucket["entries"], _human_bytes(bucket["bytes"])]
        for kind, bucket in sorted(stats["kinds"].items())
    ]
    rows.append(["total", stats["entries"], _human_bytes(stats["bytes"])])
    print(
        format_table(
            ("Namespace", "Entries", "Size"),
            rows,
            title=f"Artifact store {stats['root']} (schema v{stats['cache_schema']})",
        )
    )
    return 0


def _cache_verify(args: argparse.Namespace) -> int:
    report = _store(args).verify(prune=args.prune)
    print(
        f"cache verify: {report['ok']} ok, {report['stale']} stale, "
        f"{report['corrupt']} corrupt ({report['pruned']} pruned)"
    )
    for entry in report["corrupt_entries"]:
        print(f"corrupt: {entry['path']}: {entry['detail']}")
    return 1 if report["corrupt"] > report["pruned"] else 0


def _cache_gc(args: argparse.Namespace) -> int:
    referenced = None
    if args.drop_unreferenced:
        referenced = _campaign_ledger(args.cache_dir).referenced_job_hashes()
    removed = _store(args).gc(referenced=referenced)
    print(
        f"cache gc: removed {removed['stale']} stale, {removed['corrupt']} corrupt, "
        f"{removed['unreferenced']} unreferenced; kept {removed['kept']}"
    )
    return 0


def _cache_export(args: argparse.Namespace) -> int:
    job_hashes = None
    if args.run_id is not None:
        state = _campaign_ledger(args.cache_dir).replay(args.run_id)
        job_hashes = {
            job_hash
            for hashes in state.finished_jobs.values()
            for job_hash in hashes
        }
    manifest = _store(args).export_bundle(
        args.bundle,
        job_hashes=job_hashes,
        include_payloads=not args.no_payloads,
    )
    print(
        f"cache export: {len(manifest['entries'])} result(s), "
        f"{len(manifest['payloads'])} payload(s) -> {args.bundle} "
        f"({manifest['skipped_unsound']} unsound entr"
        f"{'y' if manifest['skipped_unsound'] == 1 else 'ies'} skipped)"
    )
    return 0


def _cache_import(args: argparse.Namespace) -> int:
    counters = _store(args).import_bundle(args.bundle)
    print(
        f"cache import: {counters['imported']} imported, "
        f"{counters['existing']} already present, {counters['rejected']} rejected"
    )
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service.server import run_server

    if args.no_cache:
        print(
            "msropm serve needs the durable result cache (tickets are keyed by "
            "job hash and served from it across restarts); drop --no-cache",
            file=sys.stderr,
        )
        return 2
    cache_root = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    with runner_from_args(args) as runner:
        return run_server(
            runner,
            cache_root,
            host=args.host,
            port=args.port,
            rate=args.rate,
            burst=args.burst,
            log=print,
        )


def _service_client(args: argparse.Namespace):
    from repro.service.client import ServiceClient, discover_endpoint

    endpoint = args.endpoint or discover_endpoint(args.cache_dir or default_cache_dir())
    return ServiceClient(endpoint, client_id=args.client_id)


def _print_json(payload) -> int:
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _client_submit(args: argparse.Namespace) -> int:
    client = _service_client(args)
    spec: dict = {}
    if args.scenario_families is not None:
        spec["kind"] = "scenarios"
        families = _csv(args.scenario_families)
        if families:
            spec["families"] = families
    else:
        spec["kind"] = "solve"
        spec["rows"] = args.rows
        spec["colors"] = args.colors
        if args.graph is not None:
            spec["graph"] = args.graph
    spec["precision"] = args.precision
    if args.iterations is not None:
        spec["iterations"] = args.iterations
    if args.seed is not None:
        spec["seed"] = args.seed
    tickets = client.submit([spec])
    for ticket in tickets:
        print(f"ticket {ticket['ticket_id']} {ticket['state']} ({ticket['source']})")
    if not args.wait:
        return 0
    ticket_ids = list(dict.fromkeys(ticket["ticket_id"] for ticket in tickets))
    states = client.wait(ticket_ids, timeout=args.timeout)
    done = sum(1 for payload in states.values() if payload.get("state") == "done")
    failed = sum(1 for payload in states.values() if payload.get("state") == "failed")
    for ticket_id in ticket_ids:
        payload = states[ticket_id]
        line = f"final {ticket_id} {payload.get('state')} ({payload.get('source')})"
        if payload.get("error"):
            line += f": {payload['error']}"
        print(line)
    print(f"client submit: {len(ticket_ids)} ticket(s), {done} done, {failed} failed")
    return 1 if failed else 0


def _repo_root(args: argparse.Namespace) -> Path:
    # Imported lazily: the analyzer is developer tooling, and solve-path
    # invocations should not pay for (or depend on) it.
    from repro.devtools.__main__ import find_repo_root

    return (Path(args.root) if args.root else find_repo_root()).resolve()


def _dev_lint(args: argparse.Namespace) -> int:
    from repro.devtools.__main__ import run_lint_command

    return run_lint_command(_repo_root(args), args.format, args.rule)


def _dev_regen_manifest(args: argparse.Namespace) -> int:
    from repro.devtools.__main__ import run_regen_command

    return run_regen_command(_repo_root(args), args.force, args.check)


# One row per command: (path, help, flags, handler).  A row with no handler is
# a command group; its subcommands follow it.  A flag is a ``FLAGS`` name, or
# ``(name, overrides)`` where this command's default, help or requiredness
# differs.
COMMANDS = [
    (("solve",), "solve a 4-coloring problem", [
        "--rows", "--graph",
        ("--iterations", dict(default=10, help="number of repeated runs")),
        "--colors", ("--seed", dict(default=1)), "--precision", *RUNTIME,
    ], _run_solve),
    (("table1",), "reproduce Table 1 (per-problem statistics)", EXPERIMENT,
     partial(_run_experiment, "table1")),
    (("table2",), "reproduce Table 2 (prior-work comparison)", EXPERIMENT,
     partial(_run_experiment, "table2")),
    (("fig5",), "reproduce Figure 5 (accuracy and Hamming-distance data)", EXPERIMENT,
     partial(_run_experiment, "fig5")),
    (("suite",), "run the whole evaluation (Tables 1-2, Fig. 5) in one sharded pass",
     EXPERIMENT, partial(_run_experiment, "suite")),
    (("fig3",), "reproduce Figure 3 (stage waveforms)",
     [("--rows", dict(default=4)), ("--seed", dict(default=7))], _run_fig3),
    (("workloads",), "inspect the workload zoo", [], None),
    (("workloads", "list"), "list the registered workload families", [], _workloads_list),
    (("workloads", "show"), "expand one family's default workload", [
        ("--family", dict(required=True, help="registered family name (see 'workloads list')")),
        "--seed",
    ], _workloads_show),
    (("scenarios",), "run the MSROPM and the baselines across the workload zoo", [
        "--family",
        ("--iterations", dict(default=5, help="MSROPM/baseline iterations per instance")),
        "--seed", "--baselines", "--precision", *RUNTIME,
    ], _run_scenarios),
    (("equivalence",), "validate the throughput tier: matched exact/throughput ensembles "
     "compared by KS test and bootstrap CI (exit 1 on failure)", [
        ("--family", dict(
            help="comma-separated workload families to compare "
            f"(default: er,regular; registered: {', '.join(family_names())})"
        )),
        ("--iterations", dict(default=20, help="iterations per instance and tier")),
        "--seed", "--tolerance", *RUNTIME,
    ], _run_equivalence),
    (("campaign",), "declarative multi-stage campaigns with a persistent run ledger "
     "and crash-safe resume", [], None),
    (("campaign", "run"), "start a new campaign run", [
        "name", "--scale", "--iterations", "--seed", "--precision", "--family",
        ("--baselines", dict(default=None)), "--run-id", *RUNTIME, *EVENT_SINKS,
    ], _campaign_run),
    (("campaign", "resume"), "resume a killed or failed campaign run from its ledger",
     ["run_id", *RUNTIME, *EVENT_SINKS], _campaign_resume),
    (("campaign", "status"), "show one run's stage states from its ledger",
     ["run_id", "--cache-dir"], _campaign_status),
    (("campaign", "list"), "list recorded campaign runs", ["--cache-dir"], _campaign_list),
    (("campaign", "watch"), "live view of a (possibly still running) campaign, projected "
     "from its ledger tail", ["run_id", "--cache-dir", "--interval", "--once"],
     _campaign_watch),
    (("campaign", "report"), "render a run's report purely from its ledger and the result "
     "cache (byte-identical across invocations)",
     ["run_id", "--cache-dir", "--metrics-out"], _campaign_report),
    (("fleet",), "work-stealing fleet execution over a shared filesystem spool", [], None),
    (("fleet", "worker"), "drain jobs from a spool directory (crash-tolerant)", [
        "spool_dir", "--wait", "--idle-timeout", "--max-jobs", "--lease-timeout",
        "--poll-interval", "--quiet",
    ], _fleet_worker),
    (("fleet", "status"), "show a spool's pending/active/result counts", ["spool_dir"],
     _fleet_status),
    (("fleet", "stop"), "ask waiting workers on a spool to exit (place a stop marker)",
     ["spool_dir", "--clear"], _fleet_stop),
    (("cache",), "inspect and maintain the content-addressed artifact store", [], None),
    (("cache", "stats"), "entry counts and bytes, total and per namespace", ["--cache-dir"],
     _cache_stats),
    (("cache", "verify"), "integrity sweep: check every entry's stored payload bytes "
     "against its hash; exit 1 if corrupt entries remain", ["--cache-dir", "--prune"], _cache_verify),
    (("cache", "gc"), "sweep schema-stale and corrupt entries (already read as misses)",
     ["--cache-dir", "--drop-unreferenced"], _cache_gc),
    (("cache", "export"), "write verified entries to a portable result bundle (tar.gz)", [
        "--cache-dir", "bundle",
        ("--run-id", dict(help="restrict to the job hashes one campaign run recorded finished")),
        "--no-payloads",
    ], _cache_export),
    (("cache", "import"), "merge a bundle into this store (every member integrity-verified "
     "first)", ["--cache-dir", "bundle"], _cache_import),
    (("serve",), "run the solver service: a long-lived JSON-over-HTTP front door "
     "on one warm runner (idempotent hash-keyed tickets, request "
     "coalescing, rate limits and queue backpressure)",
     ["--host", "--port", "--rate", "--burst", "--max-pending", *RUNTIME], _run_serve),
    (("client",), "talk to a running solver service ('msropm serve')", [], None),
    (("client", "submit"), "submit a solve or scenarios batch; prints one ticket per job", [
        *CLIENT, "--scenario-families", "--rows",
        ("--graph", dict(help="server-side DIMACS .col path instead of a board")),
        "--colors", "--iterations", ("--seed", dict(default=None)), "--precision",
        ("--wait", dict(help="block until every ticket is terminal")), "--timeout",
    ], _client_submit),
    (("client", "poll"), "show one ticket's state", [*CLIENT, "ticket"],
     lambda args: _print_json(_service_client(args).poll(args.ticket))),
    (("client", "fetch"), "print a finished ticket's result payload as JSON", [*CLIENT, "ticket"],
     lambda args: _print_json(_service_client(args).fetch(args.ticket)["result"])),
    (("client", "stats"), "print the service's runner/admission counters as JSON", CLIENT,
     lambda args: _print_json(_service_client(args).stats())),
    (("dev",), "developer tooling: the repro-lint static analyzer", [], None),
    (("dev", "lint"), "run the invariant checkers (determinism, schema-hash coupling, "
     "atomicity, hot-path discipline); exit 1 on findings",
     ["--format", "--rule", "--root"], _dev_lint),
    (("dev", "regen-manifest"), "recompute devtools/schema_manifest.json after a schema change "
     "and its version bump", ["--force", "--check", "--root"],
     _dev_regen_manifest),
]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``msropm`` command from ``COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="msropm",
        description="Multi-stage ring-oscillator Potts machine (DATE 2025 reproduction)",
    )
    parsers = {(): parser}
    subparsers: dict = {}
    for path, help_text, flags, handler in COMMANDS:
        group = path[:-1]
        if group not in subparsers:
            subparsers[group] = parsers[group].add_subparsers(
                dest="_".join((*group, "command")), required=True
            )
        sub = parsers[path] = subparsers[group].add_parser(path[-1], help=help_text)
        if handler is not None:
            sub.set_defaults(handler=handler)
        for flag in flags:
            name, overrides = (flag, {}) if isinstance(flag, str) else flag
            sub.add_argument(name, **{**FLAGS[name], **overrides})
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``msropm`` command."""
    args = build_parser().parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout early (`msropm table2 | head -3`): a normal
        # end.  Stdout goes to devnull so the exit-time flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ReproError as error:
        # Library errors (bad flag values, unknown run ids, failed jobs) end in
        # one line, not a traceback; any other exception is a bug and propagates.
        print(f"msropm: error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - manual invocation path
    sys.exit(main())
