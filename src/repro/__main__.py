"""Command-line entry point: ``python -m repro <command>``.

Scenario subcommands (the declarative path — :mod:`repro.scenarios`):

* ``run <id|file.json>`` — run a registered scenario or a scenario JSON
  file (any kind: steady sweeps, the case study, transient RC step
  responses, nonlinear k(T) fixed points); with ``--store DIR`` finished
  runs become content-addressed artifacts and re-running an unchanged
  spec is a store hit, not a solve; ``--progress json`` streams one JSON
  event per completed plan node on stderr;
* ``list`` — show the registered scenarios (with their kind, so mixed
  registries stay legible);
* ``batch <dir>`` — compile every scenario file in a directory into one
  merged execution plan (shared calibration/reference/sweep points are
  solved once; sweep points fan out over ``--jobs`` workers), skipping
  runs already in the store; ``--resume`` continues an interrupted batch
  from its stored points;
* ``fleet <id|file.json> [...]`` — run scenarios across ``--workers N``
  cooperating OS processes sharing one ``--store``: every node is solved
  exactly once under a lease claim, peers read each other's results back
  from the point space, and a killed worker's leases expire and its
  nodes reschedule on the survivors (see
  :mod:`repro.scenarios.fleet`);
* ``fsck <dir>`` — scrub a run store for damage, ``--repair`` heals it
  (see :mod:`repro.scenarios.fsck`).

The paper's results have aliases: ``python -m repro fig4 …`` (also
``fig5``, ``fig6``, ``fig7``, ``table1``, ``case_study``) is ``run fig4 …``
with the same flags, and ``all`` runs those six as one batch (shared
points are solved once) and, with ``--output-dir``, renders
EXPERIMENTS.md.
"""

from __future__ import annotations

import os

# One BLAS thread per CLI process: the engine parallelises over processes
# (``--jobs`` pools, fleet workers), which inherit this environment, and
# OpenBLAS threads in each of them would oversubscribe the CPUs.  It must
# be set before anything imports numpy (``import repro`` loads none); a
# value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import signal
import sys
from pathlib import Path

from .analysis.report import format_table
from .errors import DrainError
from .perf.retry import RetryPolicy
from .scenarios import SCENARIOS, ScenarioSpec
from .scenarios.drain import DrainGuard, drain_exit_code
from .scenarios.lease import DEFAULT_TTL_S
from .scenarios.results import ExperimentResult
from .scenarios.runner import run_batch
from .scenarios.store import RunStore

# Commands import what only they use (the fleet driver, fsck, the report
# renderer, the process pool of --jobs N) when they run: a store-hit
# ``run`` stays free of numpy, the executors and the solver stack.

#: the paper's results, in EXPERIMENTS.md order: each id is a command that
#: means ``run <id>``, and ``all`` runs them as one batch
_PAPER_ALIASES = ("fig4", "fig5", "fig6", "fig7", "table1", "case_study")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < float("inf"):  # also false for nan
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _directory(text: str) -> Path:
    """A directory path that may not exist yet, but is no regular file."""
    path = Path(text)
    if path.exists() and not path.is_dir():
        raise argparse.ArgumentTypeError(f"{text} exists and is not a directory")
    return path


def _add_solve_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of every command that solves: ``fleet`` and the run flags."""
    parser.add_argument(
        "--fast", action="store_true", help="reduced sweeps (CI-speed)"
    )
    parser.add_argument(
        "--fem-resolution",
        default=None,
        choices=["coarse", "medium", "fine"],
        help="mesh preset for the FEM reference (default: the spec's own)",
    )
    parser.add_argument(
        "--no-calibrate",
        action="store_true",
        help="skip the recalibrated Model A variant",
    )
    parser.add_argument(
        "--max-retries",
        type=_non_negative_int,
        default=2,
        metavar="N",
        help="how many times a transiently-failed plan node is "
        "re-dispatched before being quarantined (default 2; 0 "
        "quarantines on first failure)",
    )
    parser.add_argument(
        "--node-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-node wall-clock budget; a node exceeding it counts "
        "as a transient failure and is retried (scaled by member "
        "count for stacked units; default: unbounded)",
    )


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The flag set of ``run``, ``batch``, the paper aliases and ``all``."""
    _add_solve_flags(parser)
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes per sweep (default 1 = serial; results are "
        "identical either way)",
    )
    parser.add_argument(
        "--output-dir",
        type=_directory,
        default=None,
        help="also write JSON payloads here (payload + spec; 'all' adds "
        "EXPERIMENTS.md)",
    )
    parser.add_argument(
        "--store",
        type=_directory,
        default=None,
        metavar="DIR",
        help="content-addressed run store: artifacts land here and "
        "re-running an unchanged scenario is a store hit, not a solve",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="reuse point-level artifacts (points/<key>.json) from an "
        "interrupted earlier run instead of re-solving them (needs a "
        "store)",
    )
    parser.add_argument(
        "--progress",
        choices=["bar", "json"],
        default="bar",
        help="execution-plan progress on stderr: 'bar' (default) is the "
        "live one-line counter; 'json' emits one JSON event per "
        "completed plan node (kind, key, solved/store provenance, "
        "elapsed seconds)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Run declarative scenarios ('run', 'list', 'batch', 'fleet'), "
            "scrub a run store ('fsck'), or regenerate the DATE 2011 TTSV "
            "paper's tables and figures (fig4..case_study are aliases of "
            "'run <id>'; 'all' runs them as one batch)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    run_p = sub.add_parser(
        "run",
        help="run a registered scenario id or a scenario JSON file",
        description="Run one scenario through the registry/run-store path.",
    )
    run_p.add_argument(
        "target", help="a registered scenario id (see 'list') or a JSON spec file"
    )
    _add_run_flags(run_p)

    sub.add_parser(
        "list",
        help="list the registered scenarios",
        description="Show every scenario in the registry.",
    )

    batch_p = sub.add_parser(
        "batch",
        help="run every scenario JSON file in a directory, store-deduplicated",
        description=(
            "Run every *.json scenario in a directory; runs already present "
            "in the store are skipped (served from their stored artifact)."
        ),
    )
    batch_p.add_argument(
        "directory", type=Path, help="directory containing scenario *.json files"
    )
    _add_run_flags(batch_p)

    fleet_p = sub.add_parser(
        "fleet",
        help="run scenarios across N cooperating worker processes",
        description=(
            "Run scenarios across --workers cooperating OS processes sharing "
            "one --store.  Workers claim plan nodes through lease files, "
            "read each other's results back from the point space, and steal "
            "a dead worker's expired claims — every node is solved exactly "
            "once, byte-identically to a single-process run."
        ),
    )
    fleet_p.add_argument(
        "targets",
        nargs="+",
        metavar="target",
        help="registered scenario ids (see 'list') and/or JSON spec files",
    )
    fleet_p.add_argument(
        "--workers",
        type=_positive_int,
        default=4,
        metavar="N",
        help="cooperating worker processes (default 4)",
    )
    fleet_p.add_argument(
        "--store",
        type=_directory,
        required=True,
        metavar="DIR",
        help="the shared run store (the fleet's coordination plane); more "
        "fleets/processes may point at the same directory concurrently",
    )
    fleet_p.add_argument(
        "--lease-ttl",
        type=_positive_float,
        default=DEFAULT_TTL_S,
        metavar="SECONDS",
        help="claim lifetime before an unrenewed lease is considered dead "
        f"and stolen (default {DEFAULT_TTL_S:g}s)",
    )
    _add_solve_flags(fleet_p)
    fleet_p.add_argument(
        "--supervise",
        action="store_true",
        help="self-healing mode: respawn crashed or heartbeat-silent "
        "workers (with crash-loop backoff; respawned workers resume from "
        "the store); graceful drains are never respawned",
    )
    fleet_p.add_argument(
        "--max-respawns",
        type=_non_negative_int,
        default=3,
        metavar="N",
        help="respawn budget per rank under --supervise (default 3)",
    )
    fleet_p.add_argument(
        "--stall",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="under --supervise, kill-and-respawn a worker whose heartbeat "
        "is older than this (default: stall detection off)",
    )
    fleet_p.add_argument(
        "--deadline",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="terminate the whole run after this long, supervised or not "
        "(default: unbounded)",
    )

    fsck_p = sub.add_parser(
        "fsck",
        help="scrub a run store for damage (corrupt or mis-filed data)",
        description=(
            "Walk every space of a run store and verify it end-to-end: "
            "envelope checksums, shard placement, lease health.  Exits non-zero when damage is found (notes such "
            "as expired claims or tmp litter are reported but are not "
            "damage); --repair heals everything in place."
        ),
    )
    fsck_p.add_argument(
        "directory", type=Path, help="the run-store directory to scrub"
    )
    fsck_p.add_argument(
        "--repair",
        action="store_true",
        help="heal the damage: delete corrupt artifacts (they re-solve on "
        "resume), re-shard mis-filed artifacts, clear expired claims and "
        "litter",
    )

    for exp_id in _PAPER_ALIASES:
        alias_p = sub.add_parser(exp_id, help=f"alias of 'run {exp_id}'")
        _add_run_flags(alias_p)
        alias_p.set_defaults(target=exp_id)
    all_p = sub.add_parser(
        "all",
        help="run every paper result as one batch",
        description=(
            f"Run {', '.join(_PAPER_ALIASES)} as one merged plan; with "
            "--output-dir also write their payloads and EXPERIMENTS.md."
        ),
    )
    _add_run_flags(all_p)
    return parser


def _print_result(result) -> None:
    if isinstance(result, ExperimentResult):
        print(result.title)
        print()
        print(result.table_text())
        print()
        print(format_table(result.error_rows()))
        print()
        print(result.plot_text())
        if "table_rows" in result.metadata:
            print()
            print(format_table(result.metadata["table_rows"]))
    else:  # the case study (live or store-loaded) has its own shape
        print(result.title)
        print()
        print(format_table(result.rows(), float_format="{:.2f}"))


# ---------------------------------------------------------------------------
# scenario subcommands
# ---------------------------------------------------------------------------
class _JsonProgress:
    """``--progress json``: one JSON event line per completed plan node.

    Each line is a self-contained object — ``{"event": "node", "kind":
    ..., "key": ..., "source": "solved|store", "done": n, "total":
    m, "elapsed_s": ...}`` — written to stderr the moment the node lands,
    so a dashboard (or the future service front-end) can tail the stream
    instead of scraping the human progress line.
    """

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def __call__(self, event: dict) -> None:
        self._counts[event["source"]] = self._counts.get(event["source"], 0) + 1
        payload = {
            "event": "node",
            "kind": event["kind"],
            "key": event["key"],
            "source": event["source"],
            "done": event["done"],
            "total": event["total"],
            "elapsed_s": event.get("elapsed_s"),
        }
        if "dispatch" in event:
            # freshly solved nodes carry their dispatch shape:
            # point | group (multi-RHS) | stacked (cross-matrix batch)
            payload["dispatch"] = event["dispatch"]
        print(
            json.dumps(payload, sort_keys=False),
            file=sys.stderr,
            flush=True,
        )

    def close(self) -> None:
        if self._counts:
            print(
                json.dumps({"event": "done", "counts": self._counts}),
                file=sys.stderr,
                flush=True,
            )


def _make_progress(args: argparse.Namespace):
    return _JsonProgress() if args.progress == "json" else _PlanProgress()


def _retry_policy(args: argparse.Namespace) -> RetryPolicy:
    """The CLI's fault-tolerance policy (attempts = first try + retries)."""
    return RetryPolicy(
        max_attempts=args.max_retries + 1, node_timeout_s=args.node_timeout
    )


def _drain_notice(exc: DrainError, store: Path | None) -> None:
    """The resume hint printed when a run/batch drains on a signal."""
    name = signal.Signals(exc.signum).name
    print(
        f"\ndrained on {name}: completed plan nodes are committed, "
        "in-flight leases were released",
        file=sys.stderr,
    )
    if store is not None:
        print(
            f"resume with: the same command plus --store {store} --resume",
            file=sys.stderr,
        )
    else:
        print(
            "no --store was given, so there are no stored points to resume "
            "from",
            file=sys.stderr,
        )


def _print_failures(failures) -> None:
    """The nonzero-exit quarantine table (stderr)."""
    print(
        f"\n{len(failures)} plan node(s) exhausted their retry budget and "
        "were quarantined:",
        file=sys.stderr,
    )
    rows: list[list[object]] = [["node", "kind", "error", "attempts", "message"]]
    for f in failures:
        key = f.key if len(f.key) <= 20 else f.key[:17] + "..."
        message = f.message if len(f.message) <= 48 else f.message[:45] + "..."
        rows.append([key, f.kind, f.error_class, f.attempts, message])
    print(format_table(rows), file=sys.stderr)
    print(
        "re-run with --store/--resume to re-attempt only the quarantined "
        "points; completed points are kept",
        file=sys.stderr,
    )


class _PlanProgress:
    """Live ``\\r``-updating execution-plan progress on stderr."""

    def __init__(self) -> None:
        self._printed = False
        self._counts = {"solved": 0, "store": 0, "failed": 0}

    def __call__(self, event: dict) -> None:
        self._counts[event["source"]] = self._counts.get(event["source"], 0) + 1
        failed = (
            f", failed {self._counts['failed']}"
            if self._counts.get("failed")
            else ""
        )
        print(
            f"\r[plan] {event['done']}/{event['total']} nodes "
            f"(solved {self._counts['solved']}, "
            f"resumed {self._counts['store']}{failed})",
            end="",
            file=sys.stderr,
            flush=True,
        )
        self._printed = True

    def close(self) -> None:
        if self._printed:
            print(file=sys.stderr)


def _execute(args: argparse.Namespace, specs: list, store: RunStore | None):
    """Run ``specs`` as one plan under the shared run flags.

    Returns the :class:`~repro.scenarios.runner.BatchRun`, or the exit
    code when a shutdown signal drained the run.
    """
    if args.resume and store is None:
        print("note: --resume needs a --store; ignored", file=sys.stderr)
    executor = None  # run_batch's default: serial, in this process
    if args.jobs > 1:
        from .perf.executors import get_executor

        executor = get_executor(args.jobs)
    progress = _make_progress(args)
    guard = DrainGuard()
    try:
        with guard.installed():
            batch = run_batch(
                specs,
                executor=executor,
                store=store,
                resume=args.resume,
                fast=args.fast,
                fem_resolution=args.fem_resolution,
                calibrate=False if args.no_calibrate else None,
                progress=progress,
                retry=_retry_policy(args),
                drain=guard,
            )
    except DrainError as exc:
        progress.close()
        _drain_notice(exc, store.root if store is not None else None)
        return drain_exit_code(exc.signum)
    progress.close()
    return batch


def _print_run(run) -> None:
    source = "served from run store" if run.from_store else "solved"
    print(f"[{run.spec.scenario_id}] {source} (key {run.key})")
    print()
    _print_result(run.result)


def _write_outputs(output_dir: Path, run) -> None:
    """``--output-dir``: the run's JSON payload and its resolved spec."""
    from .analysis.export import export_json

    output_dir.mkdir(parents=True, exist_ok=True)
    scenario_id = run.spec.scenario_id
    export_json(output_dir / f"{scenario_id}.json", run.result.to_payload())
    run.spec.dump(output_dir / f"{scenario_id}.spec.json")


def _load_target(target: str) -> ScenarioSpec | None:
    """A registered scenario id or a JSON spec file; None (after printing
    the error) when it is neither."""
    if target in SCENARIOS:
        return SCENARIOS.get(target)
    path = Path(target)
    if not path.exists():
        print(
            f"error: {target!r} is neither a registered scenario id nor an "
            f"existing file; see 'python -m repro list'",
            file=sys.stderr,
        )
        return None
    return _load_spec(path)


def _load_spec(path: Path) -> ScenarioSpec | None:
    """The scenario in a JSON file; None (after printing the error) when
    the file does not hold a valid one."""
    try:
        return ScenarioSpec.load(path)
    except (OSError, TypeError, ValueError) as exc:
        print(f"error: {path} is not a valid scenario: {exc}", file=sys.stderr)
        return None


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_target(args.target)
    if spec is None:
        return 2
    batch = _execute(args, [spec], RunStore(args.store) if args.store else None)
    if isinstance(batch, int):
        return batch
    (run,) = batch.runs
    if run.failed:
        print(f"[{run.spec.scenario_id}] FAILED (key {run.key})")
        _print_failures(run.failures)
        return 3
    _print_run(run)
    if args.output_dir:
        _write_outputs(args.output_dir, run)
        print(f"\npayload and spec written to {args.output_dir}")
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    """Every paper result as one batch; ``--output-dir`` adds EXPERIMENTS.md."""
    batch = _execute(
        args, list(_PAPER_ALIASES), RunStore(args.store) if args.store else None
    )
    if isinstance(batch, int):
        return batch
    results = {}
    for run in batch.runs:
        print()
        if run.failed:
            print(f"[{run.spec.scenario_id}] FAILED (key {run.key})")
            continue
        _print_run(run)
        results[run.spec.scenario_id] = run.result
        if args.output_dir:
            _write_outputs(args.output_dir, run)
    if args.output_dir:
        from .experiments.runner import render_markdown

        args.output_dir.mkdir(parents=True, exist_ok=True)
        (args.output_dir / "EXPERIMENTS.md").write_text(render_markdown(results))
        print(f"\nreports written to {args.output_dir}")
    if batch.failures:
        _print_failures(batch.failures)
        return 3
    return 0


def _cmd_list() -> int:
    rows: list[list[object]] = [["id", "kind", "axis", "points", "physics", "title"]]
    for spec in SCENARIOS.specs():
        if spec.kind == "transient":
            physics = (
                f"t_end={spec.transient.t_end_s:g}s x{spec.transient.n_steps}"
            )
        elif spec.kind == "nonlinear":
            physics = f"slope x{spec.nonlinear.slope_scale:g}"
        elif spec.kind == "sweep":
            physics = f"ref {spec.reference}"
        else:
            physics = "-"
        # physics kinds run one base-geometry point when they have no axis;
        # only the opaque case study has no point count at all
        points = (
            len(spec.axis.values)
            if spec.axis
            else (1 if spec.kind in ("transient", "nonlinear") else "-")
        )
        rows.append(
            [
                spec.scenario_id,
                spec.kind,
                spec.axis.parameter if spec.axis else "-",
                points,
                physics,
                spec.title,
            ]
        )
    print(format_table(rows))
    print(
        "\nrun one with: python -m repro run <id>   "
        "(or point 'run'/'batch' at scenario JSON files)"
    )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    directory: Path = args.directory
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 2
    files = sorted(directory.glob("*.json"))
    if not files:
        print(f"error: no scenario *.json files in {directory}", file=sys.stderr)
        return 2
    specs = [_load_spec(path) for path in files]
    if any(spec is None for spec in specs):
        return 2
    store = RunStore(args.store if args.store else directory / "runs")
    batch = _execute(args, specs, store)
    if isinstance(batch, int):
        return batch
    solved = hits = failed = 0
    for path, run in zip(files, batch.runs):
        if run.failed:
            failed += 1
            tag = "FAILED"
        elif run.from_store:
            hits += 1
            tag = "store hit"
        else:
            solved += 1
            tag = "solved"
        print(f"[{run.spec.scenario_id}] {tag:9s} {path.name} -> {run.key}")
        if args.output_dir and not run.failed:
            _write_outputs(args.output_dir, run)
    stats = batch.stats
    if stats.get("nodes_total"):
        print(
            f"\nplan: {stats['nodes_total']} nodes "
            f"({stats.get('nodes_deduped', 0)} deduplicated across scenarios); "
            f"{stats.get('solved', 0)} solved, {stats.get('store', 0)} resumed "
            f"from point store"
        )
    print(
        f"\n{len(files)} scenario(s): {solved} solved, {hits} served from "
        f"store"
        + (f", {failed} failed" if failed else "")
        + f"; artifacts in {store.root}"
        + (f"; payloads in {args.output_dir}" if args.output_dir else "")
    )
    if batch.failures:
        _print_failures(batch.failures)
        return 3
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    specs = [_load_target(target) for target in args.targets]
    if any(spec is None for spec in specs):
        return 2
    from .scenarios.fleet import run_fleet

    outcome = run_fleet(
        specs,
        store=args.store,
        workers=args.workers,
        fast=args.fast,
        fem_resolution=args.fem_resolution,
        calibrate=False if args.no_calibrate else None,
        ttl_s=args.lease_ttl,
        retry=_retry_policy(args),
        supervise=args.supervise,
        max_respawns=args.max_respawns,
        stall_timeout_s=args.stall,
        deadline_s=args.deadline,
    )
    by_rank = {report.rank: report for report in outcome.reports}
    for rank, code in enumerate(outcome.exit_codes):
        report = by_rank.get(rank)
        if report is None:
            print(f"[worker {rank}] died (exit {code}); claims rescheduled")
            continue
        solves = report.counters.get("plan_point_solves", 0)
        steals = report.counters.get("lease_steals", 0)
        detail = f"{solves} node(s) solved"
        if steals:
            detail += f", {steals} claim(s) stolen from dead peers"
        if report.drained is not None:
            status = f"drained on signal {report.drained}"
        else:
            status = "ok" if report.ok else (report.error or "quarantined nodes")
        print(f"[worker {rank}] exit {code}: {detail} ({status})")
    for event in outcome.respawns:
        print(
            f"[supervisor] respawned rank {event['rank']} "
            f"(#{event['respawn']}, {event['reason']}, prior exit "
            f"{event['exit_code']}) at t+{event['at_s']:.1f}s"
        )
    if outcome.deadline_exceeded:
        print(
            f"[fleet] whole-run deadline of {args.deadline:g}s "
            "exceeded; workers terminated",
            file=sys.stderr,
        )
    total = outcome.counters.get("plan_point_solves", 0)
    print(
        f"\nfleet of {args.workers}: {total} node(s) solved exactly once; "
        f"store {'complete' if outcome.complete else 'INCOMPLETE'} at "
        f"{outcome.store_root}"
    )
    if not outcome.complete:
        print(
            "re-run the same command to resume from the stored points",
            file=sys.stderr,
        )
        return 3
    return 0 if outcome.ok else 3


def _cmd_fsck(args: argparse.Namespace) -> int:
    directory: Path = args.directory
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 2
    from .scenarios.fsck import scrub

    report = scrub(directory, repair=args.repair)
    print(report.table())
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # env-armed laggy-filesystem shim (chaos soak / NFS-semantics drills)
    from . import fsshim

    fsshim.activate_from_env()
    args = build_parser().parse_args(argv)
    if args.command in ("run", *_PAPER_ALIASES):
        return _cmd_run(args)
    if args.command == "all":
        return _cmd_all(args)
    if args.command == "list":
        return _cmd_list()
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    return _cmd_fsck(args)


if __name__ == "__main__":
    sys.exit(main())
