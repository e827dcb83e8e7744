"""The fleet driver: N cooperating worker processes on one shared store.

:func:`run_fleet` forks ``workers`` OS processes, each of which runs the
full :func:`~repro.scenarios.runner.run_batch` against the same
:class:`~repro.scenarios.store.RunStore` under a
:class:`~repro.scenarios.lease.LeaseManager`.  No work queue and no
coordinator process exist: the *store* is the coordination plane.  Every
worker compiles the identical plan, claims dispatch units through the
``leases/`` space, reads peers' results back from the ``points/``
space, and assembles every scenario's run-level artifact
(deterministic, so concurrent writes are idempotent).  A worker claims
one unit at a time: it solves and commits a unit before it claims the
next, so the workers share each wave, and a stacked unit still claims
whole, so the stacked tier survives distribution.

Coordinating through the store alone makes the driver optional —
pointing N independent ``python -m repro fleet`` (or even ``run
--resume``) invocations at one store directory cooperates exactly the
same way — and makes worker death a non-event: a dead worker's leases
expire, survivors steal its nodes, and nothing it completed is lost or
re-solved.

Each worker writes a report (``<store>/fleet/worker-<rank>.json``,
atomically — a killed worker leaves no torn report) with its perf
counters and per-scenario outcomes, plus heartbeats under
``<store>/fleet/heartbeats/<rank>.json``; :func:`run_fleet` aggregates
the reports into a :class:`FleetOutcome`.  The summed
``plan_point_solves`` across reports equals the plan's node count when
no worker died — the fleet tests assert exactly that.

``supervise=True`` adds the self-healing layer
(:mod:`repro.scenarios.supervisor`): crashed or heartbeat-silent workers
are respawned with backoff and resume from the store, graceful drains
(SIGTERM/SIGINT — :mod:`repro.scenarios.drain`) are honoured and never
respawned.  An optional whole-run deadline bounds the worst case with or
without supervision.

``extra_env`` injects per-rank environment overrides into the children
before any work starts; the fault matrix uses it to arm a
``lease``-site crash in one worker only (rate 1.0), killing it the
moment it holds claims — the canonical expiry-and-takeover drill.  A
``worker-start`` delay armed in the other ranks holds them back until
that rank has claimed, so the drill does not depend on which worker the
OS schedules first.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .. import faults, fsshim, perf
from .._lazy import import_solver_stack
from ..errors import DrainError, ValidationError
from ..perf.retry import DEFAULT_RETRY, RetryPolicy
from .drain import DrainGuard, drain_exit_code
from .lease import DEFAULT_TTL_S, LeaseManager
from .runner import resolve_specs, run_batch
from .spec import ScenarioSpec
from .store import RunStore, _write_json_atomic
from .supervisor import HeartbeatWriter, Supervisor, stop_worker

__all__ = ["FleetOutcome", "WorkerReport", "run_fleet"]

FLEET_DIR = "fleet"

#: exit codes a worker reports through its process status
EXIT_OK = 0
EXIT_FAILED_NODES = 3  # the batch completed but quarantined nodes
EXIT_ERROR = 4  # the worker's run_batch raised


@dataclass(frozen=True)
class WorkerReport:
    """One worker's self-report, read back from its JSON artifact."""

    rank: int
    pid: int
    owner: str
    ok: bool
    error: str | None
    counters: dict[str, int]
    elapsed_s: float
    runs: tuple[dict[str, Any], ...]
    drained: int | None = None  # the signal a graceful drain honoured

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "WorkerReport":
        return cls(
            rank=int(payload["rank"]),
            pid=int(payload["pid"]),
            owner=str(payload["owner"]),
            ok=bool(payload["ok"]),
            error=payload.get("error"),
            counters={k: int(v) for k, v in payload.get("counters", {}).items()},
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
            runs=tuple(payload.get("runs", ())),
            drained=payload.get("drained"),
        )


@dataclass(frozen=True)
class FleetOutcome:
    """A finished fleet run: per-worker reports plus the aggregate view.

    ``complete`` means every requested scenario's run-level artifact is
    in the store — the fleet's actual contract; individual workers may
    have died (``exit_codes``) without affecting it.  ``counters`` sums
    the surviving workers' perf counters, so
    ``counters["plan_point_solves"]`` is the fleet-wide solve count the
    no-double-solve checks compare against the plan's node count.
    """

    store_root: Path
    reports: tuple[WorkerReport, ...]
    exit_codes: tuple[int | None, ...]
    complete: bool
    counters: dict[str, int] = field(default_factory=dict)
    #: supervision audit trail: one payload per respawn (supervised runs)
    respawns: tuple[dict[str, Any], ...] = ()
    #: True when the run hit its whole-run deadline
    deadline_exceeded: bool = False

    @property
    def ok(self) -> bool:
        return self.complete and all(code == EXIT_OK for code in self.exit_codes)


def _report_path(root: Path, rank: int) -> Path:
    return root / FLEET_DIR / f"worker-{rank}.json"


def read_reports(root: Path, workers: int) -> list[WorkerReport]:
    """Every rank's report that survived the run, skipping the rest.

    A killed worker writes no report (``os._exit`` skips the finally
    block) and a worker dying mid-``os.replace`` on an exotic filesystem
    can leave a truncated or garbled one; neither may poison the fleet
    aggregation — the missing rank's exit code already tells the story.
    """
    reports = []
    for rank in range(workers):
        path = _report_path(root, rank)
        try:
            reports.append(
                WorkerReport.from_payload(json.loads(path.read_text()))
            )
        except (
            OSError,
            json.JSONDecodeError,
            KeyError,
            ValueError,
            # a garbled report can parse to a non-dict, or to a dict
            # whose fields have the wrong shape — from_payload then
            # raises these rather than the JSON/key errors above
            TypeError,
            AttributeError,
        ):
            continue
    return reports


def _worker_main(
    rank: int,
    store_root: str,
    spec_dicts: list[dict[str, Any]],
    *,
    resume: bool,
    fast: bool,
    ttl_s: float,
    poll_s: float,
    retry: RetryPolicy,
    env: Mapping[str, str] | None,
) -> None:
    """One fleet worker: claim, solve, beat, read back, report, exit.

    Runs in a child process.  The exit code mirrors the CLI contract
    (0 ok, 3 quarantined nodes, 4 the run itself raised, ``128 +
    signum`` for a graceful drain); the report JSON carries the details
    either way.  Heartbeats land in the store's ``fleet/heartbeats/``
    space on every plan completion, so the supervisor can tell a slow
    worker from a dead or hung one.
    """
    if env:
        os.environ.update(env)
    # honour an inherited laggy-filesystem shim (chaos soak arms it
    # through the environment; a fresh ``spawn`` child starts unshimmed)
    fsshim.activate_from_env()
    start = time.perf_counter()
    specs = [ScenarioSpec.from_dict(d) for d in spec_dicts]
    store = RunStore(store_root)
    claims = LeaseManager(
        store, owner=f"w{rank}.pid{os.getpid()}", ttl_s=ttl_s
    )
    guard = DrainGuard()
    guard.install()
    beats = HeartbeatWriter(store.root, rank)
    beats.beat(force=True)  # visible before the first (possibly slow) solve
    if faults.active():
        faults.inject("worker-start", f"rank{rank}")

    def progress(event: dict[str, Any]) -> None:
        beats.beat(
            claim=event.get("key"),
            held=len(claims.held),
            done=event.get("done"),
            total=event.get("total"),
        )

    perf.reset()
    ok, error, runs, drained = False, None, [], None
    try:
        # the specs are pre-resolved by the parent; ``fast`` is passed
        # anyway so the assembled metadata matches a single-process
        # ``run_batch(..., fast=...)`` byte for byte
        batch = run_batch(
            list(specs),
            store=store,
            resume=resume,
            fast=fast,
            claims=claims,
            poll_s=poll_s,
            retry=retry,
            progress=progress,
            drain=guard,
        )
        ok = not any(run.failed for run in batch.runs)
        runs = [
            {
                "scenario_id": run.spec.scenario_id,
                "key": run.key,
                "from_store": run.from_store,
                "failed": run.failed,
            }
            for run in batch.runs
        ]
    except DrainError as exc:
        drained = exc.signum
    except Exception as exc:  # noqa: BLE001 — the report is the channel
        error = f"{type(exc).__name__}: {exc}"
    finally:
        claims.release_all()
        payload = {
            "rank": rank,
            "pid": os.getpid(),
            "owner": claims.owner,
            "ok": ok,
            "error": error,
            "drained": drained,
            "counters": perf.stats()["counters"],
            "elapsed_s": time.perf_counter() - start,
            "runs": runs,
        }
        path = _report_path(store.root, rank)
        path.parent.mkdir(exist_ok=True)
        # atomic: a worker killed mid-report must leave the previous
        # (or no) report, never a truncated one
        _write_json_atomic(path, payload)
        beats.beat(force=True)
    if drained is not None:
        raise SystemExit(drain_exit_code(drained))
    raise SystemExit(
        EXIT_ERROR if error else (EXIT_OK if ok else EXIT_FAILED_NODES)
    )


def run_fleet(
    specs: list[ScenarioSpec | str],
    *,
    store: RunStore | str | Path,
    workers: int = 4,
    resume: bool = True,
    fast: bool = False,
    fem_resolution: str | None = None,
    calibrate: bool | None = None,
    ttl_s: float = DEFAULT_TTL_S,
    poll_s: float = 0.05,
    retry: RetryPolicy = DEFAULT_RETRY,
    extra_env: Mapping[int, Mapping[str, str]] | None = None,
    supervise: bool = False,
    max_respawns: int = 3,
    stall_timeout_s: float | None = None,
    deadline_s: float | None = None,
) -> FleetOutcome:
    """Run ``specs`` across ``workers`` cooperating processes.

    Specs are resolved in the parent (so every worker compiles the
    byte-identical plan) and shipped as dicts.  ``resume`` defaults to
    True — the store read-back *is* the inter-worker result channel, and
    it doubles as recovery from any earlier partial run.  ``extra_env``
    maps worker rank to environment overrides applied in that child
    before it starts (fault-injection cells use it to kill exactly one
    worker).  ``deadline_s`` bounds the whole run, supervised or not: on
    expiry every worker still alive is terminated, reported with its
    exit code, and the outcome reports ``deadline_exceeded``.

    ``supervise=True`` runs the workers under a
    :class:`~repro.scenarios.supervisor.Supervisor`: abnormally-dead
    workers are respawned (up to ``max_respawns`` per rank, with
    crash-loop backoff) and resume from the store; a worker alive but
    heartbeat-silent for ``stall_timeout_s`` is killed and respawned
    too.  Every respawn lands in :attr:`FleetOutcome.respawns`.
    """
    if workers < 1:
        raise ValidationError(f"fleet needs >= 1 worker, got {workers}")
    resolved = resolve_specs(
        specs, fast=fast, fem_resolution=fem_resolution, calibrate=calibrate
    )
    root = store.root if isinstance(store, RunStore) else Path(store)
    RunStore(root)  # materialise the layout before the children race on it
    for rank in range(workers):
        _report_path(root, rank).unlink(missing_ok=True)

    spec_dicts = [spec.to_dict() for spec in resolved]
    ctx = multiprocessing.get_context()
    # import the solver stack once, before the fork: every worker then
    # starts on its plan at once instead of importing it first, so no
    # worker lags the others by a whole import (and forked children
    # share the imported pages)
    import_solver_stack()

    def spawn(rank: int):
        proc = ctx.Process(
            target=_worker_main,
            args=(rank, str(root), spec_dicts),
            kwargs={
                "resume": resume,
                "fast": fast,
                "ttl_s": ttl_s,
                "poll_s": poll_s,
                "retry": retry,
                "env": dict((extra_env or {}).get(rank, {})),
            },
            name=f"repro-fleet-{rank}",
        )
        proc.start()
        return proc

    procs = [spawn(rank) for rank in range(workers)]

    respawn_events: tuple[dict[str, Any], ...] = ()
    deadline_exceeded = False
    if supervise:
        sup = Supervisor(
            root,
            spawn,
            max_respawns=max_respawns,
            stall_timeout_s=stall_timeout_s,
            deadline_s=deadline_s,
        )
        final = sup.run(dict(enumerate(procs)))
        exit_codes = [final[rank] for rank in range(workers)]
        respawn_events = tuple(e.to_payload() for e in sup.events)
        deadline_exceeded = sup.deadline_exceeded
    else:
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        exit_codes = []
        for proc in procs:
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            proc.join(remaining)
            if proc.is_alive():
                deadline_exceeded = True
                stop_worker(proc)
            exit_codes.append(proc.exitcode)

    reports = read_reports(root, workers)
    counters: dict[str, int] = {}
    for report in reports:
        for name, value in report.counters.items():
            counters[name] = counters.get(name, 0) + value

    # the fleet's contract is the store, not the processes: complete when
    # every requested scenario's run-level artifact landed
    final = RunStore(root)
    complete = all(final.get(spec.content_hash()) is not None for spec in resolved)
    return FleetOutcome(
        store_root=root,
        reports=tuple(reports),
        exit_codes=tuple(exit_codes),
        complete=complete,
        counters=counters,
        respawns=respawn_events,
        deadline_exceeded=deadline_exceeded,
    )
