"""Fleet supervision: heartbeats, dead/stuck detection, bounded respawn.

PR 8's fleet made worker death *survivable* — expired leases are stolen,
nothing completed is lost — but a dead worker stayed dead, so a fleet
could finish a run with one survivor doing everyone's work.  This module
adds the supervision layer:

* every fleet worker owns a :class:`HeartbeatWriter` and beats into
  ``<store>/fleet/heartbeats/<rank>.json`` — a small atomic JSON record
  carrying the worker's pid, a ``CLOCK_MONOTONIC`` stamp (comparable
  across processes on one machine, immune to wall-clock steps), its most
  recent claim, and progress counts;
* the :class:`Supervisor` (driven by ``run_fleet(..., supervise=True)``,
  CLI ``python -m repro fleet ... --supervise``) polls child processes
  and heartbeats.  A worker that *exited abnormally* (crash, signal) or
  *went silent* (no heartbeat within the stall timeout — a hung solve, a
  livelocked loop) is killed if needed and respawned with crash-loop
  backoff, up to ``max_respawns`` per rank.  Respawned workers resume
  from the store (``resume=True`` is the fleet default), so they re-join
  mid-run without re-solving anything;
* exits that are *deliberate* are never respawned: clean completion,
  completion with quarantined nodes (exit 3), and graceful drains
  (exit ``128 + signum`` or a raw SIGTERM/SIGINT death — see
  :func:`~repro.scenarios.drain.is_drain_exit`);
* an optional whole-run ``deadline_s`` bounds the entire supervised run:
  on expiry every worker is terminated and the fleet reports incomplete.

Every respawn is recorded as a :class:`RespawnEvent` and lands in the
fleet report, so a chaotic run leaves an audit trail of who died, why,
and how often.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Protocol

from ..perf import increment
from .drain import is_drain_exit

__all__ = [
    "HEARTBEAT_DIR",
    "Heartbeat",
    "HeartbeatWriter",
    "RespawnEvent",
    "Supervisor",
    "heartbeat_path",
    "read_heartbeat",
]

#: heartbeat files live under the store's fleet directory
HEARTBEAT_DIR = "fleet/heartbeats"

#: exit codes that mean "this worker finished on purpose" (no respawn):
#: clean, and completed-with-quarantined-nodes
_DELIBERATE_EXITS = (0, 3)


def heartbeat_path(root: str | Path, rank: int) -> Path:
    return Path(root) / HEARTBEAT_DIR / f"{rank}.json"


@dataclass(frozen=True)
class Heartbeat:
    """One parsed heartbeat record."""

    rank: int
    pid: int
    stamp: float  # CLOCK_MONOTONIC seconds at beat time
    wall_unix: float
    claim: str | None  # the worker's most recent claim / completed node
    held: int  # leases held at beat time
    done: int
    total: int

    def age_s(self) -> float:
        """Seconds since this beat, on the shared monotonic clock."""
        return max(0.0, time.monotonic() - self.stamp)


def read_heartbeat(root: str | Path, rank: int) -> Heartbeat | None:
    """Rank's latest heartbeat, or None (missing/torn reads as silent)."""
    try:
        payload = json.loads(heartbeat_path(root, rank).read_text())
        return Heartbeat(
            rank=int(payload["rank"]),
            pid=int(payload["pid"]),
            stamp=float(payload["stamp"]),
            wall_unix=float(payload.get("wall_unix", 0.0)),
            claim=payload.get("claim"),
            held=int(payload.get("held", 0)),
            done=int(payload.get("done", 0)),
            total=int(payload.get("total", 0)),
        )
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
        return None


class HeartbeatWriter:
    """The worker side: periodic atomic beats into the heartbeat file.

    ``beat`` is cheap enough to call on every progress event — it
    self-throttles to ``min_interval_s`` except when forced — and writes
    via rename so the supervisor never reads a torn record.
    """

    def __init__(
        self, root: str | Path, rank: int, *, min_interval_s: float = 0.2
    ) -> None:
        self.path = heartbeat_path(root, rank)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.rank = rank
        self.min_interval_s = min_interval_s
        self._last = 0.0
        self._claim: str | None = None
        self._held = 0
        self._done = 0
        self._total = 0

    def beat(
        self,
        *,
        claim: str | None = None,
        held: int | None = None,
        done: int | None = None,
        total: int | None = None,
        force: bool = False,
    ) -> None:
        if claim is not None:
            self._claim = claim
        if held is not None:
            self._held = held
        if done is not None:
            self._done = done
        if total is not None:
            self._total = total
        now = time.monotonic()
        if not force and now - self._last < self.min_interval_s:
            return
        self._last = now
        payload = {
            "rank": self.rank,
            "pid": os.getpid(),
            "stamp": now,
            "wall_unix": time.time(),
            "claim": self._claim,
            "held": self._held,
            "done": self._done,
            "total": self._total,
        }
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(payload) + "\n")
            os.replace(tmp, self.path)
        except OSError:
            # a failed beat must never kill the worker it describes
            tmp.unlink(missing_ok=True)


@dataclass(frozen=True)
class RespawnEvent:
    """One supervision action, for the fleet report's audit trail."""

    rank: int
    reason: str  # "crash" (abnormal exit) or "stall" (silent heartbeat)
    exit_code: int | None  # the dead incarnation's exit code
    respawn: int  # 1-based respawn count for this rank
    at_s: float  # seconds since supervision started

    def to_payload(self) -> dict[str, Any]:
        return {
            "rank": self.rank,
            "reason": self.reason,
            "exit_code": self.exit_code,
            "respawn": self.respawn,
            "at_s": round(self.at_s, 3),
        }


class _WorkerProcess(Protocol):  # the multiprocessing.Process surface used
    pid: int | None
    exitcode: int | None

    def is_alive(self) -> bool: ...
    def join(self, timeout: float | None = None) -> None: ...
    def terminate(self) -> None: ...
    def kill(self) -> None: ...


class Supervisor:
    """Watch a fleet's workers; kill the stuck, respawn the dead.

    ``spawn(rank)`` must return a *started* worker process for that
    rank; the supervisor owns every process lifecycle from then on.
    ``max_respawns`` bounds respawns per rank; crash-loop backoff
    (``backoff_s * 2^(respawn-1)``, capped at ``max_backoff_s``) spaces
    them out so a deterministic instant crash cannot hot-loop.  A rank
    is declared *stalled* when its process is alive but its heartbeat is
    older than ``stall_timeout_s`` (None disables stall detection).  A
    beat that *predates the incarnation's spawn* — the previous
    incarnation's leftover file — counts as absent, so every fresh
    (re)spawn gets the full stall timeout as grace before its first
    beat, the same grace a rank that has never beaten gets.
    ``deadline_s`` bounds the whole supervised run.
    """

    def __init__(
        self,
        root: str | Path,
        spawn: Callable[[int], _WorkerProcess],
        *,
        max_respawns: int = 3,
        stall_timeout_s: float | None = None,
        deadline_s: float | None = None,
        backoff_s: float = 0.5,
        max_backoff_s: float = 10.0,
        poll_s: float = 0.2,
    ) -> None:
        self.root = Path(root)
        self.spawn = spawn
        self.max_respawns = max_respawns
        self.stall_timeout_s = stall_timeout_s
        self.deadline_s = deadline_s
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self.poll_s = poll_s
        self.events: list[RespawnEvent] = []
        self.deadline_exceeded = False

    def _kill(self, proc: _WorkerProcess) -> None:
        proc.terminate()
        proc.join(2.0)
        if proc.is_alive():
            proc.kill()
            proc.join(2.0)

    def _stalled(self, rank: int, started_at: float) -> bool:
        if self.stall_timeout_s is None:
            return False
        beat = read_heartbeat(self.root, rank)
        if beat is None or beat.stamp < started_at:
            # never beaten *by this incarnation*: a leftover heartbeat
            # from the previous one must not condemn a fresh respawn
            # before its first beat — grant the stall timeout from
            # (re)spawn time instead
            return time.monotonic() - started_at > self.stall_timeout_s
        return beat.age_s() > self.stall_timeout_s

    def run(self, procs: dict[int, _WorkerProcess]) -> dict[int, int | None]:
        """Supervise ``procs`` (rank -> started process) to completion.

        Returns each rank's *final* exit code (the last incarnation's).
        """
        start = time.monotonic()
        spawned_at = {rank: start for rank in procs}
        respawns: dict[int, int] = {rank: 0 for rank in procs}
        final: dict[int, int | None] = {rank: None for rank in procs}
        #: ranks whose story is over (finished, drained, or budget spent)
        retired: set[int] = set()
        #: pending respawns: rank -> (not-before monotonic time, reason, code)
        pending: dict[int, tuple[float, str, int | None]] = {}

        def schedule_respawn(rank: int, reason: str, code: int | None) -> None:
            respawns[rank] += 1
            if respawns[rank] > self.max_respawns:
                # budget spent: the rank stays dead, survivors absorb it
                retired.add(rank)
                final[rank] = code
                return
            delay = min(
                self.backoff_s * 2.0 ** (respawns[rank] - 1),
                self.max_backoff_s,
            )
            pending[rank] = (time.monotonic() + delay, reason, code)

        while True:
            now = time.monotonic()
            if (
                self.deadline_s is not None
                and now - start > self.deadline_s
                and not self.deadline_exceeded
            ):
                # whole-run deadline: stop everything, report incomplete
                self.deadline_exceeded = True
                pending.clear()
                for rank, proc in procs.items():
                    if rank not in retired and proc.is_alive():
                        self._kill(proc)

            for rank, (not_before, reason, code) in list(pending.items()):
                if now < not_before:
                    continue
                del pending[rank]
                self.events.append(
                    RespawnEvent(
                        rank=rank,
                        reason=reason,
                        exit_code=code,
                        respawn=respawns[rank],
                        at_s=now - start,
                    )
                )
                increment("fleet_respawns")
                procs[rank] = self.spawn(rank)
                spawned_at[rank] = time.monotonic()

            live = False
            for rank, proc in procs.items():
                if rank in retired or rank in pending:
                    continue
                if not proc.is_alive():
                    code = proc.exitcode
                    if (
                        self.deadline_exceeded
                        or code in _DELIBERATE_EXITS
                        or is_drain_exit(code)
                    ):
                        retired.add(rank)
                        final[rank] = code
                    else:
                        schedule_respawn(rank, "crash", code)
                    continue
                if self._stalled(rank, spawned_at[rank]):
                    # alive but silent: a hung or livelocked worker keeps
                    # its leases renewed forever — kill it so they expire
                    # and a fresh incarnation (or a peer) takes over
                    self._kill(proc)
                    schedule_respawn(rank, "stall", proc.exitcode)
                    continue
                live = True

            if not live and not pending:
                break
            time.sleep(self.poll_s)
        return final
