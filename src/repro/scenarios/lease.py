"""Lease-based node claims for multi-worker plan execution.

When N cooperating workers (:mod:`repro.scenarios.fleet`) execute one
compiled plan against one :class:`~repro.scenarios.store.RunStore`, the
store's ``points/`` space is the result channel — but something must
stop two workers from solving the same node concurrently.  That
something is a **lease**: an atomic claim file under the store's
``leases/`` space, held by exactly one worker at a time and expiring on
its own if the holder dies.

Protocol (plain POSIX filesystem operations, no daemon, no sidecar):

* **Claim** — the worker writes the claim payload to a unique temp file
  and hard-links it to ``leases/<xx>/<key>.claim``.  ``link(2)`` fails
  with ``EEXIST`` when the name is taken, so exactly one worker wins,
  and the claim file is always complete (the link publishes fully
  written bytes).
* **Fencing token** — ``time.monotonic_ns()`` at claim time.  It is
  strictly increasing across every process on the machine, so any later
  claimant of the same key holds a strictly larger token and a zombie's
  stale (smaller) token can be rejected without a coordination sidecar.
* **Expiry** — the claim stores a ``CLOCK_MONOTONIC`` deadline
  (``time.monotonic()`` + TTL), comparable across processes on one
  machine and immune to wall-clock steps.  Holders renew well before
  the deadline; a claim past its deadline is *stale* and up for grabs.
  Every claim also carries a wall-clock twin (``deadline_unix``) for
  offline tooling: monotonic clocks are per-boot, so ``fsck`` scanning a
  store after a reboot (or copied from another host) classifies expiry
  by wall time instead.  A claim without it is unparseable, like a torn
  one, and therefore stealable.
* **Steal** — a worker takes a stale (or unparseable) claim by renaming
  it to a unique tombstone.  ``rename(2)`` succeeds for exactly one
  contender — the losers see ``ENOENT`` and back off — after which the
  winner unlinks the tombstone and claims the now-free name normally.
* **Zombie write guard** — before committing a result, the holder calls
  :meth:`LeaseManager.check`, which re-reads the claim file and raises
  :class:`~repro.errors.LeaseLostError` unless it still carries this
  worker's owner id *and* token.  A worker that lost its lease mid-solve
  therefore never publishes over the usurper; the error is transient
  (see :data:`~repro.perf.retry.TRANSIENT_TYPES`) and the retry loop
  re-observes the store.

The verify-then-write renew/release pair is not atomic against a
concurrent steal, but a steal requires the claim to be *past its
deadline* while renewals happen at a fraction of the TTL — the races
left open need a holder that is alive yet silent for a whole TTL, which
is exactly the condition the TTL is tuned to declare "dead".  Even
then, plan results are content-addressed and byte-identical across
workers, so the worst case is a duplicate write of identical bytes, not
corruption.

Counters (:func:`repro.perf.stats`): ``lease_acquired``,
``lease_conflicts``, ``lease_steals``, ``lease_renewals``,
``lease_released``, ``lease_lost``.

Fault injection: :meth:`LeaseManager.acquire` passes through the
``lease`` site *after* the claim lands, so an injected crash kills a
worker while it holds a lease — the exact shape whose recovery
(expiry, steal, reschedule) this module exists to provide.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .. import faults
from ..errors import LeaseLostError
from ..perf import increment
from .store import RunStore

__all__ = ["DEFAULT_TTL_S", "Lease", "LeaseManager"]

#: default claim lifetime; fleet workers renew every TTL/3
DEFAULT_TTL_S = 30.0

CLAIM_SUFFIX = ".claim"


@dataclass(frozen=True)
class Lease:
    """One parsed claim file."""

    key: str
    owner: str
    token: int
    deadline: float  # CLOCK_MONOTONIC seconds
    ttl_s: float
    #: wall-clock companion to ``deadline``.  The live protocol never
    #: reads it — monotonic time is what's comparable between running
    #: processes — but monotonic clocks are only meaningful within one
    #: boot of one machine, so an *offline* scrubber (``fsck``) on a
    #: rebooted or foreign host classifies expiry by this instead.
    deadline_unix: float

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.deadline

    def to_payload(self) -> dict:
        return {
            "key": self.key,
            "owner": self.owner,
            "token": self.token,
            "deadline": self.deadline,
            "ttl_s": self.ttl_s,
            "deadline_unix": self.deadline_unix,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Lease":
        return cls(
            key=str(payload["key"]),
            owner=str(payload["owner"]),
            token=int(payload["token"]),
            deadline=float(payload["deadline"]),
            ttl_s=float(payload["ttl_s"]),
            deadline_unix=float(payload["deadline_unix"]),
        )


class LeaseManager:
    """Claims, renewals and releases for one worker on one store.

    ``owner`` defaults to a string unique per manager instance (pid +
    a monotonic stamp), so two managers — even in one process, as in
    tests running two drivers against one store — never mistake each
    other's claims for their own.
    """

    def __init__(
        self,
        store: RunStore,
        *,
        owner: str | None = None,
        ttl_s: float = DEFAULT_TTL_S,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError(f"lease ttl_s must be > 0, got {ttl_s}")
        self.store = store
        self.space = store.leases
        self.owner = owner or f"pid{os.getpid()}.{time.monotonic_ns():x}"
        self.ttl_s = float(ttl_s)
        #: leases this manager believes it holds: key -> fencing token
        self.held: dict[str, int] = {}

    # ------------------------------------------------------------------
    # claim-file plumbing
    # ------------------------------------------------------------------
    def _claim_path(self, key: str) -> Path:
        return RunStore._sharded_path(self.space, key, CLAIM_SUFFIX)

    def _unique_path(self, key: str, tag: str) -> Path:
        name = f"{key}.{tag}.{self.owner}.{time.monotonic_ns():x}"
        return self._claim_path(key).parent / name

    def peek(self, key: str) -> Lease | None:
        """The current claim on ``key``, or None (missing or unreadable).

        An unreadable/corrupt claim reads as None — callers treat that
        exactly like a stale claim and steal it, which heals torn files
        left by a worker that died mid-tombstone.
        """
        return self._read_lease(self._claim_path(key))

    @staticmethod
    def _read_lease(path: Path) -> Lease | None:
        try:
            return Lease.from_payload(json.loads(path.read_text()))
        except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError):
            return None

    def _write_unique(self, key: str, lease: Lease, tag: str) -> Path:
        path = self._unique_path(key, tag)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(lease.to_payload()) + "\n")
        return path

    # ------------------------------------------------------------------
    # the protocol
    # ------------------------------------------------------------------
    def acquire(self, key: str) -> bool:
        """Try to claim ``key``; True on success.

        A live foreign claim is a conflict (False); a stale or corrupt
        claim is stolen via the rename-tombstone dance and re-claimed.
        Losing any race simply returns False — the caller's dispatch
        loop moves on and revisits the node later.
        """
        if key in self.held:
            # re-entrant: a retry or a later wave claims what it already
            # holds — refresh the deadline instead of racing ourselves
            # (a failed renewal means the lease was lost; fall through
            # and contend for a fresh claim like anyone else)
            if self.renew(key):
                return True
        claim = self._claim_path(key)
        lease = Lease(
            key=key,
            owner=self.owner,
            token=time.monotonic_ns(),
            deadline=time.monotonic() + self.ttl_s,
            ttl_s=self.ttl_s,
            deadline_unix=time.time() + self.ttl_s,
        )
        tmp = self._write_unique(key, lease, "new")
        try:
            os.link(tmp, claim)
        except FileExistsError:
            current = self.peek(key)
            if current is not None and not current.expired:
                increment("lease_conflicts")
                return False
            # stale or unreadable: exactly one contender wins the rename
            tombstone = self._unique_path(key, "stale")
            try:
                os.replace(claim, tombstone)
            except FileNotFoundError:
                increment("lease_conflicts")
                return False
            # the rename is atomic but not conditional: between the peek
            # above and the replace, a rival may have finished the whole
            # steal dance and linked a *fresh* claim under the same name —
            # in which case what we just tombstoned is live.  Read it back
            # before declaring victory, and hand a live claim straight
            # back (same bytes, so its holder's owner+token guard keeps
            # passing).  The hand-back is not seamless: if the rightful
            # holder renews or checks in the gap between the tombstone
            # rename and the restoring link, it sees its claim missing,
            # records the lease lost, and abandons the node — leaving a
            # live claim with no holder that blocks the key for up to one
            # full TTL until it expires and is stolen again.  Fencing
            # still holds (nobody double-publishes); the cost is bounded
            # extra latency on one key, accepted to keep the protocol to
            # plain link/rename/unlink.
            stolen = self._read_lease(tombstone)
            if stolen is not None and not stolen.expired:
                try:
                    os.link(tombstone, claim)
                except FileExistsError:
                    # a third contender claimed meanwhile; the displaced
                    # holder's fencing token reports the loss at commit
                    pass
                tombstone.unlink(missing_ok=True)
                increment("lease_conflicts")
                return False
            # the tombstone is ours to drop; then retry the claim once
            tombstone.unlink(missing_ok=True)
            increment("lease_steals")
            try:
                os.link(tmp, claim)
            except FileExistsError:
                increment("lease_conflicts")
                return False
        finally:
            tmp.unlink(missing_ok=True)
        self.held[key] = lease.token
        increment("lease_acquired")
        if faults.active():
            faults.inject("lease", key)
        return True

    def acquire_many(self, keys: Iterable[str]) -> list[str]:
        """Claim every key in ``keys`` that is free; returns the wins."""
        return [key for key in keys if self.acquire(key)]

    def check(self, key: str) -> None:
        """Raise :class:`LeaseLostError` unless we still hold ``key``.

        The zombie write guard: call immediately before committing a
        result for ``key``.
        """
        token = self.held.get(key)
        current = self.peek(key) if token is not None else None
        if (
            token is None
            or current is None
            or current.owner != self.owner
            or current.token != token
        ):
            self.held.pop(key, None)
            increment("lease_lost")
            raise LeaseLostError(
                f"lease on {key} lost by {self.owner} (claim now "
                f"{'missing' if current is None else f'held by {current.owner}'})"
            )

    def renew(self, key: str) -> bool:
        """Extend our claim on ``key`` by a fresh TTL; False if lost.

        Refuses to renew a claim that already expired (a stealer may
        own the name by now) — that lease is recorded as lost instead.
        """
        token = self.held.get(key)
        if token is None:
            return False
        current = self.peek(key)
        if (
            current is None
            or current.owner != self.owner
            or current.token != token
            or current.expired
        ):
            self.held.pop(key, None)
            increment("lease_lost")
            return False
        renewed = Lease(
            key=key,
            owner=self.owner,
            token=token,
            deadline=time.monotonic() + self.ttl_s,
            ttl_s=self.ttl_s,
            deadline_unix=time.time() + self.ttl_s,
        )
        tmp = self._write_unique(key, renewed, "renew")
        os.replace(tmp, self._claim_path(key))
        increment("lease_renewals")
        return True

    def renew_all(self) -> int:
        """Renew every held lease; returns how many survived."""
        return sum(self.renew(key) for key in list(self.held))

    def release(self, key: str) -> None:
        """Drop our claim on ``key`` (a no-op if we lost it meanwhile)."""
        token = self.held.pop(key, None)
        if token is None:
            return
        current = self.peek(key)
        if current is None or current.owner != self.owner or current.token != token:
            increment("lease_lost")
            return
        self._claim_path(key).unlink(missing_ok=True)
        increment("lease_released")

    def release_all(self) -> None:
        for key in list(self.held):
            self.release(key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<LeaseManager owner={self.owner!r} held={len(self.held)} "
            f"ttl={self.ttl_s:g}s>"
        )
