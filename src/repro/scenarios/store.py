"""Content-addressed storage of finished scenario runs and solved points.

A :class:`RunStore` is a directory holding three object spaces:

* **runs** — one JSON artifact per completed scenario, addressed by the
  :meth:`~repro.scenarios.spec.ScenarioSpec.content_hash` of the
  (resolved) spec that produced it.  A run is stored if and only if its
  object exists: the ``objects/`` space is its own index.  Re-running
  an unchanged spec is a store hit — the experiment layer returns the
  stored payload without solving anything.
* **points** — one JSON artifact per executed plan node (a model solved
  at one sweep point, a finished calibration fit, a case-study run),
  addressed by the node's plan key.  The
  :mod:`~repro.scenarios.scheduler` writes each point as it completes and
  (under ``--resume``) reads them back, so an interrupted batch resumes
  from its solved points instead of re-solving them.
* **failures** — the quarantine ledger: one JSON record per plan node
  that exhausted its retry budget (error class, message, attempts,
  traceback digest — the
  :class:`~repro.perf.NodeFailure` payload).  A later successful solve
  of the same key clears the record, so ``--resume`` naturally
  re-attempts exactly the quarantined/missing points.

All writes are atomic *and durable*: the payload is fsynced to the tmp
file before the rename, so neither a killed process nor a machine crash
leaves a half-written artifact behind the rename.  A corrupt or
unreadable object is treated as a miss (and deleted, so it re-solves)
rather than an error.

Every ``objects/``, ``points/``, ``failures/`` and ``blame/`` payload is
written inside an **integrity envelope**: a one-line JSON header carrying
a blake2b checksum of the body, followed by the body document itself ::

    {"repro_envelope": 1, "checksum": "<blake2b-128-hex>"}
    {
      ... the payload ...
    }

Readers verify the checksum against the raw body bytes before parsing —
a bit flip, a truncation, or bytes lost between write and fsync all read
as a *miss* (plus the usual healing), never as silently different
physics.  Text without an envelope is damage of the same kind;
``python -m repro fsck <store>`` (see :mod:`repro.scenarios.fsck`)
scrubs a whole store for damage and ``--repair`` heals it in place.

The ``blame/`` space is the fleet-wide poison-unit ledger: one small
record per plan node that has crashed its executor, counted across every
cooperating worker (and across supervisor respawns).  The scheduler
consults it to force-degrade repeat offenders to solo dispatch and to
quarantine them outright before each worker burns its own
``MAX_POOL_REBUILDS`` on the same poison unit.

Hits and misses are counted into :func:`repro.perf.stats` under
``run_store_hits`` / ``run_store_misses`` and ``point_store_hits`` /
``point_store_misses``.

Fault injection: every run/point write passes through the
:mod:`repro.faults` ``store-write`` site, so CI can exercise the
reader-side healing paths (truncated payloads, slow disks) with
deterministic, seedable failures.

Layout (sharded by the first two characters of the key — hex digits for
content keys — so no directory ever holds more than ~1/256th of the
artifacts and listings stay fast at millions of stored points)::

    <root>/objects/<xx>/<key>.json     (whole runs)
    <root>/points/<xx>/<key>.json      (individual plan nodes)
    <root>/failures/<xx>/<key>.json    (quarantined plan nodes)
    <root>/blame/<xx>/<key>.json       (fleet-wide poison-unit counts)
    <root>/leases/<xx>/<key>.claim     (fleet worker claims; see
                                        :mod:`repro.scenarios.lease`)

An artifact anywhere else in a space is invisible to every reader;
``fsck`` reports it as ``mis-sharded``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Callable

from .. import faults
from ..errors import CorruptArtifactError
from ..perf import increment
from ..perf.retry import NodeFailure

OBJECTS_DIR = "objects"
POINTS_DIR = "points"
FAILURES_DIR = "failures"
BLAME_DIR = "blame"
LEASES_DIR = "leases"

ENVELOPE_KEY = "repro_envelope"
ENVELOPE_VERSION = 1
#: every envelope header starts with exactly these bytes (json.dumps of a
#: dict whose first key is ENVELOPE_KEY)
ENVELOPE_PREFIX = f'{{"{ENVELOPE_KEY}"'


#: an empty blake2b-128 hasher: copying it skips the keyword parsing of
#: a fresh constructor, which is most of the cost of hashing a point
_BLAKE2B_128 = hashlib.blake2b(digest_size=16)


def artifact_checksum(body_text: str) -> str:
    """The envelope checksum of an artifact body: blake2b-128 of its bytes.

    Hashing the serialised bytes (not a re-canonicalised document) keeps
    verify-on-read cheap — one hash pass over the text that was going to
    be parsed anyway, no second ``json.dumps``.
    """
    hasher = _BLAKE2B_128.copy()
    hasher.update(body_text.encode())
    return hasher.hexdigest()


def render_artifact(payload: Any, *, envelope: bool = True) -> str:
    """Serialise ``payload`` for storage, integrity envelope included.

    The body is compact JSON.  Readers parse any JSON body, so artifacts
    written indented by earlier builds still read and verify.
    """
    body = json.dumps(payload, separators=(",", ":")) + "\n"
    if not envelope:
        return body
    header = json.dumps(
        {ENVELOPE_KEY: ENVELOPE_VERSION, "checksum": artifact_checksum(body)}
    )
    return header + "\n" + body


def parse_artifact(text: str, *, verify: bool = True) -> Any:
    """The payload of a stored artifact's text.

    The envelope checksum is verified (unless ``verify=False``) before
    the body is parsed.  Any damage — no envelope, torn header, checksum
    mismatch, unparseable body — raises
    :class:`~repro.errors.CorruptArtifactError`, which every store reader
    treats as a miss-plus-heal.
    """
    if not text.startswith(ENVELOPE_PREFIX):
        raise CorruptArtifactError("artifact has no integrity envelope")
    header_text, sep, body = text.partition("\n")
    if not sep:
        raise CorruptArtifactError("artifact envelope has no body")
    try:
        header = json.loads(header_text)
    except json.JSONDecodeError as exc:
        raise CorruptArtifactError(
            f"unreadable artifact envelope header: {exc}"
        ) from None
    if verify and header.get("checksum") != artifact_checksum(body):
        increment("store_checksum_failures")
        raise CorruptArtifactError(
            "artifact body does not match its envelope checksum"
        )
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise CorruptArtifactError(f"unparseable artifact body: {exc}") from None


def shard_prefix(key: str) -> str:
    """The shard directory a key files under: its first two characters.

    Content keys are blake2b hex digests, so this spreads artifacts
    uniformly over 256 buckets; the handful of non-hex keys (e.g.
    ``case_study:<hash>``) simply bucket by their prefix, which is still a
    valid directory name.  Keys shorter than two characters are padded, so
    every shard name has exactly two characters.
    """
    return key[:2] if len(key) >= 2 else (key + "__")[:2]


def _write_json_atomic(
    path: Path,
    payload: Any,
    fault_key: str | None = None,
    *,
    envelope: bool = False,
) -> None:
    """Write JSON durably: serialise, fsync the tmp file, then rename.

    The fsync-before-rename matters: without it a machine crash shortly
    after the rename can surface the *new name with old (empty) contents*
    on some filesystems — exactly the truncated-artifact shape the
    readers heal, but better never to write it.  ``fault_key`` routes the
    write through the ``store-write`` fault-injection site (delay or
    payload corruption) when the :mod:`repro.faults` registry is armed;
    ``envelope=True`` wraps the payload in the integrity envelope
    (injected corruption is applied to the *enveloped* text, so a
    truncated write always fails its own checksum).
    """
    text = render_artifact(payload, envelope=envelope)
    if fault_key is not None and faults.active():
        faults.inject("store-write", fault_key)
        text = faults.corrupt_text("store-write", fault_key, text)
    # the tmp name is unique per writer: cooperating fleet workers write
    # the same (deterministic) artifacts concurrently, and a shared tmp
    # name would let one worker rename another's half-written file away
    tmp = path.with_suffix(f".{os.getpid()}.{time.monotonic_ns():x}.tmp")
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    tmp.replace(path)


class RunStore:
    """A content-addressed artifact store for scenario results."""

    def __init__(self, root: str | Path, *, verify: bool = True) -> None:
        self.root = Path(root)
        #: checksum-verify enveloped artifacts on read (the production
        #: default; ``verify=False`` is the unverified side of the
        #: ``checksum_under_5pct`` pair in ``scripts/same_run_gate.py``)
        self.verify = verify
        self.objects = self.root / OBJECTS_DIR
        self.objects.mkdir(parents=True, exist_ok=True)
        self.points = self.root / POINTS_DIR
        self.points.mkdir(parents=True, exist_ok=True)
        self.failures = self.root / FAILURES_DIR
        self.failures.mkdir(parents=True, exist_ok=True)
        self.blame = self.root / BLAME_DIR
        self.blame.mkdir(parents=True, exist_ok=True)
        self.leases = self.root / LEASES_DIR
        self.leases.mkdir(parents=True, exist_ok=True)
        # tracks "might any failure record exist?" so the per-point clear
        # on the happy path costs a boolean, not an unlink syscall
        self._has_failures = any(self._space_paths(self.failures))

    def _read(
        self,
        space: Path,
        key: str,
        counter: str | None = None,
        decode: Callable[[Any], Any] | None = None,
    ) -> Any | None:
        """The verified (and ``decode``-d) payload for ``key``, or None.

        Missing, unreadable, truncated, checksum-failing and undecodable
        artifacts all read as None, the damaged ones after being deleted
        so the next run re-solves and re-writes them cleanly.  With a
        ``counter`` prefix, the read counts ``<counter>_hits`` or
        ``<counter>_misses``.
        """
        path = self._read_path(space, key)
        payload = None
        if path is not None:
            try:
                payload = parse_artifact(path.read_text(), verify=self.verify)
                if decode is not None:
                    payload = decode(payload)
            except (CorruptArtifactError, OSError, KeyError, TypeError):
                path.unlink(missing_ok=True)
                increment("store_integrity_heals")
                payload = None
        if counter is not None:
            increment(f"{counter}_misses" if payload is None else f"{counter}_hits")
        return payload

    # ------------------------------------------------------------------
    # sharded layout
    # ------------------------------------------------------------------
    @staticmethod
    def _sharded_path(space: Path, key: str, suffix: str = ".json") -> Path:
        return space / shard_prefix(key) / f"{key}{suffix}"

    @classmethod
    def _read_path(cls, space: Path, key: str) -> Path | None:
        """The existing artifact for ``key``, or None."""
        path = cls._sharded_path(space, key)
        return path if path.exists() else None

    @classmethod
    def _write_path(cls, space: Path, key: str) -> Path:
        """The path a fresh artifact for ``key`` lands at."""
        path = cls._sharded_path(space, key)
        path.parent.mkdir(exist_ok=True)
        return path

    @staticmethod
    def _space_paths(space: Path) -> list[Path]:
        """Every artifact in a space."""
        return list(space.glob("*/*.json"))

    # ------------------------------------------------------------------
    # content-addressed access: whole runs
    # ------------------------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        """The stored run payload for ``key``, or None (counts a hit/miss).

        A corrupt object is a miss, not an error: it is deleted so the
        next run re-solves and re-stores cleanly.
        """
        return self._read(self.objects, key, "run_store")

    def put(self, key: str, payload: dict[str, Any]) -> Path:
        """Store a run ``payload`` under ``key``."""
        path = self._write_path(self.objects, key)
        _write_json_atomic(path, payload, fault_key=f"run:{key}", envelope=True)
        return path

    # ------------------------------------------------------------------
    # content-addressed access: individual plan nodes
    # ------------------------------------------------------------------
    def get_point(self, key: str) -> dict[str, Any] | None:
        """The stored point payload for a plan-node ``key``, or None.

        Corrupt point objects are removed and counted as misses — the
        scheduler simply re-solves the node.
        """
        return self._read(self.points, key, "point_store")

    def put_point(self, key: str, payload: dict[str, Any]) -> Path | None:
        """Persist one plan node's payload (atomically; never raises on
        unserialisable payload metadata — the point is just not resumable)."""
        path = self._write_path(self.points, key)
        try:
            _write_json_atomic(
                path, payload, fault_key=f"point:{key}", envelope=True
            )
        except (TypeError, ValueError):
            increment("point_store_skipped")
            return None
        return path

    def heal_point(self, key: str) -> None:
        """Drop a stored point whose payload turned out to be unusable.

        :meth:`get_point` already heals *unreadable* JSON; this is the
        hook for payloads that parse but decode to the wrong shape —
        the scheduler deletes them so the node re-solves cleanly.
        """
        self._sharded_path(self.points, key).unlink(missing_ok=True)

    def point_keys(self) -> list[str]:
        """Keys of every stored point object."""
        return sorted(p.stem for p in self._space_paths(self.points))

    # ------------------------------------------------------------------
    # the failure ledger: quarantined plan nodes
    # ------------------------------------------------------------------
    def put_failure(self, key: str, failure: NodeFailure) -> Path:
        """Record a quarantined node in the ``failures/`` space."""
        path = self._write_path(self.failures, key)
        _write_json_atomic(path, failure.to_payload(), envelope=True)
        self._has_failures = True
        return path

    def get_failure(self, key: str) -> NodeFailure | None:
        """The quarantine record for ``key``, or None (corruption = None)."""
        return self._read(self.failures, key, decode=NodeFailure.from_payload)

    def failure_age_s(self, key: str) -> float | None:
        """Seconds since ``key``'s quarantine record was written, or None.

        Cooperating fleet workers use this to tell a failure quarantined
        *during the current run* (adopt it, don't burn a fresh retry
        budget on every worker) from a stale record left by an earlier
        invocation (which ``--resume`` deliberately re-attempts).
        """
        path = self._read_path(self.failures, key)
        if path is None:
            return None
        try:
            return max(0.0, time.time() - path.stat().st_mtime)
        except OSError:
            return None

    def clear_failure(self, key: str) -> None:
        """Erase ``key``'s quarantine record (a later solve succeeded)."""
        if self._has_failures:
            self._sharded_path(self.failures, key).unlink(missing_ok=True)

    def failure_keys(self) -> list[str]:
        """Keys of every quarantined node, sorted."""
        return sorted(p.stem for p in self._space_paths(self.failures))

    # ------------------------------------------------------------------
    # the blame ledger: fleet-wide poison-unit counts
    # ------------------------------------------------------------------
    def add_blame(self, key: str) -> int:
        """Count one executor crash against plan node ``key``; new total.

        A read-modify-write without locking: two workers blaming the same
        key at the same instant may lose one increment.  That only delays
        the poison threshold by one extra crash — acceptable for a ledger
        whose job is to stop *repeat* offenders — and every write is
        atomic, so the count never tears.
        """
        count = self.get_blame(key) + 1
        path = self._write_path(self.blame, key)
        _write_json_atomic(
            path,
            {"key": key, "count": count, "updated_unix": time.time()},
            envelope=True,
        )
        return count

    def get_blame(self, key: str) -> int:
        """Crash count recorded against ``key`` (0 if none/corrupt)."""
        payload = self._read(self.blame, key)
        if not isinstance(payload, dict):
            return 0
        count = payload.get("count")
        return count if isinstance(count, int) and count > 0 else 0

    def blame_counts(self) -> dict[str, int]:
        """Every blamed key and its count — one scan, for per-wave use."""
        counts: dict[str, int] = {}
        for path in self._space_paths(self.blame):
            count = self.get_blame(path.stem)
            if count:
                counts[path.stem] = count
        return counts

    def clear_blame(self, key: str) -> None:
        """Erase ``key``'s blame record (it finally solved cleanly)."""
        self._sharded_path(self.blame, key).unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def keys(self) -> list[str]:
        """Stored run keys, sorted."""
        return sorted(p.stem for p in self._space_paths(self.objects))

    def __contains__(self, key: object) -> bool:
        return self._read_path(self.objects, str(key)) is not None

    def __len__(self) -> int:
        return len(self._space_paths(self.objects))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RunStore {self.root} ({len(self)} runs)>"
