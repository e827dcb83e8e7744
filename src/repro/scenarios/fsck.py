"""Store integrity scrubbing: ``python -m repro fsck <store> [--repair]``.

A :class:`~repro.scenarios.store.RunStore` is self-healing on the read
path — a corrupt artifact reads as a miss and is deleted — but the read
path only ever visits keys some plan asks for.  ``fsck`` walks the whole
store offline and classifies every file it finds:

**Damage** (exit code 1, fixed by ``--repair``):

* ``corrupt`` — an ``objects/``, ``points/``, ``failures/`` or ``blame/``
  artifact whose envelope checksum fails, whose body does not parse, or
  which is truncated/unreadable.  Repair deletes it so the node simply
  re-solves on resume.
* ``mis-sharded`` — an artifact filed under the wrong shard directory
  or directly under its space directory, invisible to every reader.
  Repair moves it to its correct shard (or deletes it when the correct
  path is already occupied).

**Notes** (reported, removable with ``--repair``, but *not* damage —
every one is a shape the live protocols produce and tolerate, so a
store that just survived a chaotic fleet run still fscks clean):

* ``expired-claim`` — a lease past its deadline (its holder died;
  any live worker would steal it).  Judged by the claim's wall-clock
  ``deadline_unix`` — the monotonic deadline the live protocol uses is
  only meaningful within the boot that wrote it, and fsck may run after
  a reboot or against a store copied from another host.
* ``torn-claim`` — an unreadable claim file, or one without a
  ``deadline_unix`` (died mid-write; stealable for the same reason).
* ``stale-tombstone`` — a leftover rename-tombstone or unique temp file
  from the lease steal dance.
* ``tmp-litter`` — an atomic-write temp file whose writer was killed
  between creation and rename.

The ``objects/`` space is its own run index, so there is nothing to
cross-check: a healthy run object is a stored run.  Files outside the
spaces (such as a ``manifest.json`` left by an older build) are ignored.
The scrub never *writes* anything unless ``--repair`` is given.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from ..errors import CorruptArtifactError
from .lease import Lease
from .store import (
    BLAME_DIR,
    FAILURES_DIR,
    LEASES_DIR,
    OBJECTS_DIR,
    POINTS_DIR,
    parse_artifact,
    shard_prefix,
)

__all__ = ["DAMAGE_KINDS", "Finding", "FsckReport", "scrub"]

#: finding kinds that mean data is wrong or unreachable (exit non-zero)
DAMAGE_KINDS = frozenset({"corrupt", "mis-sharded"})

#: the artifact spaces scrubbed for envelope/parse damage
ARTIFACT_SPACES = (OBJECTS_DIR, POINTS_DIR, FAILURES_DIR, BLAME_DIR)


@dataclass
class Finding:
    """One problem (or note) the scrub observed."""

    space: str
    kind: str
    path: str  # relative to the store root
    key: str
    detail: str
    repaired: bool = False

    @property
    def damage(self) -> bool:
        return self.kind in DAMAGE_KINDS


@dataclass
class FsckReport:
    """Everything one scrub pass found."""

    root: Path
    repair: bool
    scanned: dict[str, int] = field(default_factory=dict)
    findings: list[Finding] = field(default_factory=list)

    @property
    def damage(self) -> list[Finding]:
        return [f for f in self.findings if f.damage]

    @property
    def notes(self) -> list[Finding]:
        return [f for f in self.findings if not f.damage]

    @property
    def clean(self) -> bool:
        """No damage (notes alone leave a store healthy)."""
        return not self.damage

    @property
    def exit_code(self) -> int:
        """0 when clean, or when ``--repair`` fixed every damage finding."""
        if self.clean:
            return 0
        return 0 if all(f.repaired for f in self.damage) else 1

    def table(self) -> str:
        """The human-readable scrub report."""
        lines = [f"fsck {self.root}"]
        lines.append(
            "  scanned: "
            + "  ".join(f"{space}={n}" for space, n in sorted(self.scanned.items()))
        )
        if not self.findings:
            lines.append("  store is clean")
            return "\n".join(lines)
        by_kind: dict[str, list[Finding]] = {}
        for finding in self.findings:
            by_kind.setdefault(finding.kind, []).append(finding)
        width = max(len(kind) for kind in by_kind)
        for kind in sorted(by_kind, key=lambda k: (k not in DAMAGE_KINDS, k)):
            found = by_kind[kind]
            tag = "DAMAGE" if found[0].damage else "note"
            fixed = sum(f.repaired for f in found)
            fixed_text = f"  repaired={fixed}" if self.repair else ""
            lines.append(f"  {kind:<{width}}  {tag:<6}  count={len(found)}{fixed_text}")
            for finding in found[:8]:
                lines.append(f"    {finding.path}: {finding.detail}")
            if len(found) > 8:
                lines.append(f"    ... and {len(found) - 8} more")
        verdict = "clean" if self.clean else (
            "repaired" if self.exit_code == 0 else "DAMAGED"
        )
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)


def _artifact_files(space: Path) -> Iterator[Path]:
    """Every artifact in a space, shard-level or not, deterministic order."""
    yield from sorted(space.glob("*.json"))
    yield from sorted(space.glob("*/*.json"))


def _unlink(path: Path, finding: Finding, repair: bool) -> None:
    if repair:
        path.unlink(missing_ok=True)
        finding.repaired = True


def _scrub_artifact_space(
    report: FsckReport, root: Path, space_name: str, *, repair: bool
) -> None:
    """Scrub one artifact space for envelope and placement damage."""
    space = root / space_name
    count = 0
    for path in _artifact_files(space):
        count += 1
        key = path.stem
        rel = str(path.relative_to(root))
        if path.parent.name != shard_prefix(key):
            finding = Finding(
                space_name,
                "mis-sharded",
                rel,
                key,
                f"filed under {path.parent.relative_to(root)}/, belongs in "
                f"{space_name}/{shard_prefix(key)}/",
            )
            report.findings.append(finding)
            if repair:
                target = space / shard_prefix(key) / path.name
                if target.exists():
                    path.unlink(missing_ok=True)
                else:
                    target.parent.mkdir(exist_ok=True)
                    path.replace(target)
                finding.repaired = True
            continue
        try:
            parse_artifact(path.read_text(), verify=True)
        except (OSError, CorruptArtifactError) as exc:
            finding = Finding(space_name, "corrupt", rel, key, str(exc))
            report.findings.append(finding)
            _unlink(path, finding, repair)
    report.scanned[space_name] = count


def _scrub_leases(report: FsckReport, root: Path, *, repair: bool) -> None:
    """Classify everything in ``leases/``: claims, tombstones, litter."""
    space = root / LEASES_DIR
    count = 0
    for path in sorted(space.glob("**/*")):
        if path.is_dir():
            continue
        count += 1
        rel = str(path.relative_to(root))
        if not path.name.endswith(".claim"):
            finding = Finding(
                LEASES_DIR,
                "stale-tombstone",
                rel,
                path.name.split(".", 1)[0],
                "leftover steal tombstone / claim temp file",
            )
            report.findings.append(finding)
            _unlink(path, finding, repair)
            continue
        key = path.stem
        try:
            claim = Lease.from_payload(json.loads(path.read_text()))
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            finding = Finding(
                LEASES_DIR, "torn-claim", rel, key, "unreadable claim (stealable)"
            )
            report.findings.append(finding)
            _unlink(path, finding, repair)
            continue
        # expiry is judged on the wall clock: the claim's monotonic
        # deadline only means anything within the boot that wrote it, and
        # fsck runs offline — maybe after a reboot, maybe against a store
        # copied from another host
        if time.time() >= claim.deadline_unix:
            finding = Finding(
                LEASES_DIR,
                "expired-claim",
                rel,
                key,
                "claim past its deadline (holder presumed dead)",
            )
            report.findings.append(finding)
            _unlink(path, finding, repair)
    report.scanned[LEASES_DIR] = count


def _scrub_tmp_litter(report: FsckReport, root: Path, *, repair: bool) -> None:
    for path in sorted(root.glob("**/*.tmp")):
        finding = Finding(
            path.relative_to(root).parts[0] if path.parent != root else "root",
            "tmp-litter",
            str(path.relative_to(root)),
            path.name.split(".", 1)[0],
            "atomic-write temp file (writer killed before rename)",
        )
        report.findings.append(finding)
        _unlink(path, finding, repair)


def scrub(root: str | Path, *, repair: bool = False) -> FsckReport:
    """Scrub one store; see the module docstring for the taxonomy."""
    root = Path(root)
    report = FsckReport(root=root, repair=repair)
    for space_name in ARTIFACT_SPACES:
        _scrub_artifact_space(report, root, space_name, repair=repair)
    _scrub_leases(report, root, repair=repair)
    _scrub_tmp_litter(report, root, repair=repair)
    return report
