"""Retry policies, captured task failures, and per-node deadlines.

The fault-tolerant execute path treats failures as *results*: a worker
exception becomes a picklable :class:`TaskFailure` that flows back
through the executor stream instead of unwinding it, the scheduler
retries transient failures under a :class:`RetryPolicy`, and whatever
exhausts its attempts is quarantined as a :class:`NodeFailure` in the
run's failure ledger while the rest of the plan completes.

Transience is a *class* property: worker crashes, timeouts, solver
failures and OS-level hiccups are worth retrying (the work itself is
deterministic, so the failure came from the environment — a dead worker,
an injected fault, a poisoned cache entry); validation errors are
configuration mistakes and propagate immediately (see
:data:`PROPAGATE_TYPES`); everything else fails fast into the ledger
without retries.

Deadlines use ``SIGALRM`` (this is a POSIX-only feature; on a non-main
thread — where signals cannot be delivered — the deadline degrades to
unbounded execution rather than failing).  Pool workers run tasks on
their main thread, so per-node timeouts hold under parallel dispatch.
"""

from __future__ import annotations

import hashlib
import signal
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from ..errors import (
    LeaseLostError,
    NodeTimeoutError,
    SolverError,
    ValidationError,
    WorkerCrashError,
)

__all__ = [
    "DEFAULT_RETRY",
    "NodeFailure",
    "PROPAGATE_TYPES",
    "RetryPolicy",
    "TaskFailure",
    "TRANSIENT_TYPES",
    "failure_from_exception",
    "node_deadline",
]

#: exception classes worth retrying: environmental, not definitional
TRANSIENT_TYPES = (
    SolverError,
    WorkerCrashError,
    NodeTimeoutError,
    LeaseLostError,
    TimeoutError,
    OSError,
    MemoryError,
)

#: exception classes that must unwind the scheduler instead of being
#: captured: a bad spec/geometry is a caller mistake, and quarantining it
#: would hide the diagnostic behind a partial-result report
PROPAGATE_TYPES = (ValidationError,)


@dataclass(frozen=True)
class TaskFailure:
    """One failed task dispatch, as a picklable stream result.

    ``traceback_digest`` is a short stable hash of the traceback text
    (two failures with the same digest died the same way);
    ``traceback_tail`` keeps the last lines for human diagnosis without
    shipping whole frames across the process boundary.
    """

    error_class: str
    message: str
    traceback_digest: str
    traceback_tail: str
    transient: bool

    def summary(self) -> str:
        return f"{self.error_class}: {self.message}"


def failure_from_exception(exc: BaseException) -> TaskFailure:
    """Capture ``exc`` as a :class:`TaskFailure` (never raises)."""
    tb_text = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    tail = "\n".join(tb_text.strip().splitlines()[-6:])
    return TaskFailure(
        error_class=type(exc).__name__,
        message=str(exc),
        traceback_digest=hashlib.blake2b(
            tb_text.encode(), digest_size=6
        ).hexdigest(),
        traceback_tail=tail,
        transient=isinstance(exc, TRANSIENT_TYPES),
    )


@dataclass(frozen=True)
class NodeFailure:
    """A quarantined plan node: the failure-ledger record.

    Written to the :class:`~repro.scenarios.store.RunStore`'s
    ``failures/`` space and surfaced on
    :class:`~repro.scenarios.runner.ScenarioRun` objects; the CLI renders
    these as the nonzero-exit failure table.
    """

    key: str
    kind: str  # the plan node kind: solve / transient / nonlinear / ...
    error_class: str
    message: str
    traceback_digest: str
    attempts: int

    def to_payload(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "kind": self.kind,
            "error_class": self.error_class,
            "message": self.message,
            "traceback_digest": self.traceback_digest,
            "attempts": self.attempts,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> NodeFailure:
        return cls(
            key=payload["key"],
            kind=payload["kind"],
            error_class=payload["error_class"],
            message=payload["message"],
            traceback_digest=payload.get("traceback_digest", ""),
            attempts=int(payload.get("attempts", 0)),
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Per-node retry budget, backoff shape and wall-clock timeout.

    ``max_attempts`` counts dispatches (1 = no retries).  Backoff is
    exponential from ``backoff_s`` with *deterministic* jitter — a hash
    of (node key, attempt) spreads retries over [1, 1.25)× the base delay
    without introducing run-to-run nondeterminism.  ``node_timeout_s``
    bounds one node's solve wall-clock (scaled by member count for stacked
    units, which legitimately do many nodes' work in one dispatch).
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0
    node_timeout_s: float | None = None
    #: store-wide crash count at which a node is forced to solo dispatch
    #: (it stops riding in stacked units fleet-wide)
    poison_solo_after: int = 2
    #: store-wide crash count at which a node is quarantined outright,
    #: before every worker burns its own pool-rebuild budget on it
    poison_quarantine_after: int = 4

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.poison_solo_after < 1 or self.poison_quarantine_after < 1:
            raise ValidationError("poison thresholds must be >= 1")
        if self.poison_quarantine_after < self.poison_solo_after:
            raise ValidationError(
                "poison_quarantine_after must be >= poison_solo_after "
                f"(got {self.poison_quarantine_after} < {self.poison_solo_after})"
            )
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ValidationError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValidationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.node_timeout_s is not None and self.node_timeout_s <= 0:
            raise ValidationError(
                f"node_timeout_s must be > 0, got {self.node_timeout_s}"
            )

    def delay_s(self, attempt: int, key: str) -> float:
        """Backoff before retry number ``attempt`` (1-based) of ``key``."""
        base = min(
            self.backoff_s * self.backoff_factor ** max(0, attempt - 1),
            self.max_backoff_s,
        )
        digest = hashlib.blake2b(
            f"{key}|{attempt}".encode(), digest_size=2
        ).digest()
        jitter = int.from_bytes(digest, "big") / float(1 << 16)  # [0, 1)
        return base * (1.0 + 0.25 * jitter)


#: the default policy for plan execution: two retries, no timeout
DEFAULT_RETRY = RetryPolicy()


@contextmanager
def node_deadline(timeout_s: float | None):
    """Bound the enclosed block to ``timeout_s`` wall-clock seconds.

    Raises :class:`~repro.errors.NodeTimeoutError` on expiry.  A no-op
    when ``timeout_s`` is None/0 or when not on the main thread (SIGALRM
    cannot be delivered elsewhere); nesting restores the outer timer.
    """
    if not timeout_s or threading.current_thread() is not threading.main_thread():
        yield
        return

    def _expired(signum, frame):
        raise NodeTimeoutError(
            f"node exceeded its {timeout_s:g}s wall-clock budget"
        )

    previous_handler = signal.signal(signal.SIGALRM, _expired)
    previous_timer, _ = signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, previous_timer)
        signal.signal(signal.SIGALRM, previous_handler)
