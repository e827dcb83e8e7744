"""Deterministic fault injection for the fault-tolerant execute path.

Testing retries, worker-crash recovery and corrupt-artifact healing needs
failures that are *repeatable* — CI cannot wait for a real worker to die.
This module is a process-safe injection registry: :func:`configure` arms
it with a fault rate, the fault kinds to inject, and a seed; every
instrumented **site** then asks :func:`inject` (or :func:`corrupt_text`)
whether a fault fires for a given key.  The decision is a pure hash of
``(seed, site, key)``, so a run is bit-reproducible: the same seed
injects the same faults at the same points, and a retried dispatch —
whose key carries the attempt number — gets an independent draw, which is
exactly how a transient real-world failure behaves.

Sites (each guards one seam of the execute path):

* ``solve`` — one model solve inside a :class:`~repro.perf.PointTask`;
* ``stacked-solve`` — one :class:`~repro.perf.StackedBatchTask` solve
  (a crashed unit must degrade to per-point dispatch);
* ``store-write`` — a :class:`~repro.scenarios.store.RunStore` artifact
  write (corruption simulates data lost between write and fsync);
* ``lease`` — a :mod:`repro.scenarios.lease` claim acquisition (a crash
  here kills a fleet worker while it *holds* leases — the shape that
  exercises expiry and takeover on the surviving workers);
* ``worker-start`` — a fleet worker's start, before it compiles its plan
  (a delay here is a slow-booting worker: it lets a drill hold the
  survivors back until an armed peer has claimed its first node).

Kinds (not every kind makes sense at every site — see
:data:`SITE_KINDS`):

* ``crash`` — ``os._exit`` inside a pool worker (the real thing: the
  pool breaks and the parent must recover); outside a worker it raises
  :class:`~repro.errors.WorkerCrashError` so serial execution stays
  testable without killing the test process;
* ``delay`` — sleep ``delay_s`` seconds (drives timeout paths);
* ``error`` — raise :class:`~repro.errors.SolverError` (the poisoned
  solve / poisoned-cache shape);
* ``corrupt`` — truncate a store payload before it is written (the
  reader-side healing path).

Configuration is propagated to pool workers through environment
variables (``REPRO_FAULT_RATE`` etc.), so it survives both ``fork`` and
``spawn`` start methods and can be set from a shell around the CLI
without any flags.  With the registry unarmed every hook is a single
dictionary lookup — the production path pays nothing measurable.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

from .errors import SolverError, ValidationError, WorkerCrashError

__all__ = [
    "FaultConfig",
    "KINDS",
    "SITES",
    "SITE_KINDS",
    "active",
    "config",
    "configure",
    "corrupt_text",
    "decide",
    "inject",
    "reset",
]

#: every fault kind the registry can inject
KINDS = ("crash", "delay", "error", "corrupt")

#: every instrumented site
SITES = (
    "solve",
    "stacked-solve",
    "store-write",
    "lease",
    "worker-start",
)

#: which kinds are meaningful at which site: execution sites take the
#: execution faults, the store site takes the data faults (a crash inside
#: ``put_point`` would just be a crash around a solve — already covered)
SITE_KINDS = {
    "solve": ("crash", "delay", "error"),
    "stacked-solve": ("crash", "delay", "error"),
    "store-write": ("delay", "corrupt"),
    "lease": ("crash", "delay"),
    "worker-start": ("delay",),
}

ENV_RATE = "REPRO_FAULT_RATE"
ENV_KINDS = "REPRO_FAULT_KINDS"
ENV_SITES = "REPRO_FAULT_SITES"
ENV_SEED = "REPRO_FAULT_SEED"
ENV_DELAY_S = "REPRO_FAULT_DELAY_S"

_ENV_VARS = (ENV_RATE, ENV_KINDS, ENV_SITES, ENV_SEED, ENV_DELAY_S)

#: exit code of an injected worker crash (distinguishable in waitpid logs)
CRASH_EXIT_CODE = 73


@dataclass(frozen=True)
class FaultConfig:
    """One armed injection configuration (frozen; :func:`configure` makes it)."""

    rate: float = 0.0
    kinds: tuple[str, ...] = ()
    sites: tuple[str, ...] = SITES
    seed: int = 0
    delay_s: float = 0.05

    @property
    def armed(self) -> bool:
        return self.rate > 0.0 and bool(self.kinds) and bool(self.sites)


_INACTIVE = FaultConfig()
_config: FaultConfig | None = None  # parent-side explicit configuration


def _increment(name: str) -> None:
    # imported lazily: repro.perf's own modules import this one, and a
    # module-level import back into the package would complete the cycle
    from .perf.stats import increment

    increment(name)


def _normalize(name: str, values, allowed: tuple[str, ...]) -> tuple[str, ...]:
    if isinstance(values, str):
        values = tuple(v for v in values.split(",") if v)
    values = tuple(values)
    unknown = [v for v in values if v not in allowed]
    if unknown:
        raise ValidationError(f"unknown fault {name} {unknown}; allowed: {allowed}")
    return values


def configure(
    *,
    rate: float,
    kinds=KINDS,
    sites=SITES,
    seed: int = 0,
    delay_s: float = 0.05,
) -> FaultConfig:
    """Arm the registry and export the config to future pool workers.

    ``rate`` is the per-draw injection probability in [0, 1]; ``kinds``
    and ``sites`` may be tuples or comma-separated strings (the env-var
    form).  The configuration is written into ``os.environ`` so worker
    processes created afterwards — under either start method — resolve
    the identical config.
    """
    global _config
    if not 0.0 <= rate <= 1.0:
        raise ValidationError(f"fault rate must be in [0, 1], got {rate}")
    if delay_s < 0:
        raise ValidationError(f"fault delay_s must be >= 0, got {delay_s}")
    cfg = FaultConfig(
        rate=float(rate),
        kinds=_normalize("kinds", kinds, KINDS),
        sites=_normalize("sites", sites, SITES),
        seed=int(seed),
        delay_s=float(delay_s),
    )
    _config = cfg
    os.environ[ENV_RATE] = repr(cfg.rate)
    os.environ[ENV_KINDS] = ",".join(cfg.kinds)
    os.environ[ENV_SITES] = ",".join(cfg.sites)
    os.environ[ENV_SEED] = str(cfg.seed)
    os.environ[ENV_DELAY_S] = repr(cfg.delay_s)
    return cfg


def reset() -> None:
    """Disarm the registry and clear the exported environment."""
    global _config
    _config = None
    for var in _ENV_VARS:
        os.environ.pop(var, None)


def config() -> FaultConfig:
    """The effective configuration: explicit, env-resolved, or inactive.

    Pool workers never call :func:`configure` — they resolve the parent's
    exported environment on every decision, which keeps the registry
    correct under ``spawn`` (fresh interpreter) and under tests that
    monkeypatch the environment directly.
    """
    if _config is not None:
        return _config
    rate_text = os.environ.get(ENV_RATE)
    if rate_text is None:
        return _INACTIVE
    try:
        return FaultConfig(
            rate=float(rate_text),
            kinds=_normalize("kinds", os.environ.get(ENV_KINDS, ",".join(KINDS)), KINDS),
            sites=_normalize("sites", os.environ.get(ENV_SITES, ",".join(SITES)), SITES),
            seed=int(os.environ.get(ENV_SEED, "0")),
            delay_s=float(os.environ.get(ENV_DELAY_S, "0.05")),
        )
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"invalid {ENV_RATE} environment: {exc}") from None


def active() -> bool:
    """Whether any fault can currently fire (the hooks' fast path)."""
    return config().armed


def decide(site: str, key: str) -> str | None:
    """The fault kind injected at ``(site, key)``, or None.

    Pure function of ``(seed, site, key)``: one blake2b digest supplies
    both the rate draw (56 bits) and the kind choice (8 bits), so reruns
    and cross-process decisions agree exactly.
    """
    cfg = config()
    if not cfg.armed or site not in cfg.sites:
        return None
    kinds = [k for k in cfg.kinds if k in SITE_KINDS.get(site, ())]
    if not kinds:
        return None
    digest = hashlib.blake2b(
        f"{cfg.seed}|{site}|{key}".encode(), digest_size=8
    ).digest()
    draw = int.from_bytes(digest[:7], "big") / float(1 << 56)
    if draw >= cfg.rate:
        return None
    return kinds[digest[7] % len(kinds)]


def _in_pool_worker() -> bool:
    import multiprocessing  # only a crash site asks; most runs never load it

    return multiprocessing.parent_process() is not None


def inject(site: str, key: str) -> None:
    """Fire the configured fault for ``(site, key)``, if any.

    ``crash`` kills the current process when it is a pool worker
    (``os._exit`` — no cleanup, exactly like a segfault or OOM kill) and
    raises :class:`WorkerCrashError` otherwise; ``delay`` sleeps;
    ``error`` raises :class:`SolverError`.  ``corrupt`` never fires here —
    it only applies to payload bytes via :func:`corrupt_text`.
    """
    kind = decide(site, key)
    if kind is None or kind == "corrupt":
        return
    _increment(f"fault_injected_{kind}")
    if kind == "delay":
        time.sleep(config().delay_s)
    elif kind == "error":
        raise SolverError(f"injected fault at {site}:{key}")
    elif kind == "crash":
        if _in_pool_worker():
            os._exit(CRASH_EXIT_CODE)
        raise WorkerCrashError(f"injected worker crash at {site}:{key}")


def corrupt_text(site: str, key: str, text: str) -> str:
    """``text``, truncated when a ``corrupt`` fault fires at ``(site, key)``.

    Truncating at half length always breaks a JSON document whose closing
    bracket is its last character, which is every artifact the store
    writes — the reader-side healing path must treat it as a miss.
    """
    if decide(site, key) != "corrupt":
        return text
    _increment("fault_injected_corrupt")
    return text[: max(1, len(text) // 2)]
