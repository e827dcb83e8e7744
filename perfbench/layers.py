"""Per-layer metrics from the span records of one traced invocation.

Each process of the invocation (the CLI process, its pool workers and
fleet workers) leaves one record: its spans ``[name, start, end,
parent]``, wrapper counts and perf-counter deltas (see
:mod:`perfbench.tracer`).  A layer's *inclusive* time counts each of its
outermost spans whole; its *self* time subtracts whatever part of a
span its child spans cover.
"""

from __future__ import annotations

from typing import Any

#: per-layer metric name -> (unit, better); the traced run reports all
PER_LAYER: dict[str, tuple[str, str]] = {
    "import.total_s": ("s", "lower"),
    "import.scipy_s": ("s", "lower"),
    "plan.compile_s": ("s", "lower"),
    "plan.nodes": ("count", "lower"),
    "plan.dedup_ratio": ("ratio", "higher"),
    "scheduler.execute_s": ("s", "lower"),
    "scheduler.self_s": ("s", "lower"),
    "scheduler.units": ("count", "lower"),
    "scheduler.waves": ("count", "lower"),
    "scheduler.retries": ("count", "lower"),
    "runner.assemble_s": ("s", "lower"),
    "executor.dispatch_s": ("s", "lower"),
    "executor.tasks": ("count", "lower"),
    "executor.pool_starts": ("count", "lower"),
    "executor.pool_start_s": ("s", "lower"),
    "cache.result_hit_ratio": ("ratio", "higher"),
    "cache.factor_hit_ratio": ("ratio", "higher"),
    "cache.voxel_hit_ratio": ("ratio", "higher"),
    "solve.network_s": ("s", "lower"),
    "solve.network_calls": ("count", "lower"),
    "solve.stacked_items": ("count", "higher"),
    "model.a.solve_s": ("s", "lower"),
    "model.b.solve_s": ("s", "lower"),
    "model.1d.solve_s": ("s", "lower"),
    "fem.voxelize_s": ("s", "lower"),
    "fem.solve_s": ("s", "lower"),
    "solve.factor_s": ("s", "lower"),
    "solve.factor_calls": ("count", "lower"),
    "store.put_point_n": ("count", "lower"),
    "store.put_point_s": ("s", "lower"),
    "store.encode_s": ("s", "lower"),
    "store.fsync_n": ("count", "lower"),
    "store.fsync_s": ("s", "lower"),
    "store.put_s": ("s", "lower"),
    "store.bytes_written": ("B", "lower"),
    "store.get_n": ("count", "lower"),
    "store.get_s": ("s", "lower"),
    "lease.acquire_n": ("count", "lower"),
    "lease.acquire_won_ratio": ("ratio", "higher"),
    "lease.acquire_s": ("s", "lower"),
    "lease.renew_n": ("count", "lower"),
    "lease.release_s": ("s", "lower"),
    "lease.steals": ("count", "lower"),
    "fleet.spawn_s": ("s", "lower"),
    "fleet.peer_wait_s": ("s", "lower"),
    "fleet.worker_busy_s": ("s", "lower"),
    "fleet.imbalance": ("ratio", "lower"),
    "fleet.duplicate_solve_ratio": ("ratio", "lower"),
    "cli.render_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
    "failed_ratio": ("ratio", "lower"),
}

#: metric -> the span whose outermost calls' inclusive time it sums
INCLUSIVE = {
    "import.total_s": "import.total",
    "import.scipy_s": "import.scipy",
    "plan.compile_s": "plan.compile",
    "scheduler.execute_s": "scheduler.execute",
    "runner.assemble_s": "runner.assemble",
    "executor.pool_start_s": "executor.pool_start",
    "solve.network_s": "solve.network",
    "model.a.solve_s": "model.a.solve",
    "model.b.solve_s": "model.b.solve",
    "model.1d.solve_s": "model.1d.solve",
    "fem.voxelize_s": "fem.voxelize",
    "fem.solve_s": "model.fem.solve",
    "solve.factor_s": "solve.factor",
    "store.put_point_s": "store.put_point",
    "store.encode_s": "store.encode",
    "store.fsync_s": "store.fsync",
    "store.put_s": "store.put",
    "store.get_s": "store.get",
    "lease.acquire_s": "lease.acquire",
    "lease.release_s": "lease.release",
    "cli.render_s": "cli.render",
}
#: metric -> the span whose outermost calls it counts
CALLS = {
    "executor.tasks": "executor.task",
    "solve.network_calls": "solve.network",
    "solve.factor_calls": "solve.factor",
    "store.put_point_n": "store.put_point",
    "store.fsync_n": "store.fsync",
    "store.get_n": "store.get",
    "lease.acquire_n": "lease.acquire",
    "lease.renew_n": "lease.renew",
}
#: metric -> the span whose self time it sums
SELF = {
    "scheduler.self_s": "scheduler.execute",
    "executor.dispatch_s": "executor.stream",
}
#: wrapper counts (``Tracer.count`` names) summed as they are
COUNTS = (
    "scheduler.units",
    "scheduler.waves",
    "executor.pool_starts",
    "solve.stacked_items",
    "store.bytes_written",
    "lease.acquire_won",
)
#: perf-counter deltas summed over the processes
PERF = (
    "counter.plan_retries",
    "counter.lease_steals",
    "counter.voxel_frame_hits",
    "counter.voxel_frame_misses",
    "cache.result_cache.hits",
    "cache.result_cache.misses",
    "cache.factor_cache.hits",
    "cache.factor_cache.misses",
)
#: metric -> the perf counter it reports
PERF_METRICS = {
    "scheduler.retries": "counter.plan_retries",
    "lease.steals": "counter.lease_steals",
}
#: metric -> (numerator, denominator terms), divided after pooling
RATIOS = {
    "plan.dedup_ratio": ("plan.deduped", ("plan.deduped", "plan.nodes")),
    "cache.result_hit_ratio": (
        "cache.result_cache.hits", ("cache.result_cache.hits", "cache.result_cache.misses"),
    ),
    "cache.factor_hit_ratio": (
        "cache.factor_cache.hits", ("cache.factor_cache.hits", "cache.factor_cache.misses"),
    ),
    "cache.voxel_hit_ratio": (
        "counter.voxel_frame_hits", ("counter.voxel_frame_hits", "counter.voxel_frame_misses"),
    ),
    "lease.acquire_won_ratio": ("lease.acquire_won", ("lease.acquire_n",)),
}


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the union of its direct children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans: list[list[Any]], index: int, names: set[str]) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def layer_totals(spans: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Per span name: outermost ``calls``, inclusive ``incl`` and ``self`` time."""
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        name = span[0]
        entry = totals.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0})
        entry["self"] += selfs[index]
        if not _has_ancestor(spans, index, {name}):
            entry["calls"] += 1
            entry["incl"] += span[2] - span[1]
    return totals


def invocation_layers(
    records: list[dict[str, Any]],
    *,
    wall_s: float,
    fleet_solves: list[int] | None = None,
    fleet_busy_s: list[float] | None = None,
    serial_solves: int = 0,
) -> dict[str, float]:
    """Additive parts of every per-layer metric for one invocation.

    Ratios come back as numerator and denominator parts (see
    :data:`RATIOS`) so several invocations can be pooled before dividing.
    """
    out: dict[str, float] = dict.fromkeys([*PER_LAYER, *COUNTS, *PERF, "plan.deduped"], 0.0)
    fleet_start = None
    worker_starts: list[float] = []
    for record in records:
        spans = record["spans"]
        totals = layer_totals(spans)
        for metric, span in INCLUSIVE.items():
            out[metric] += totals.get(span, {}).get("incl", 0.0)
        for metric, span in CALLS.items():
            out[metric] += totals.get(span, {}).get("calls", 0)
        for metric, span in SELF.items():
            out[metric] += totals.get(span, {}).get("self", 0.0)
        for name in COUNTS:
            out[name] += record["counts"].get(name, 0)
        for name in PERF:
            out[name] += record["perf"].get(name, 0)
        # every fleet worker compiles the same plan: count it once
        if record["counts"].get("plan.nodes", 0) > out["plan.nodes"]:
            out["plan.nodes"] = record["counts"]["plan.nodes"]
            out["plan.deduped"] = record["counts"].get("plan.deduped", 0)
        for index, span in enumerate(spans):
            if span[0] == "fleet.run":
                fleet_start = span[1]
            elif span[0] == "fleet.worker":
                worker_starts.append(span[1])
            elif span[0] == "sleep" and _has_ancestor(spans, index, {"scheduler.execute"}):
                out["fleet.peer_wait_s"] += span[2] - span[1]
        if record["role"] == "root":
            out["trace.coverage"] = sum(self_times(spans)) / wall_s
    for metric, counter in PERF_METRICS.items():
        out[metric] = out[counter]
    if fleet_start is not None and worker_starts:
        out["fleet.spawn_s"] = max(worker_starts) - fleet_start
    if fleet_solves:
        out["fleet.worker_busy_s"] = sum(fleet_busy_s or ())
        out["fleet.imbalance"] = max(fleet_solves) / max(1, min(fleet_solves))
        if serial_solves:
            out["fleet.duplicate_solve_ratio"] = (sum(fleet_solves) - serial_solves) / serial_solves
    return out


def pool(parts: list[dict[str, float]]) -> dict[str, float]:
    """Per-invocation means of the additive metrics; ratios of pooled parts."""
    n = max(1, len(parts))
    keys = set().union(*parts) if parts else set()
    sums = {key: sum(p.get(key, 0.0) for p in parts) for key in keys}
    out = {name: sums.get(name, 0.0) / n for name in PER_LAYER}
    for metric, (numerator, terms) in RATIOS.items():
        denominator = sum(sums.get(term, 0.0) for term in terms)
        out[metric] = sums.get(numerator, 0.0) / denominator if denominator else 0.0
    return out
