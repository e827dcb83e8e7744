#!/usr/bin/env sh
# CI benchmark-regression gate: run the harness in quick mode and fail on
# >25% best-of-N regression against the most recent committed BENCH_*.json.
#
# Usage:  benchmarks/run_bench.sh [extra `python -m repro bench` flags]
#   JOBS=N   worker count for the parallel measurement (default 4)
#
# Quick mode reuses the full-mode scenario sizes with fewer repeats, so the
# comparison against a full-mode baseline stays apples-to-apples.  The new
# report is not written in CI mode (--no-write): the committed baseline only
# moves when a PR regenerates it deliberately via `python -m repro bench`.
set -eu
cd "$(dirname "$0")/.."

# --require hardens the gate: the matrix-batched entries and the fem3d
# scenario must exist in every report (a silently dropped entry would let
# a regression through unmeasured).  On any failure — regression, missing
# entry, or a failed identity check — the harness prints the per-entry
# speedup table instead of a bare assertion.
#
# Tolerance 0.50: measured run-to-run wall-clock drift on this shared
# 1-CPU container reaches ~1.45x on identical code (observed across a
# session: the same serial sweep spans 81-118 ms) — any tighter gate
# flakes on healthy commits.  (The committed baseline is regenerated
# right after a pytest run, mimicking CI's hot state, to centre it in
# that band; the comparison anchors on the baseline's *median*, not its
# lucky minimum, for the same reason.)  Entries
# flagged "noisy" in the report (process-pool spawns, filesystem-bound
# lookups) get double tolerance on top.  The real structural
# guarantees are carried by the load-immune same-run checks
# (multi_rhs_batched_wins, parallel_group_dispatch_wins, *_identical),
# which fail the gate at any load.
# --min-delta-ms 25: tens-of-ms entries swing by >1.5x ratios that are
# still only ~20 ms of absolute drift; a real regression on this
# harness's entries moves both the ratio AND tens of milliseconds.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m repro bench --quick --no-write \
    --jobs "${JOBS:-4}" --tolerance 0.50 --min-delta-ms 25 \
    --require multi_rhs_per_point,multi_rhs_batched,parallel_group_dispatch,stacked_per_point,stacked_vs_per_point,fem3d_power_cold,transient_planned_cold,transient_planned_resume,nonlinear_planned,fault_recovery_overhead,fleet_single_process,fleet_four_workers,sharded_lookup_10k,checksum_overhead \
    "$@"
