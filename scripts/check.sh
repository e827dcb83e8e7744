#!/usr/bin/env sh
# One-command local PR gate: lint + tier-1 tests + the same-run paired gate.
#
# Usage:  scripts/check.sh
#
# Lint runs only when ruff is installed (the base image does not ship it;
# CI installs it and lints first); everything else always runs.
set -eu
cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== lint (ruff check)"
    ruff check src tests scripts
else
    echo "== lint skipped: ruff not installed (pip install ruff)" >&2
fi

echo "== tier-1 tests"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q

echo "== physics-kind quick scenarios (transient + nonlinear)"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro run transient_spike --fast >/dev/null
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro run nonlinear_hotspot --fast >/dev/null

echo "== fault-injection matrix (crash/error/delay/corrupt at rate 0.2)"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python scripts/fault_matrix.py

echo "== chaos soak (supervised fleet under kills + faults + laggy renames)"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python scripts/chaos_soak.py

echo "== fsck CLI on a post-run store, then a store hit off the solver stack"
fsck_tmp=$(mktemp -d)
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m repro run fig7 --fast --store "$fsck_tmp/store" >/dev/null
# a fresh store must have no findings at all, notes included
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m repro fsck "$fsck_tmp/store" >"$fsck_tmp/fsck.txt"
cat "$fsck_tmp/fsck.txt"
if ! grep -q "store is clean" "$fsck_tmp/fsck.txt"; then
    echo "fsck expected 'store is clean' on a fresh store" >&2
    exit 1
fi
# the same run again is served from the store; scripts/import_set.py
# fails it if it loaded scipy, any solver module, numpy or the
# process-pool machinery
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python scripts/import_set.py run fig7 --fast --store "$fsck_tmp/store" \
    >"$fsck_tmp/hit.txt"
if ! grep -q "served from run store" "$fsck_tmp/hit.txt"; then
    echo "store hit expected, got:" >&2
    head -5 "$fsck_tmp/hit.txt" >&2
    exit 1
fi
rm -rf "$fsck_tmp"

echo "== same-run paired gate (batching wins, checksum overhead)"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python scripts/same_run_gate.py

echo "== all checks passed"
