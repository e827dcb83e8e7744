#!/usr/bin/env python
"""CI fault matrix: every injection kind against a small builtin scenario.

For each fault kind (``crash``, ``error``, ``delay``, ``corrupt``) the
builtin ``fig7`` scenario runs (fast mode) with the :mod:`repro.faults`
registry armed at a fixed rate and seed, under a retry budget matched to
the rate.  The gate asserts the fault-tolerance invariant end to end:

* the run completes (no kind at the matrix rate may exhaust the matched
  retry budget and fail the scenario);
* the assembled payload is byte-identical to a fault-free run (modulo
  the wall-clock ``runtimes_ms`` metadata);
* every point artifact that survived in the store decodes to exactly the
  fault-free point payload (modulo wall-clock ``solve_time``) — corrupt
  writes may heal away, but never to *different physics*.

The ``crash`` kind runs under a 2-worker process pool so the injected
``os._exit`` kills a real worker and exercises the pool-rebuild path;
the other kinds run serially (faster, and the capture path is shared).

A further cell arms *only* the ``stacked-solve`` site with crashes at
rate 1.0: every cross-matrix stacked batch dies on dispatch, so a
completing, byte-identical run proves crashed stacked batches degrade to
per-point solo dispatch (the PR-6 contract) rather than retrying forever
or failing the scenario.

The final cell kills a fleet worker: one worker of a 3-worker fleet is
armed (via per-rank environment) to crash the moment it holds a lease
claim, and the other two start late, so the armed one always claims
first.  The gate asserts the armed worker dies with the injected exit
code, the survivors steal its expired claims, the shared store finishes
byte-identical to the fault-free run, and no completed point is lost.

Usage::

    PYTHONPATH=src python scripts/fault_matrix.py [--rate 0.2] [--seed 0]
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

from repro import faults, perf
from repro.perf import ParallelExecutor, RetryPolicy, counter
from repro.scenarios import SCENARIOS, RunStore, run_scenario, scrub
from repro.scenarios.fleet import run_fleet

SCENARIO = "fig7"

#: the matrix retry budget is matched to its rate: at rate 0.2 a node
#: needs 5 independent draws for a ~3e-4 chance of exhausting them, so a
#: failed matrix means broken recovery machinery, not an unlucky seed
MATRIX_RETRY = RetryPolicy(max_attempts=5, backoff_s=0.0)

#: the fleet cell's ranks 1-2 wait this ``worker-start`` delay (the one
#: tests/test_fleet.py uses) before they claim anything: without it they
#: can finish the plan before the armed rank 0 claims, and it exits 0
SLOW_START_ENV = {
    faults.ENV_RATE: "1.0",
    faults.ENV_SITES: "worker-start",
    faults.ENV_KINDS: "delay",
    faults.ENV_DELAY_S: "1.0",
}


def normalized_run(result) -> dict:
    payload = result.to_payload()
    payload.pop("runtimes_ms", None)
    return payload


def normalized_point(payload: dict) -> dict:
    payload = dict(payload)
    payload.pop("solve_time", None)
    return payload


def fsck_verdicts(store_dir: Path, *, damage_expected: bool) -> list[str]:
    """Post-run integrity scrub for one cell (run *before* point reads —
    a verified ``get_point`` heals corrupt artifacts to misses, which
    would hide exactly the on-disk damage fsck exists to find).

    Cells whose faults never touch payload bytes must leave a store with
    zero damage (notes — tmp litter from killed writers, expired claims —
    are live-protocol residue and allowed).  The corrupt cell is the one
    legitimate source of damage: there ``--repair`` must clear every
    finding and a re-scrub must come back clean.
    """
    report = scrub(store_dir)
    if not report.damage:
        return []
    if not damage_expected:
        kinds = sorted({f.kind for f in report.damage})
        return [f"fsck found {len(report.damage)} damaged artifact(s): {kinds}"]
    repaired = scrub(store_dir, repair=True)
    if repaired.exit_code != 0:
        return ["fsck --repair could not heal the damage"]
    after = scrub(store_dir)
    if after.damage:
        return [f"fsck --repair left {len(after.damage)} finding(s) behind"]
    return []


def run_once(
    kind: str | None,
    rate: float,
    seed: int,
    store_dir: Path,
    sites: tuple[str, ...] | None = None,
):
    """One matrix cell: ``kind`` armed (or a fault-free baseline for None)."""
    perf.reset()
    faults.reset()
    store = RunStore(store_dir)
    executor = ParallelExecutor(2) if kind == "crash" else None
    if kind is not None:
        if sites is None:
            sites = faults.SITES
        faults.configure(rate=rate, kinds=(kind,), sites=sites, seed=seed)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = run_scenario(
                SCENARIO,
                fast=True,
                store=store,
                executor=executor,
                retry=MATRIX_RETRY,
            )
    finally:
        faults.reset()
    injected = counter(f"fault_injected_{kind}") if kind else 0
    return run, store, injected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rate", type=float, default=0.2)
    # seed 5: every kind (including store-write corruption) fires at
    # least once on this scenario at the default rate — re-picked for the
    # stacked dispatch shape, whose batches replace the old per-point
    # fault-draw keys
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)

    root = Path(tempfile.mkdtemp(prefix="fault_matrix_"))
    failures: list[str] = []
    try:
        baseline_run, baseline_store, _ = run_once(
            None, args.rate, args.seed, root / "baseline"
        )
        baseline_payload = normalized_run(baseline_run.result)
        baseline_points = {
            key: normalized_point(baseline_store.get_point(key))
            for key in baseline_store.point_keys()
        }

        for kind in faults.KINDS:
            run, store, injected = run_once(
                kind, args.rate, args.seed, root / kind
            )
            verdicts = []
            if injected == 0:
                verdicts.append(f"no {kind} fault fired at rate {args.rate}")
            if run.failed:
                verdicts.append(
                    f"scenario failed ({len(run.failures)} quarantined node(s))"
                )
            elif normalized_run(run.result) != baseline_payload:
                verdicts.append("assembled payload differs from fault-free run")
            verdicts.extend(
                fsck_verdicts(store.root, damage_expected=kind == "corrupt")
            )
            for key in store.point_keys():
                payload = store.get_point(key)
                if payload is None:
                    continue  # healed-away corruption: a legitimate miss
                if normalized_point(payload) != baseline_points.get(key):
                    verdicts.append(f"point {key[:16]}... differs")
                    break
            status = "FAIL: " + "; ".join(verdicts) if verdicts else "ok"
            print(
                f"[fault-matrix] kind={kind:<7} injected={injected:<3} "
                f"points={len(store.point_keys()):<3} {status}"
            )
            failures.extend(f"{kind}: {v}" for v in verdicts)

        # stacked-degradation cell: every stacked batch crashes (rate 1.0,
        # only the stacked-solve site armed), so the only way the run can
        # complete — let alone byte-identically — is the PR-6 degradation
        # contract: the crashed batch splits into per-point solo dispatches
        # whose "solve" site is NOT armed.  plan_group_degradations > 0 with
        # only stacked-solve armed proves the degradations came from
        # stacked batches.
        run, store, injected = run_once(
            "crash", 1.0, args.seed, root / "stacked", sites=("stacked-solve",)
        )
        verdicts = []
        if injected == 0:
            verdicts.append("no stacked-solve crash fired at rate 1.0")
        if counter("plan_stacked_batches") == 0:
            verdicts.append("no stacked batch was dispatched")
        if counter("plan_group_degradations") == 0:
            verdicts.append("crashed stacked batch did not degrade")
        if run.failed:
            verdicts.append(
                f"scenario failed ({len(run.failures)} quarantined node(s))"
            )
        elif normalized_run(run.result) != baseline_payload:
            verdicts.append("assembled payload differs from fault-free run")
        verdicts.extend(fsck_verdicts(store.root, damage_expected=False))
        for key in store.point_keys():
            payload = store.get_point(key)
            if payload is None:
                continue
            if normalized_point(payload) != baseline_points.get(key):
                verdicts.append(f"point {key[:16]}... differs")
                break
        status = "FAIL: " + "; ".join(verdicts) if verdicts else "ok"
        print(
            f"[fault-matrix] site=stacked-solve (crash@1.0) "
            f"injected={injected:<3} "
            f"degradations={counter('plan_group_degradations'):<3} {status}"
        )
        failures.extend(f"stacked-solve: {v}" for v in verdicts)

        # fleet worker-kill cell: worker 0 of a 3-worker fleet is armed to
        # crash (rate 1.0) the moment it holds a lease claim — os._exit,
        # no cleanup, no report.  Ranks 1-2 start SLOW_START_ENV late, so
        # rank 0 always claims first.  The survivors must steal its expired
        # claims, finish the store byte-identically, and lose none of the
        # points any worker completed.
        perf.reset()
        faults.reset()
        outcome = run_fleet(
            [SCENARIO],
            store=root / "fleet",
            workers=3,
            fast=True,
            ttl_s=1.0,
            retry=MATRIX_RETRY,
            deadline_s=600.0,
            extra_env={
                0: {
                    faults.ENV_RATE: "1.0",
                    faults.ENV_SITES: "lease",
                    faults.ENV_KINDS: "crash",
                    faults.ENV_SEED: "1",
                },
                1: SLOW_START_ENV,
                2: SLOW_START_ENV,
            },
        )
        verdicts = []
        if outcome.exit_codes[0] != faults.CRASH_EXIT_CODE:
            verdicts.append(
                f"armed worker exited {outcome.exit_codes[0]}, "
                f"expected {faults.CRASH_EXIT_CODE}"
            )
        if any(code != 0 for code in outcome.exit_codes[1:]):
            verdicts.append(f"survivor exit codes {outcome.exit_codes[1:]}")
        if not outcome.complete:
            verdicts.append("fleet store incomplete after worker kill")
        verdicts.extend(fsck_verdicts(root / "fleet", damage_expected=False))
        fleet_store = RunStore(root / "fleet")
        fleet_key = SCENARIOS.get(SCENARIO).resolved(fast=True).content_hash()
        stored = fleet_store.get(fleet_key)
        # compare stored-to-stored: both sides went through one JSON
        # round-trip, unlike the in-memory baseline_payload
        reference = baseline_store.get(fleet_key)
        if stored is None or reference is None:
            verdicts.append("run artifact missing from the fleet store")
        else:
            stored.pop("runtimes_ms", None)
            reference.pop("runtimes_ms", None)
            if stored != reference:
                verdicts.append("fleet payload differs from fault-free run")
        for key in fleet_store.point_keys():
            payload = fleet_store.get_point(key)
            if payload is None:
                continue
            if normalized_point(payload) != baseline_points.get(key):
                verdicts.append(f"point {key[:16]}... differs")
                break
        missing = set(baseline_points) - set(fleet_store.point_keys())
        if missing:
            verdicts.append(f"{len(missing)} completed point(s) lost")
        status = "FAIL: " + "; ".join(verdicts) if verdicts else "ok"
        steals = outcome.counters.get("lease_steals", 0)
        print(
            f"[fault-matrix] fleet worker-kill (lease crash@1.0) "
            f"exits={list(outcome.exit_codes)} steals={steals:<3} {status}"
        )
        failures.extend(f"fleet-kill: {v}" for v in verdicts)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    if failures:
        print(f"[fault-matrix] {len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("[fault-matrix] all kinds recovered byte-identically")
    return 0


if __name__ == "__main__":
    sys.exit(main())
