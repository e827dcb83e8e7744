"""Store integrity: envelopes, read-side healing, blame, fsck, poison.

The contract under test is the store's integrity layer: every artifact is
wrapped in a checksum envelope, a flipped bit reads as a miss-plus-heal
(never as different physics), ``fsck`` finds and repairs whole-store
damage offline, and the fleet-wide blame ledger isolates poison units
before they burn every worker's executor budget.
"""

import json

import pytest

from repro import faults, perf
from repro.errors import CorruptArtifactError
from repro.perf import RetryPolicy, counter
from repro.scenarios import (
    SCENARIOS,
    AxisSpec,
    RunStore,
    ScenarioSpec,
    run_batch,
    run_scenario,
    scrub,
)
from repro.scenarios.plan import CalibrationNode, CaseStudyNode, compile_plan
from repro.scenarios.store import (
    ENVELOPE_KEY,
    ENVELOPE_PREFIX,
    ENVELOPE_VERSION,
    artifact_checksum,
    parse_artifact,
    render_artifact,
    shard_prefix,
)
from repro.__main__ import main


@pytest.fixture(autouse=True)
def _reset_counters():
    perf.reset()
    yield
    perf.reset()


KEY = "ab" * 32
KEY2 = "cd" * 32

SPEC = ScenarioSpec(
    scenario_id="integrity_tiny",
    title="Integrity sweep",
    axis=AxisSpec(parameter="radius_um", values=(2.0, 3.0, 4.0, 5.0)),
    models=("a:paper", "1d"),
    calibrate=False,
).resolved()
RUN_KEY = SPEC.content_hash()


def flip_last_digit(path):
    """Flip one bit of the artifact's final payload digit.

    The body stays valid JSON (``1.0`` becomes ``1.1``) so only the
    checksum can tell the difference — exactly the silent-corruption
    shape the envelope exists to catch.
    """
    blob = bytearray(path.read_bytes())
    last_digit = max(i for i, byte in enumerate(blob) if chr(byte).isdigit())
    blob[last_digit] ^= 0x01
    path.write_bytes(bytes(blob))


def seeded_store(root):
    """A small store with one run and two points."""
    store = RunStore(root)
    store.put(RUN_KEY, {"experiment": {"v": 1}})
    store.put_point(KEY, {"kind": "solve", "max_rise": 1.0})
    store.put_point(KEY2, {"kind": "solve", "max_rise": 2.0})
    return store


class TestEnvelope:
    def test_render_parse_round_trip(self):
        text = render_artifact({"max_rise": 4.0})
        assert text.startswith(ENVELOPE_PREFIX)
        assert parse_artifact(text) == {"max_rise": 4.0}

    def test_envelope_less_artifact_is_corrupt_and_heals(self, tmp_path):
        with pytest.raises(CorruptArtifactError, match="no integrity envelope"):
            parse_artifact('{"max_rise": 4.0}\n')
        store = RunStore(tmp_path / "store")
        path = RunStore._write_path(store.points, KEY)
        path.write_text('{"max_rise": 4.0}\n')
        assert store.get_point(KEY) is None  # a miss...
        assert not path.exists()  # ...healed away like any corrupt artifact
        assert counter("store_integrity_heals") == 1

    def test_tampered_body_fails_its_checksum(self):
        text = render_artifact({"max_rise": 4.0})
        header, _, body = text.partition("\n")
        tampered = header + "\n" + body.replace("4.0", "5.0")
        with pytest.raises(CorruptArtifactError):
            parse_artifact(tampered)
        assert counter("store_checksum_failures") == 1
        # the tampered body is valid JSON: without verification it would
        # have been silently accepted as different physics
        assert parse_artifact(tampered, verify=False) == {"max_rise": 5.0}

    def test_checksum_covers_exact_body_bytes(self):
        body = json.dumps({"a": 1}, indent=2) + "\n"
        assert artifact_checksum(body) != artifact_checksum(body + " ")
        # blake2b-128 of the body bytes: stores written before stay valid
        assert artifact_checksum('{"a":1}\n') == "335da07f96d1af60018fb709114dd0df"

    def test_indented_artifacts_of_earlier_builds_read_and_fsck_clean(
        self, tmp_path
    ):
        # earlier builds wrote every enveloped body with indent=2
        def indented(payload):
            body = json.dumps(payload, indent=2) + "\n"
            header = json.dumps(
                {ENVELOPE_KEY: ENVELOPE_VERSION, "checksum": artifact_checksum(body)}
            )
            return header + "\n" + body

        store = seeded_store(tmp_path / "store")
        assert "\n  " not in render_artifact({"a": [1, {"b": 2}]})
        for space in (store.objects, store.points):
            for path in space.glob("*/*.json"):
                path.write_text(indented(parse_artifact(path.read_text())))
                assert "\n  " in path.read_text()
        reopened = RunStore(store.root)
        assert reopened.get(RUN_KEY) == {"experiment": {"v": 1}}
        assert reopened.get_point(KEY) == {"kind": "solve", "max_rise": 1.0}
        assert reopened.get_point(KEY2) == {"kind": "solve", "max_rise": 2.0}
        assert counter("store_integrity_heals") == 0
        assert scrub(store.root).clean

    def test_torn_header_and_garbage_raise(self):
        with pytest.raises(CorruptArtifactError):
            parse_artifact(ENVELOPE_PREFIX)  # envelope with no body
        with pytest.raises(CorruptArtifactError):
            parse_artifact("{ not json")


class TestReadSideHealing:
    def test_point_bit_flip_heals_to_a_miss(self, tmp_path):
        store = RunStore(tmp_path / "store")
        path = store.put_point(KEY, {"kind": "solve", "max_rise": 1.0})
        flip_last_digit(path)
        assert store.get_point(KEY) is None
        assert not path.exists()  # healed away, re-solves on resume
        assert counter("store_checksum_failures") == 1
        assert counter("store_integrity_heals") == 1
        assert counter("point_store_misses") == 1

    def test_run_bit_flip_heals_artifact_and_manifest(self, tmp_path):
        store = seeded_store(tmp_path / "store")
        path = store._sharded_path(store.objects, RUN_KEY)
        flip_last_digit(path)
        assert store.get(RUN_KEY) is None
        assert not path.exists()
        assert RUN_KEY not in RunStore(tmp_path / "store")
        assert counter("store_integrity_heals") == 1

    def test_verify_off_accepts_the_flipped_artifact(self, tmp_path):
        store = RunStore(tmp_path / "store")
        path = store.put_point(KEY, {"kind": "solve", "max_rise": 1.0})
        flip_last_digit(path)
        raw = RunStore(tmp_path / "store", verify=False)
        assert raw.get_point(KEY) == {"kind": "solve", "max_rise": 1.1}
        assert path.exists()  # the unverified reader never heals

    def test_heal_keeps_runs_a_peer_indexed_meanwhile(self, tmp_path):
        root = tmp_path / "store"
        writer = RunStore(root)
        writer.put(KEY, {"experiment": {"v": 1}})
        healer = RunStore(root)  # opened between the two puts
        writer.put(KEY2, {"experiment": {"v": 2}})
        path = writer._sharded_path(writer.objects, KEY)
        path.write_text(path.read_text()[:20])  # truncated
        assert healer.get(KEY) is None
        reopened = RunStore(root)
        assert KEY not in reopened
        assert reopened.get(KEY2) == {"experiment": {"v": 2}}
        assert scrub(root).clean


    def test_run_object_without_an_index_entry_is_a_hit(self, tmp_path):
        # a writer killed right after renaming its run object into place
        # leaves nothing else behind: the object alone is the stored run
        solved = run_scenario(SPEC, store=RunStore(tmp_path / "first"))
        obj = RunStore._sharded_path(RunStore(tmp_path / "first").objects, RUN_KEY)
        fresh = RunStore(tmp_path / "fresh")
        target = RunStore._write_path(fresh.objects, RUN_KEY)
        target.write_bytes(obj.read_bytes())
        assert RUN_KEY in fresh and fresh.keys() == [RUN_KEY] and len(fresh) == 1
        again = run_scenario(SPEC, store=RunStore(tmp_path / "fresh"))
        assert again.from_store
        assert again.result.series == solved.result.series

    @pytest.mark.parametrize(
        "scenario, node_type, field",
        [("case_study", CaseStudyNode, "title"), ("fig7", CalibrationNode, "k1")],
    )
    def test_wrong_shape_parent_point_heals_on_resume(
        self, tmp_path, scenario, node_type, field
    ):
        # valid JSON under the node's key, but not the node's payload
        spec = SCENARIOS.get(scenario).resolved(fast=True)
        plan = compile_plan([spec], fast=True)
        [key] = [k for k, n in plan.nodes.items() if isinstance(n, node_type)]
        store = RunStore(tmp_path / "store")
        store.put_point(key, {"kind": "something_else"})
        batch = run_batch([scenario], store=store, resume=True, fast=True)
        assert not batch.failures
        assert batch.runs[0].result is not None
        assert batch.stats["store"] == 0  # the bad point was not resumed...
        assert field in store.get_point(key)  # ...but solved and re-written


class TestBlameLedger:
    def test_blame_round_trip_and_persistence(self, tmp_path):
        store = RunStore(tmp_path / "store")
        assert store.get_blame(KEY) == 0
        assert store.add_blame(KEY) == 1
        assert store.add_blame(KEY) == 2
        assert store.blame_counts() == {KEY: 2}
        # the ledger is fleet-wide: a fresh driver on the same store
        # (another worker, a respawned incarnation) sees the counts
        reopened = RunStore(tmp_path / "store")
        assert reopened.get_blame(KEY) == 2
        reopened.clear_blame(KEY)
        assert reopened.get_blame(KEY) == 0
        assert reopened.blame_counts() == {}

    def test_blame_records_shard_and_survive_corruption(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.add_blame(KEY)
        path = store._sharded_path(store.blame, KEY)
        assert path.parent.name == shard_prefix(KEY)
        path.write_text("torn")
        assert store.get_blame(KEY) == 0  # corrupt count reads as absent


class TestFsck:
    def test_clean_store(self, tmp_path):
        store = seeded_store(tmp_path / "store")
        report = scrub(store.root)
        assert report.clean
        assert report.exit_code == 0
        assert not report.findings
        assert report.scanned["points"] == 2

    def test_corrupt_point_detected_and_repaired(self, tmp_path):
        store = seeded_store(tmp_path / "store")
        flip_last_digit(store._sharded_path(store.points, KEY))
        report = scrub(store.root)
        assert {f.kind for f in report.damage} == {"corrupt"}
        assert report.exit_code == 1
        repaired = scrub(store.root, repair=True)
        assert repaired.exit_code == 0
        assert scrub(store.root).clean
        assert RunStore(store.root).get_point(KEY) is None

    def test_legacy_manifest_is_ignored(self, tmp_path, capsys):
        # older builds kept a manifest.json index beside objects/; torn or
        # not, it is neither damage nor a note
        store = seeded_store(tmp_path / "store")
        (store.root / "manifest.json").write_text('{"version": 1, "ru')
        assert main(["fsck", str(store.root)]) == 0
        assert "store is clean" in capsys.readouterr().out

    def test_mis_sharded_artifact_moves_back_into_reach(self, tmp_path):
        store = seeded_store(tmp_path / "store")
        good = store._sharded_path(store.points, KEY)
        wrong = store.points / "zz" / good.name
        wrong.parent.mkdir()
        good.replace(wrong)
        assert RunStore(store.root).get_point(KEY) is None  # invisible
        report = scrub(store.root)
        assert {f.kind for f in report.damage} == {"mis-sharded"}
        assert scrub(store.root, repair=True).exit_code == 0
        assert good.exists()
        assert RunStore(store.root).get_point(KEY) is not None

    def test_live_protocol_residue_is_notes_not_damage(self, tmp_path):
        import time as _time

        store = seeded_store(tmp_path / "store")
        shard = store.leases / shard_prefix(KEY)
        shard.mkdir(exist_ok=True)
        (shard / f"{KEY}.claim").write_text(
            json.dumps(
                {
                    "key": KEY,
                    "owner": "w1",
                    "token": 1,
                    "ttl_s": 0.01,
                    "deadline": _time.monotonic() - 1.0,
                    "deadline_unix": _time.time() - 1.0,
                }
            )
        )
        (shard / f"{KEY2}.claim").write_text("{ torn")
        (shard / f"{KEY}.stale.w1.deadbeef").write_text("tombstone")
        (store.points / "x.1234.tmp").write_text("half a write")
        report = scrub(store.root)
        assert report.clean  # none of this is damage
        assert report.exit_code == 0
        assert {f.kind for f in report.notes} >= {
            "expired-claim",
            "torn-claim",
            "stale-tombstone",
            "tmp-litter",
        }
        scrub(store.root, repair=True)
        assert not list(store.leases.glob("**/*.claim"))
        assert not list(store.root.glob("**/*.tmp"))

    def test_claim_expiry_is_judged_by_wall_clock(self, tmp_path):
        import time as _time

        store = seeded_store(tmp_path / "store")

        def write_claim(key, **fields):
            shard = store.leases / shard_prefix(key)
            shard.mkdir(exist_ok=True)
            payload = {"key": key, "owner": "w1", "token": 1, "ttl_s": 30.0}
            payload.update(fields)
            (shard / f"{key}.claim").write_text(json.dumps(payload))

        # a live claim scanned from a machine with much longer uptime
        # than the writer: the monotonic deadline reads as long past,
        # but the wall deadline says the holder is alive — not expired
        write_claim(
            KEY,
            deadline=_time.monotonic() - 1e6,
            deadline_unix=_time.time() + 30.0,
        )
        # a dead claim whose monotonic deadline looks far in the future
        # (written before a reboot): wall clock tells the truth
        write_claim(
            KEY2,
            deadline=_time.monotonic() + 1e6,
            deadline_unix=_time.time() - 1.0,
        )
        report = scrub(store.root)
        expired = [f for f in report.notes if f.kind == "expired-claim"]
        assert [f.key for f in expired] == [KEY2]

    def test_claim_without_wall_deadline_is_torn_and_stolen(self, tmp_path):
        import time as _time

        from repro.scenarios.lease import LeaseManager

        store = seeded_store(tmp_path / "store")
        shard = store.leases / shard_prefix(KEY)
        shard.mkdir(exist_ok=True)
        # a live-looking monotonic deadline, but no deadline_unix
        (shard / f"{KEY}.claim").write_text(
            json.dumps(
                {
                    "key": KEY,
                    "owner": "w1",
                    "token": 1,
                    "ttl_s": 30.0,
                    "deadline": _time.monotonic() + 30.0,
                }
            )
        )
        report = scrub(store.root)
        assert [(f.kind, f.key) for f in report.notes] == [("torn-claim", KEY)]
        assert LeaseManager(store, owner="w2").acquire(KEY)
        assert counter("lease_steals") == 1

    def test_flat_artifact_is_invisible_and_mis_sharded(self, tmp_path):
        store = seeded_store(tmp_path / "store")
        good = store._sharded_path(store.points, KEY)
        flat = store.points / good.name
        good.replace(flat)
        assert RunStore(store.root).get_point(KEY) is None  # invisible
        report = scrub(store.root)
        assert [(f.kind, f.path) for f in report.damage] == [
            ("mis-sharded", f"points/{good.name}")
        ]
        assert scrub(store.root, repair=True).exit_code == 0
        assert good.exists() and not flat.exists()
        assert RunStore(store.root).get_point(KEY) is not None

    def test_cli_exit_codes_and_repair(self, tmp_path, capsys):
        store = seeded_store(tmp_path / "store")
        root = str(store.root)
        assert main(["fsck", root]) == 0
        assert "store is clean" in capsys.readouterr().out
        flip_last_digit(store._sharded_path(store.points, KEY))
        assert main(["fsck", root]) == 1
        assert "DAMAGED" in capsys.readouterr().out
        assert main(["fsck", root, "--repair"]) == 0
        assert main(["fsck", root]) == 0


@pytest.fixture(scope="class")
def harvested(tmp_path_factory):
    """The tiny spec's point keys, harvested from one clean run."""
    store = RunStore(tmp_path_factory.mktemp("harvest") / "store")
    perf.reset()
    run_scenario(SPEC, store=store)
    return sorted(store.point_keys())


POISON_RETRY = RetryPolicy(
    max_attempts=3,
    backoff_s=0.0,
    poison_solo_after=1,
    poison_quarantine_after=2,
)


class TestPoisonIsolation:
    def test_blamed_unit_quarantines_without_dispatch(self, harvested, tmp_path):
        victim = harvested[0]
        store = RunStore(tmp_path / "store")
        store.add_blame(victim)
        store.add_blame(victim)
        run = run_scenario(SPEC, store=store, retry=POISON_RETRY)
        assert run.failed
        assert any(
            f.key == victim and f.error_class == "PoisonedUnitError"
            for f in run.failures
        )
        assert counter("plan_poison_quarantined") == 1

    def test_blame_below_threshold_forces_solo_then_absolves(
        self, harvested, tmp_path
    ):
        victim = harvested[0]
        store = RunStore(tmp_path / "store")
        store.add_blame(victim)
        retry = RetryPolicy(
            max_attempts=3,
            backoff_s=0.0,
            poison_solo_after=1,
            poison_quarantine_after=5,
        )
        run = run_scenario(SPEC, store=store, retry=retry)
        assert not run.failed
        assert counter("plan_poison_degradations") == 1
        # it solved cleanly this time: the ledger absolves it so a stale
        # count cannot quarantine future runs
        assert store.get_blame(victim) == 0

    def test_executor_crashes_accrue_blame_then_quarantine(self, tmp_path):
        store = RunStore(tmp_path / "store")
        faults.configure(
            rate=1.0,
            kinds=("crash",),
            sites=("solve", "stacked-solve"),
            seed=0,
        )
        try:
            run = run_scenario(SPEC, store=store, retry=POISON_RETRY)
        finally:
            faults.reset()
        assert run.failed
        assert counter("plan_poison_quarantined") >= 1
        counts = store.blame_counts()
        assert counts
        assert all(c >= POISON_RETRY.poison_quarantine_after for c in counts.values())

        # a later run against the same store (a peer, a respawn) sees the
        # ledger and quarantines the poison units before dispatching them
        perf.reset()
        run2 = run_scenario(SPEC, store=store, retry=POISON_RETRY)
        assert run2.failed
        assert counter("plan_point_solves") == 0
        assert counter("plan_poison_quarantined") == len(counts)
