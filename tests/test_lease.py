"""Lease protocol races and the sharded store layout.

Two :class:`LeaseManager` drivers on one store stand in for two fleet
workers: claim conflicts, renewals, expiry, steals of stale and corrupt
claims, and the fencing-token guard that stops a zombie holder from
publishing over its usurper.  The store half covers the sharded layout.
"""

import json
import time

import pytest

from repro import perf
from repro.errors import LeaseLostError
from repro.perf import counter
from repro.scenarios import RunStore
from repro.scenarios.lease import Lease, LeaseManager
from repro.scenarios.store import shard_prefix


@pytest.fixture
def store(tmp_path):
    perf.reset()
    return RunStore(tmp_path / "store")


def manager(store, owner, ttl_s=30.0):
    return LeaseManager(store, owner=owner, ttl_s=ttl_s)


KEY = "deadbeef" * 8


class TestLeaseProtocol:
    def test_claim_is_exclusive_between_drivers(self, store):
        w1, w2 = manager(store, "w1"), manager(store, "w2")
        assert w1.acquire(KEY)
        assert not w2.acquire(KEY)
        assert counter("lease_conflicts") == 1
        # the claim file lives in the sharded leases space
        claim = store.leases / shard_prefix(KEY) / f"{KEY}.claim"
        assert claim.exists()
        payload = json.loads(claim.read_text())
        assert payload["owner"] == "w1"
        # the wall-clock twin of the monotonic deadline rides along for
        # offline tooling (fsck after a reboot / on a foreign host)
        assert payload["deadline_unix"] == pytest.approx(
            time.time() + 30.0, abs=5.0
        )

    def test_renewal_refreshes_the_wall_clock_deadline(self, store):
        w1 = manager(store, "w1")
        assert w1.acquire(KEY)
        first = w1.peek(KEY).deadline_unix
        assert first > 0.0
        assert w1.renew(KEY)
        assert w1.peek(KEY).deadline_unix >= first
        # a claim without the field is unparseable (and so stealable)
        partial = dict(w1.peek(KEY).to_payload())
        partial.pop("deadline_unix")
        with pytest.raises(KeyError):
            Lease.from_payload(partial)

    def test_reacquire_is_reentrant_and_renews(self, store):
        w1 = manager(store, "w1")
        assert w1.acquire(KEY)
        first_deadline = w1.peek(KEY).deadline
        assert w1.acquire(KEY)  # same holder: refresh, not a race with self
        assert len(w1.held) == 1
        assert w1.peek(KEY).deadline >= first_deadline
        assert counter("lease_renewals") == 1

    def test_release_frees_the_key_for_a_peer(self, store):
        w1, w2 = manager(store, "w1"), manager(store, "w2")
        assert w1.acquire(KEY)
        w1.release(KEY)
        assert not w1.held
        assert w2.acquire(KEY)

    def test_expired_claim_is_stolen_not_conflicted(self, store):
        w1 = manager(store, "w1", ttl_s=0.05)
        w2 = manager(store, "w2")
        assert w1.acquire(KEY)
        time.sleep(0.06)
        assert w2.acquire(KEY)
        assert counter("lease_steals") == 1
        assert w2.peek(KEY).owner == "w2"

    def test_stale_holder_cannot_renew_or_release_over_usurper(self, store):
        w1 = manager(store, "w1", ttl_s=0.05)
        w2 = manager(store, "w2")
        assert w1.acquire(KEY)
        time.sleep(0.06)
        assert w2.acquire(KEY)
        assert not w1.renew(KEY)
        assert KEY not in w1.held
        assert counter("lease_lost") == 1
        # release by the old holder is a no-op on the usurper's claim
        w1.held[KEY] = 123  # resurrect the zombie's bookkeeping
        w1.release(KEY)
        assert w2.peek(KEY).owner == "w2"

    def test_zombie_write_guard_raises_after_steal(self, store):
        w1 = manager(store, "w1", ttl_s=0.05)
        w2 = manager(store, "w2")
        assert w1.acquire(KEY)
        time.sleep(0.06)
        assert w2.acquire(KEY)
        with pytest.raises(LeaseLostError):
            w1.check(KEY)
        # the usurper's own guard still passes
        w2.check(KEY)

    def test_fencing_token_rejects_same_owner_stale_claim(self, store):
        # even with the owner id matching, an outdated fencing token is
        # rejected: a zombie that somehow re-reads a newer claim written
        # under its own name (e.g. after a restart reusing the owner id)
        # must not publish with its old token
        w1 = manager(store, "w1")
        assert w1.acquire(KEY)
        claim_path = store.leases / shard_prefix(KEY) / f"{KEY}.claim"
        newer = Lease(
            key=KEY,
            owner="w1",
            token=w1.held[KEY] + 1,
            deadline=time.monotonic() + 30.0,
            ttl_s=30.0,
            deadline_unix=time.time() + 30.0,
        )
        claim_path.write_text(json.dumps(newer.to_payload()))
        with pytest.raises(LeaseLostError):
            w1.check(KEY)
        assert counter("lease_lost") == 1

    def test_corrupt_claim_heals_by_steal(self, store):
        w2 = manager(store, "w2")
        claim_path = store.leases / shard_prefix(KEY) / f"{KEY}.claim"
        claim_path.parent.mkdir(exist_ok=True)
        claim_path.write_text('{"torn')  # a worker died mid-write
        assert w2.peek(KEY) is None
        assert w2.acquire(KEY)
        assert counter("lease_steals") == 1
        assert w2.peek(KEY).owner == "w2"

    def test_renew_refuses_an_already_expired_claim(self, store):
        w1 = manager(store, "w1", ttl_s=0.05)
        assert w1.acquire(KEY)
        time.sleep(0.06)
        # a stealer may own the name the moment the deadline passed; the
        # old holder must treat its own expired claim as lost
        assert not w1.renew(KEY)
        assert KEY not in w1.held

    def test_acquire_many_reports_only_wins(self, store):
        w1, w2 = manager(store, "w1"), manager(store, "w2")
        keys = [f"{i:02x}" * 32 for i in range(4)]
        assert w1.acquire(keys[1])
        assert w2.acquire_many(keys) == [keys[0], keys[2], keys[3]]

    def test_ttl_must_be_positive(self, store):
        with pytest.raises(ValueError, match="ttl_s"):
            LeaseManager(store, ttl_s=0.0)

    def test_concurrent_steal_of_one_stale_claim_has_one_winner(self, store):
        # both drivers see the same expired claim; the rename-tombstone
        # dance lets exactly one of them through
        w0 = manager(store, "w0", ttl_s=0.05)
        assert w0.acquire(KEY)
        time.sleep(0.06)
        w1, w2 = manager(store, "w1"), manager(store, "w2")
        wins = [w.acquire(KEY) for w in (w1, w2)]
        assert wins == [True, False]
        assert counter("lease_steals") == 1


class TestShardedLayout:
    def test_writes_land_sharded(self, store):
        store.put_point(KEY, {"x": 1})
        assert (store.points / shard_prefix(KEY) / f"{KEY}.json").exists()

    def test_short_keys_pad_into_a_distinct_shard(self, store):
        store.put_point("a", {"v": 1})
        assert shard_prefix("a") == "a_"
        assert store.get_point("a") == {"v": 1}


class TestLaggyFilesystem:
    """The steal dance under :mod:`repro.fsshim`'s laggy renames.

    The shim injects deterministic sleeps before every ``os.replace`` /
    ``os.rename`` / ``os.link``, widening exactly the windows — between
    reading an expired claim and tombstoning it, between tombstoning and
    re-linking — where NFS-grade latency could let two workers disagree
    about who stole a lease.
    """

    def test_shim_installs_and_uninstalls_cleanly(self):
        import os as os_mod

        from repro import fsshim

        originals = (os_mod.replace, os_mod.rename, os_mod.link)
        with fsshim.installed(0.0, seed=1):
            assert fsshim.active()
            assert os_mod.replace is not originals[0]
        assert not fsshim.active()
        assert (os_mod.replace, os_mod.rename, os_mod.link) == originals

    def test_expired_claim_steal_survives_laggy_renames(self, store):
        from repro import fsshim

        w1 = manager(store, "w1", ttl_s=0.05)
        w2 = manager(store, "w2")
        assert w1.acquire(KEY)
        time.sleep(0.06)
        with fsshim.installed(0.02, seed=3):
            assert w2.acquire(KEY)
        assert counter("lease_steals") == 1
        assert w2.peek(KEY).owner == "w2"
        # the tombstone dance never leaves the claim itself torn
        claim = store.leases / shard_prefix(KEY) / f"{KEY}.claim"
        json.loads(claim.read_text())

    def test_zombie_is_fenced_out_despite_slow_commit(self, store):
        from repro import fsshim

        w1 = manager(store, "w1", ttl_s=0.05)
        w2 = manager(store, "w2")
        assert w1.acquire(KEY)
        time.sleep(0.06)
        with fsshim.installed(0.02, seed=5):
            assert w2.acquire(KEY)
            # the usurped holder discovers the loss at its write guard no
            # matter how slowly the steal's renames landed
            with pytest.raises(LeaseLostError):
                w1.check(KEY)
            w2.check(KEY)

    def test_concurrent_steal_race_has_exactly_one_winner(self, store):
        import threading

        from repro import fsshim

        w1 = manager(store, "w1", ttl_s=0.05)
        assert w1.acquire(KEY)
        time.sleep(0.06)
        contenders = [manager(store, f"s{i}") for i in range(3)]
        results = {}
        with fsshim.installed(0.02, seed=7):
            threads = [
                threading.Thread(
                    target=lambda m: results.__setitem__(m.owner, m.acquire(KEY)),
                    args=(m,),
                )
                for m in contenders
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert sum(results.values()) == 1
        (winner,) = [owner for owner, won in results.items() if won]
        final = manager(store, "observer").peek(KEY)
        assert final.owner == winner
        # and the loser(s) recorded a conflict or lost the tombstone race;
        # either way nobody tore the claim file
        claim = store.leases / shard_prefix(KEY) / f"{KEY}.claim"
        json.loads(claim.read_text())
