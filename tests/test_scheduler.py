"""The scheduler's two pure-enough parts, without an executor or a store:
unit formation (:func:`form_units`) and the commit order of
:class:`Committer`, which pins "a commit is durable before its lease is
released" at unit level."""

import pytest

from repro.errors import LeaseLostError
from repro.perf import NodeFailure, RetryPolicy
from repro.scenarios import scheduler
from repro.scenarios.plan import CaseStudyNode, SolveNode
from repro.scenarios.scheduler import Committer, form_units

RETRY = RetryPolicy(poison_solo_after=2, poison_quarantine_after=4)


class FakeModel:
    """Stands in for a network model: only the stacking hook is used."""

    def __init__(self, batch_class=None):
        self.batch_class = batch_class

    def batch_class_key(self, stack, via):
        return self.batch_class


def entry(key, *, model_name="a", stack="s", power=1.0, assembly=None, batch_class=None):
    node = SolveNode(
        key=key,
        stack=stack,
        via="v",
        power=power,
        model_name=model_name,
        model=FakeModel(batch_class),
        assembly_key=assembly,
    )
    return (node, node.model, None)


def keys(unit):
    members = unit.values() if isinstance(unit, dict) else unit
    return [node.key for node, _, _ in members]


def form(entries, solo=(), blame=None, **tiers):
    tiers = {"stack_batches": True, **tiers}
    return form_units(entries, set(solo), blame or {}, RETRY, **tiers)


class TestFormUnits:
    def test_shared_assembly_key_is_one_group_and_a_singleton_falls_through(self):
        # without a batch class, a shared matrix still forms one unit
        units = form(
            [
                entry("k1", power=1.0, assembly="A"),
                entry("k2", power=2.0, assembly="A"),
                entry("k3", power=3.0, assembly="B"),
            ]
        )
        assert [keys(s) for s in units.stacks] == [["k1", "k2"]]
        assert [keys(b) for b in units.buckets] == [["k3"]]

    def test_a_batch_class_takes_precedence_over_the_assembly(self):
        # one unit per batch class, whatever matrices its members share
        units = form(
            [
                entry("k1", stack="s1", assembly="A", batch_class="C"),
                entry("k2", stack="s1", power=2.0, assembly="A", batch_class="C"),
                entry("k3", stack="s2", assembly="B", batch_class="C"),
            ]
        )
        assert [keys(s) for s in units.stacks] == [["k1", "k2", "k3"]]
        assert units.buckets == []

    def test_shared_batch_class_key_is_one_stack(self):
        units = form(
            [
                entry("k1", stack="s1", batch_class="C"),
                entry("k2", stack="s2", batch_class="C"),
                entry("k3", stack="s3", batch_class="D"),
            ]
        )
        assert [keys(s) for s in units.stacks] == [["k1", "k2"]]
        assert [keys(b) for b in units.buckets] == [["k3"]]

    def test_point_buckets_carry_every_model_and_split_on_a_name_collision(self):
        units = form(
            [
                entry("k1", model_name="a"),
                entry("k2", model_name="b"),
                entry("k3", model_name="a"),  # a second 'a' at the same point
                entry("k4", model_name="a", stack="other"),
            ]
        )
        assert [keys(b) for b in units.buckets] == [["k1", "k2"], ["k3"], ["k4"]]

    def test_a_node_without_a_content_key_gets_its_own_bucket(self):
        def unpicklable():
            return None

        units = form(
            [
                entry("k1", model_name="a", stack=unpicklable),
                entry("k2", model_name="b", stack=unpicklable),
            ]
        )
        assert [keys(b) for b in units.buckets] == [["k1"], ["k2"]]

    def test_solo_keys_ride_in_no_multi_node_unit_and_go_last(self):
        solo = {"g2", "s2", "p2"}
        units = form(
            [
                entry("g1", power=1.0, assembly="A"),
                entry("g2", power=2.0, assembly="A"),
                entry("g3", power=3.0, assembly="A"),
                entry("s1", stack="s1", batch_class="C"),
                entry("s2", stack="s2", batch_class="C"),
                entry("p1", model_name="a", stack="p"),
                entry("p2", model_name="b", stack="p"),
            ],
            solo=solo,
        )
        assert [keys(s) for s in units.stacks] == [["g1", "g3"]]
        # a singleton stack class falls through behind the classless p1
        assert [keys(b) for b in units.buckets] == [
            ["p1"],
            ["s1"],
            ["g2"],
            ["s2"],
            ["p2"],
        ]
        assert solo == {"g2", "s2", "p2"}  # pure: the caller's set is untouched
        assert units.forced_solo == set()

    def test_blame_forces_solo_then_poisons_at_the_thresholds(self):
        entries = [
            entry("ok", power=1.0, assembly="A"),
            entry("low", power=2.0, assembly="A"),
            entry("solo", power=3.0, assembly="A"),
            entry("above", power=4.0, assembly="A"),
            entry("poison", power=5.0, assembly="A"),
            entry("worse", power=6.0, assembly="A"),
            entry("opaque:x", power=7.0, assembly="A"),
        ]
        blame = {"low": 1, "solo": 2, "above": 3, "poison": 4, "worse": 9, "opaque:x": 9}
        units = form(entries, blame=blame)
        assert [(e[0].key, n) for e, n in units.poisoned] == [("poison", 4), ("worse", 9)]
        assert units.forced_solo == {"solo", "above"}
        assert [keys(s) for s in units.stacks] == [["ok", "low", "opaque:x"]]
        assert [keys(b) for b in units.buckets] == [["solo"], ["above"]]

    def test_a_key_already_solo_is_not_forced_again(self):
        units = form([entry("k1")], solo={"k1"}, blame={"k1": 2})
        assert units.forced_solo == set()
        assert [keys(b) for b in units.buckets] == [["k1"]]

    # `groups` is the unit key the two nodes share: a batch class, or only
    # an assembly (what the matrix-group tier used to key on). The one
    # stack_batches flag turns both off.
    @pytest.mark.parametrize(
        "tiers, groups, stacks",
        [
            ({}, {"assembly": "A", "batch_class": "C"}, [["g1", "g2"]]),
            ({"stack_batches": False}, {"assembly": "A", "batch_class": "C"}, []),
            ({"stack_batches": False}, {"assembly": "A"}, []),
        ],
    )
    def test_each_tier_can_be_turned_off(self, tiers, groups, stacks):
        units = form(
            [
                entry("g1", stack="s1", **groups),
                entry("g2", stack="s2", **groups),
            ],
            **tiers,
        )
        assert [keys(s) for s in units.stacks] == stacks
        assert sum(map(len, units.stacks + units.buckets)) == 2


# ---------------------------------------------------------------------------
# commit order
# ---------------------------------------------------------------------------
KEY = "ab" * 16


class Result:
    def to_payload(self):
        return {"kind": "solve"}


class FakeStore:
    def __init__(self, log, points=None):
        self.log = log
        self.points = points or {}

    def get_point(self, key):
        self.log.append("get_point")
        return self.points.get(key)

    def heal_point(self, key):
        self.log.append("heal_point")

    def put_point(self, key, payload):
        self.log.append("put_point")

    def clear_blame(self, key):
        self.log.append("clear_blame")

    def put_failure(self, key, failure):
        self.log.append("put_failure")


class FakeClaims:
    def __init__(self, log, *, lost=False):
        self.log = log
        self.lost = lost

    def check(self, key):
        self.log.append("check")
        if self.lost:
            raise LeaseLostError(key)

    def release(self, key):
        self.log.append("release")


@pytest.fixture
def log(monkeypatch):
    calls = []
    monkeypatch.setattr(scheduler, "_record_solve", lambda key: calls.append("ledger"))
    return calls


def node(key=KEY):
    return entry(key)[0]


class TestCommitter:
    def test_fresh_commit_is_fenced_durable_and_audited_before_release(self, log):
        committer = Committer(FakeStore(log), FakeClaims(log), resume=False)
        committer.commit(node(), Result(), None, fresh=True)
        assert log == ["check", "put_point", "ledger", "release"]

    def test_a_usurped_worker_publishes_and_releases_nothing(self, log):
        committer = Committer(FakeStore(log), FakeClaims(log, lost=True), resume=False)
        committer.commit(node(), Result(), None, fresh=True)
        assert log == ["check"]

    def test_blame_is_absolved_before_release(self, log):
        committer = Committer(FakeStore(log), FakeClaims(log), resume=False)
        committer.blame = {KEY: 3}
        committer.commit(node(), Result(), None, fresh=True)
        assert log == ["check", "put_point", "ledger", "clear_blame", "release"]
        assert committer.blame == {}

    def test_quarantine_records_the_failure_before_release(self, log):
        committer = Committer(FakeStore(log), FakeClaims(log), resume=False)
        failure = NodeFailure(KEY, "solve", "RuntimeError", "boom", "", 1)
        committer.quarantine(node(), failure)
        assert log == ["put_failure", "release"]

    def test_a_republish_never_touches_the_lease_manager(self, log):
        committer = Committer(FakeStore(log), FakeClaims(log), resume=False)
        committer.commit(node(), Result(), None, fresh=False)
        assert log == ["put_point"]

    def test_compile_local_keys_are_never_written(self, log):
        committer = Committer(FakeStore(log), FakeClaims(log), resume=True)
        committer.commit(node("opaque:1"), Result(), None, fresh=True)
        assert committer.read(node("opaque:1"), None) is None
        assert log == []

    def test_only_a_resume_or_a_peer_read_reads(self, log):
        committer = Committer(FakeStore(log), None, resume=False)
        assert committer.read(node(), None) is None
        assert log == []
        assert committer.read(node(), None, peer=True) is None
        assert log == ["get_point"]

    def test_a_wrong_shape_point_heals_to_a_miss(self, log):
        case = CaseStudyNode(key=KEY, spec=None)
        store = FakeStore(log, points={KEY: {"kind": "something_else"}})
        assert Committer(store, None, resume=True).read(case, None) is None
        assert log == ["get_point", "heal_point"]
