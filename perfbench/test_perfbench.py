"""Tests of the benchmark's own code (no CLI invocations, no timing)."""

from __future__ import annotations

import pytest

from perfbench import gate, gen, layers
from perfbench.run import tail


def _written(inputs: gen.Inputs) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in inputs.spec_files}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = gen.generate(workload, 7, tmp_path / "a")
    second = gen.generate(workload, 7, tmp_path / "b")
    other = gen.generate(workload, 8, tmp_path / "c")
    assert _written(first) == _written(second)
    assert _written(first) != _written(other)
    names = [t.replace(str(tmp_path / "a"), "") for t in first.mix]
    assert names == [t.replace(str(tmp_path / "b"), "") for t in second.mix]


def test_generator_ranges_and_shapes(tmp_path):
    import json

    hit = gen.generate("store_hit", 3, tmp_path / "hit")
    assert hit.pass_len == len(gen.BUILTINS) + gen.HIT_SPECS
    for start in range(0, 5 * hit.pass_len, hit.pass_len):
        # every pass serves every target once
        assert sorted(hit.mix[start:start + hit.pass_len]) == sorted(hit.mix[:hit.pass_len])
    jobs = gen.generate("fem_jobs", 3, tmp_path / "jobs")
    power = json.loads(jobs.spec_files[0].read_text())
    values = power["axis"]["values"]
    assert power["axis"]["parameter"] == "power_scale"
    assert gen.POWER_SCALE[0] <= min(values) and max(values) <= gen.POWER_SCALE[1]
    fleet = gen.generate("fem_fleet", 3, tmp_path / "fleet")
    assert _written(jobs) == _written(fleet)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 26)]  # 25 samples
    result = tail(samples)
    assert result == {"value": 15.0, "percentile": 60.0, "beyond": 10, "samples": 25}
    assert sum(s > result["value"] for s in samples) == 10


def test_tail_falls_back_to_the_maximum_without_enough_samples():
    # 20 samples: the rank with ten beyond it is the median itself
    assert tail([float(i) for i in range(20)]) == {
        "value": 19.0, "percentile": 100.0, "beyond": 0, "samples": 20,
    }
    assert tail([3.0, 1.0, 2.0])["value"] == 3.0
    twenty_one = tail([float(i) for i in range(21)])
    assert twenty_one["beyond"] == 10 and twenty_one["value"] == 10.0
    assert twenty_one["percentile"] == pytest.approx(100.0 * 11 / 21)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["scheduler.execute", 0.0, 10.0, -1],
        ["executor.stream", 1.0, 4.0, 0],
        ["solve.network", 2.0, 3.0, 1],
        ["store.put_point", 6.0, 7.0, 0],
    ]
    assert layers.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_clips_overlapping_children():
    spans = [["a", 0.0, 4.0, -1], ["b", 1.0, 3.0, 0], ["c", 2.0, 5.0, 0]]
    assert layers.self_times(spans) == [1.0, 2.0, 3.0]


def test_layer_totals_count_same_layer_nesting_once():
    spans = [
        ["solve.network", 0.0, 5.0, -1],
        ["solve.network", 1.0, 2.0, 0],  # e.g. solve_linear_system -> solve_sparse
        ["solve.factor", 2.0, 4.0, 0],
    ]
    totals = layers.layer_totals(spans)
    # outer 5 - (1 + 2) plus inner 1: the layer's time outside its children
    assert totals["solve.network"] == {"calls": 1, "incl": 5.0, "self": 2.0 + 1.0}
    assert totals["solve.factor"] == {"calls": 1, "incl": 2.0, "self": 2.0}


def test_pooled_ratios_divide_sums_not_means():
    one = {"lease.acquire_won": 1, "lease.acquire_n": 1, "store.fsync_n": 2}
    two = {"lease.acquire_won": 0, "lease.acquire_n": 3, "store.fsync_n": 4}
    pooled = layers.pool([one, two])
    assert pooled["lease.acquire_won_ratio"] == 0.25
    assert pooled["store.fsync_n"] == 3.0
    assert pooled["fleet.imbalance"] == 0.0


PAYLOAD = {
    "experiment_id": "table1",
    "series": {"model_a": [1.5, 2.5]},
    "runtimes_ms": {"model_a": 0.31},
    "points": [{"max_rise": 3.0, "solve_time": 0.02, "metadata": {"nr": 4}}],
    "metadata": {
        "caption": "c",
        "table_rows": [
            ["model", "max err %", "avg err %", "time [ms]"],
            ["model_a", 1.0, 0.5, 0.31],
        ],
    },
}


def test_normaliser_drops_only_the_wall_clock_fields():
    normalised = gate.normalise(PAYLOAD)
    assert normalised == {
        "experiment_id": "table1",
        "series": {"model_a": [1.5, 2.5]},
        "points": [{"max_rise": 3.0, "metadata": {"nr": 4}}],
        "metadata": {
            "caption": "c",
            "table_rows": [["model", "max err %", "avg err %"], ["model_a", 1.0, 0.5]],
        },
    }
    assert "runtimes_ms" in PAYLOAD  # the input is left alone


def test_digest_ignores_wall_clock_but_not_results():
    import copy

    slower = copy.deepcopy(PAYLOAD)
    slower["runtimes_ms"]["model_a"] = 9.9
    slower["points"][0]["solve_time"] = 1.0
    slower["metadata"]["table_rows"][1][3] = 9.9
    assert gate.digest(slower) == gate.digest(PAYLOAD)
    wrong = copy.deepcopy(PAYLOAD)
    wrong["series"]["model_a"][0] = 1.5000001
    assert gate.digest(wrong) != gate.digest(PAYLOAD)
    renamed = copy.deepcopy(PAYLOAD)
    renamed["metadata"]["table_rows"][1][2] = 0.6
    assert gate.digest(renamed) != gate.digest(PAYLOAD)
