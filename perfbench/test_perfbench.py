"""Checks on the benchmark itself: pinned operation counts, tracing that
leaves transcripts alone, and metric names that match BENCHMARK.json."""

import json
from collections import Counter

import pytest

import run

run.import_program()

import bench_workloads as bw  # noqa: E402
from bench_trace import Tracer, exp_outside_hash, layer_metrics  # noqa: E402
from dnascreen import attacks, crypto  # noqa: E402
from dnascreen.scenarios import ScenarioConfig, build_world  # noqa: E402

SMALL = bw.ScreenSpec("test-screen", "test", blocks=1, block_sizes=(1, 2, 5),
                      exempt_per_block=1, hazards=3, hazard_share=0.2,
                      repeat_share=0.2)


def traced_counts(query) -> Counter:
    tracer = Tracer()
    with tracer.patched():
        tracer.unit = 0
        query()
    out = Counter()
    for i in range(len(tracer)):
        name = tracer.name_of(i)
        if name != "crypto.exp" or exp_outside_hash(tracer, i):
            out[name] += 1
    return out


@pytest.mark.parametrize("n", [1, 2, 4])
def test_basic_query_operation_counts(n):
    world = build_world(ScenarioConfig(), 3)
    order = [bytes([65 + i]) * (i + 1) for i in range(n)]
    c = traced_counts(lambda: world.synth.basic_query(order))
    assert c["crypto.exp"] == 12 + 6 * n
    assert c["crypto.hash_to_group"] == n
    assert c["crypto.member"] == 6 + 4 * n
    assert c["crypto.verify"] == 12 * 3
    assert c["screening.connect"] == 3


def test_exemption_query_operation_counts():
    covered = ScenarioConfig().hazards[0][0]
    world = build_world(ScenarioConfig(elt_sequences=(covered,)), 5)
    order = [covered, b"ACGT"]
    c = traced_counts(lambda: world.synth.exemption_query(
        order, world.elt_chain, world.fresh_code()))
    # three order+exemption sequences, plus the auth-backend handshake
    assert c["crypto.exp"] == 12 + 6 * 3 + 4
    assert c["crypto.member"] == 6 + 4 * 3 + 2
    assert c["crypto.verify"] == 12 * 3 + 4 + 2


def test_benchmark_formulas_hold_on_a_traced_pass():
    # the pass checks every verdict with World.oracle; none of the oracle's
    # exponentiations may land in an order's counts
    tracer = Tracer()
    with tracer.patched():
        res, _ = bw.screen_pass(SMALL, 7, 0, tracer)
    assert res.failed == 0
    assert run.check_counts(tracer, res) == []


def test_tracing_leaves_transcripts_and_program_unchanged():
    plain, _ = bw.screen_pass(SMALL, 11, 0, transcript=True)
    before = crypto.GroupElement.__dict__["exp"]
    tracer = Tracer()
    with tracer.patched():
        traced, _ = bw.screen_pass(SMALL, 11, 0, tracer, transcript=True)
    assert crypto.GroupElement.__dict__["exp"] is before
    assert plain.transcripts == traced.transcripts
    assert len(tracer) > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    with tracer.patched():
        res, _ = bw.screen_pass(SMALL, 17, 0, tracer)
    emitted = layer_metrics(tracer, res.units, len(res.order_ms),
                            res.verdict_seqs, 0.0)
    assert set(emitted) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert emitted[m["name"]][1] == m["unit"]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert set(run.MUST_MOVE) == set(run.WORKLOADS)
    assert all(name in emitted for names in run.MUST_MOVE.values()
               for name in names)


@pytest.mark.xfail(reason="known defect: on the 11-element test group the "
                          "blinding scalar can equal K1's key share, and the "
                          "closure then derives M(s)")
@pytest.mark.parametrize("seed", bw.KNOWN_MITM_COLLISION_SEEDS)
def test_mitm_keeps_order_secrecy_at_collision_seeds(seed):
    assert attacks.attack_mitm_rate_limit("scep", seed).outcome.ok
