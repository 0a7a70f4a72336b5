import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flowreject.engine import (
    BadPrefix,
    event_to_json,
    replay_prefix,
    serialize_event_log,
    simulate,
)
from flowreject.generate import WorkloadSpec, generate
from flowreject.instance import JobSpec, make_instance

from conftest import FIXTURES

HALF = Fraction(1, 2)


def mk(machines, eps, rows):
    jobs = [
        JobSpec(id=i, release=Fraction(r), weight=Fraction(w),
                proc={k: Fraction(p) for k, p in enumerate(ps)})
        for i, r, w, *ps in rows
    ]
    return make_instance(machines, jobs, eps)


def test_single_job_run():
    out = simulate(mk(1, HALF, [(0, 0, 1, 5)]))
    kinds = [(e.time, e.kind) for e in out.events]
    assert kinds == [(0, "arrival"), (0, "start"), (5, "complete")]
    assert out.S[0] == 0
    assert out.C[0] == 5
    assert out.weighted_flow_completed == 5
    assert out.rejected_weight_preempt == 0
    assert out.rejected_weight_weight_gap == 0


def test_preempt_rule_fires_at_accumulated_weight():
    # Long w=2 job starts at 0; four unit-weight arrivals charge its counter
    # to 4 = w/eps at t=4, so it is cut mid-run with 6 units left.
    inst = mk(1, HALF, [
        (0, 0, 2, 10),
        (1, 1, 1, 1),
        (2, 2, 1, 1),
        (3, 3, 1, 1),
        (4, 4, 1, 1),
    ])
    out = simulate(inst)
    assert out.reject_cause[0] == "preempt"
    assert out.reject_trigger[0] == 4
    assert out.L[0] == 4
    assert out.r1_events[0] == [(4, 0, Fraction(6))]
    rejects = [e for e in out.events if e.kind == "reject_preempt"]
    assert len(rejects) == 1
    assert (rejects[0].time, rejects[0].job, rejects[0].q) == (4, 0, Fraction(6))


def test_e1_event_log_matches_golden_file(e1_outcome):
    expected = (FIXTURES / "e1_events.jsonl").read_text()
    assert serialize_event_log(e1_outcome.events) == expected


def test_e1_trace_details(e1_outcome):
    out = e1_outcome
    assert {j: out.arrivals[j].branch for j in out.arrivals} == {
        1: "no-s/p-large",
        2: "s/j-inside-only-suffix",
        3: "no-s/p-large",
    }
    assert out.alpha == {1: Fraction(326, 3), 2: Fraction(82, 3), 3: Fraction(163, 6)}
    assert {e.job: e.alpha_all for e in out.events if e.kind == "arrival"} == {
        1: (Fraction(326),), 2: (Fraction(82),), 3: (Fraction(163, 2),)}
    assert [info.w_after for info in map(out.arrivals.get, (1, 2, 3))] == [2, 0, 2]
    assert out.reject_cause == {1: "preempt", 2: "weight_gap", 3: None}
    assert out.reject_trigger[2] == 2
    assert [(e.job, e.q) for e in out.events if e.kind == "reject_preempt"] == [(1, 2)]
    assert out.weighted_flow_completed == 2
    assert out.rejected_weight_preempt == 2
    assert out.rejected_weight_weight_gap == 2


def test_replay_prefix_empty_and_full(e1_instance):
    empty = replay_prefix(e1_instance, 0)
    assert empty.events == []
    assert empty.weighted_flow_completed == 0

    full = replay_prefix(e1_instance, len(e1_instance.jobs))
    direct = simulate(e1_instance)
    assert serialize_event_log(full.events) == serialize_event_log(direct.events)


def test_replay_prefix_rejects_bad_k(e1_instance):
    with pytest.raises(BadPrefix):
        replay_prefix(e1_instance, -1)
    with pytest.raises(BadPrefix):
        replay_prefix(e1_instance, 4)


def test_replay_prefix_simulates_only_first_k(e1_instance):
    two = replay_prefix(e1_instance, 2)
    assert set(two.arrivals) == {1, 2}


def test_event_json_round_trip_values(e1_outcome):
    lines = serialize_event_log(e1_outcome.events).splitlines()
    parsed = [json.loads(line) for line in lines]
    assert parsed == [event_to_json(e) for e in e1_outcome.events]
    assert all("time" in obj and "kind" in obj for obj in parsed)


def test_simulate_is_deterministic():
    spec = WorkloadSpec(n=20, m=3, p_min=1, p_max=9, w_min=1, w_max=9,
                        mean_interarrival=2, seed=77)
    inst = generate(spec)
    log1 = serialize_event_log(simulate(inst).events)
    log2 = serialize_event_log(simulate(inst).events)
    assert log1 == log2


KIND_RANK = {"complete": 0, "arrival": 1, "reject_preempt": 1,
             "reject_weight_gap": 1, "start": 2}


def check_outcome_wellformed(inst, out):
    jobs = out.jobs

    # One fate per job.
    for j in jobs:
        completed = out.C[j] is not None
        cause = out.reject_cause[j]
        assert completed == (cause is None)
        if cause is not None:
            assert cause in ("preempt", "weight_gap")

    # Log ordering: by time, and complete < arrival block < start within one
    # timestamp.
    times = [e.time for e in out.events]
    assert times == sorted(times)
    by_time = {}
    for e in out.events:
        by_time.setdefault(e.time, []).append(KIND_RANK[e.kind])
    for ranks in by_time.values():
        assert ranks == sorted(ranks)

    # Non-preemption: exactly one start per completed job, spaced p from its
    # completion, with no other start on the machine in between.
    for j in jobs:
        if out.C[j] is None:
            continue
        i = out.machine_of[j]
        assert out.C[j] == out.S[j] + jobs[j].proc[i]
        others = [
            e for e in out.events
            if e.kind == "start" and e.machine == i and out.S[j] < e.time < out.C[j]
        ]
        assert others == []

    # Totals add up, and every job's weight is counted exactly once.
    completed_weight = sum((jobs[j].weight for j in jobs if out.C[j] is not None), Fraction(0))
    assert (
        completed_weight + out.rejected_weight_preempt + out.rejected_weight_weight_gap
        == inst.total_weight
    )
    assert out.rejected_weight_preempt == sum(
        (jobs[j].weight for j in jobs if out.reject_cause[j] == "preempt"), Fraction(0)
    )
    assert out.rejected_weight_weight_gap == sum(
        (jobs[j].weight for j in jobs if out.reject_cause[j] == "weight_gap"),
        Fraction(0),
    )

    # Machine snapshots: never idle with pending work, budget never negative,
    # and the tail keeps the scaled budget strictly below its weight.
    for i in range(inst.machines):
        for snap in out.snapshots[i]:
            assert not (snap.running is None and snap.pending)
            assert snap.W >= 0
            if snap.pending:
                tail = jobs[snap.pending[-1]]
                assert inst.epsilon * snap.W < tail.weight

    # Queue bookkeeping at each arrival: the new pool is the old pool plus
    # the arrival minus this step's rejections.
    for j, info in out.arrivals.items():
        preempted = {
            h for h, cause in out.reject_cause.items()
            if cause == "preempt" and out.reject_trigger[h] == j
        }
        running = {info.kappa} if info.kappa is not None else set()
        before = set(info.v_before) | running | preempted
        after = set(info.v_after) | running
        assert after == (before | {j}) - set(info.r2) - preempted


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(0, 12),
    m=st.integers(1, 3),
    eps=st.sampled_from([Fraction(1, 4), Fraction(1, 2)]),
)
def test_simulation_wellformedness_random(seed, n, m, eps):
    spec = WorkloadSpec(n=n, m=m, p_min=1, p_max=8, w_min=1, w_max=8,
                        mean_interarrival=2, seed=seed, epsilon=eps)
    inst = generate(spec)
    out = simulate(inst)
    check_outcome_wellformed(inst, out)


def test_counter_tail_instance_reaches_pair_rejection(counter_tail_instance):
    out = simulate(counter_tail_instance)
    branches = [out.arrivals[j].branch for j in sorted(out.arrivals)]
    assert branches[-1] == "no-s/counter-reject"
    assert out.arrivals[8].r2 == (5, 8)
    assert out.arrivals[8].w_after == 0
    # The long job must still be running when the pair is rejected.
    assert out.arrivals[8].kappa == 0
