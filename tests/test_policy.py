import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flowreject.engine import MachineState
from flowreject.instance import JobSpec
from flowreject.policy import (
    BRANCHES,
    ZERO_BUDGET_BRANCHES,
    RhoUndefined,
    apply_preempt_rule,
    compute_alpha_ij,
    compute_rho,
    dispatch,
    queue_key,
    weight_gap_reject,
)

HALF = Fraction(1, 2)


def job(id, w, p, r=0):
    return JobSpec(id=id, release=Fraction(r), weight=Fraction(w), proc={0: Fraction(p)})


def jobs_by_id(*specs):
    return {j.id: j for j in specs}


# --- queue order ---


def test_queue_key_orders_density_release_id():
    a = job(3, w=4, p=2)          # density 2
    b = job(1, w=1, p=1, r=5)     # density 1, late
    c = job(2, w=2, p=2, r=0)     # density 1, early
    d = job(0, w=2, p=2, r=0)     # density 1, early, lower id
    ordered = sorted([a, b, c, d], key=lambda x: queue_key(x, 0))
    assert [x.id for x in ordered] == [3, 0, 2, 1]


# --- preempt rule ---


def test_preempt_rule_threshold_hit():
    running = job(1, w=2, p=10)
    state = MachineState(id=0, running=1, run_start=Fraction(0),
                         count1=Fraction(3))
    arrival = job(2, w=1, p=1)
    assert apply_preempt_rule(state, arrival, jobs_by_id(running, arrival), HALF) == 1
    assert state.count1 == 4


def test_preempt_rule_idle_machine():
    state = MachineState(id=0)
    arrival = job(2, w=1, p=1)
    assert apply_preempt_rule(state, arrival, jobs_by_id(arrival), HALF) is None
    assert state.count1 == 0


def test_preempt_rule_below_threshold():
    running = job(1, w=2, p=10)
    state = MachineState(id=0, running=1, run_start=Fraction(0))
    arrival = job(2, w=1, p=1)
    assert apply_preempt_rule(state, arrival, jobs_by_id(running, arrival), HALF) is None
    assert state.count1 == 1


# --- weight-gap rule ---


def test_weight_gap_heavy_arrival_rejects_suffix_with_anchor():
    # Queue weights [5,1,1] by density; the arriving job is denser and heavy
    # enough to take out the split anchor along with the suffix.
    V = [job(1, w=5, p=5), job(2, w=1, p=2), job(3, w=1, p=3)]
    j = job(9, w=10, p=1)  # density 10, sorts first
    dec = weight_gap_reject(V, Fraction(0), {}, j, HALF, 0)
    assert dec.branch == "s/w-large"
    assert dec.rejected == (1, 2, 3)
    assert dec.new_w == 0
    assert j.id not in dec.rejected


def test_weight_gap_first_job_into_empty_queue():
    dec = weight_gap_reject([], Fraction(0), {}, job(1, w=2, p=1), HALF, 0)
    assert dec.rejected == ()
    assert dec.new_w == 2
    assert dec.branch == "no-s/p-large"


def test_weight_gap_small_tail_charges_counter():
    a = job(1, w=8, p=8)  # density 1
    j = job(2, w=1, p=2)  # density 1/2, tail; p=2 < eps*p_a=4
    dec = weight_gap_reject([a], Fraction(0), {}, j, HALF, 0)
    assert dec.branch == "no-s/no-reject"
    assert dec.rejected == ()
    assert dec.counter_updates == {1: Fraction(1)}
    assert dec.new_w == 1


def test_weight_gap_counter_tipping_rejects_pair():
    a = job(1, w=8, p=8)
    j = job(2, w=1, p=2)
    dec = weight_gap_reject([a], Fraction(0), {1: Fraction(7)}, j, HALF, 0)
    assert dec.branch == "no-s/counter-reject"
    assert dec.rejected == (1, 2)
    assert dec.new_w == 0


def test_weight_gap_self_rejection_on_covered_budget():
    # Arrival lighter than the budget allows is rejected alone.
    dec = weight_gap_reject([], Fraction(10), {}, job(1, w=1, p=1), HALF, 0)
    assert dec.branch == "s/j-inside-only-suffix"
    assert dec.rejected == (1,)
    assert dec.new_w == Fraction(9)


def test_weight_gap_does_not_mutate_inputs():
    V = [job(1, w=8, p=8)]
    counters = {1: Fraction(3)}
    j = job(2, w=1, p=2)
    weight_gap_reject(V, Fraction(0), counters, j, HALF, 0)
    assert counters == {1: Fraction(3)}
    assert V[0].weight == 8


# --- budget split index ---


def rho_queue(weights):
    return [job(k, w=w, p=1) for k, w in enumerate(weights)]


def test_rho_examples():
    assert compute_rho(rho_queue([3, 2, 1]), Fraction(2)) == 3
    assert compute_rho(rho_queue([3, 2, 1]), Fraction(0)) == 4
    assert compute_rho(rho_queue([3, 2, 1]), Fraction(5)) == 2


def test_rho_out_of_range():
    with pytest.raises(RhoUndefined):
        compute_rho([], Fraction(0))
    with pytest.raises(RhoUndefined):
        compute_rho(rho_queue([3, 2, 1]), Fraction(6))
    with pytest.raises(RhoUndefined):
        compute_rho(rho_queue([3, 2, 1]), Fraction(-1))


# --- dispatch scoring ---


def test_alpha_on_empty_machine():
    state = MachineState(id=0)
    j = job(1, w=1, p=2)
    alpha, _ = compute_alpha_ij(state, j, jobs_by_id(j), HALF)
    assert alpha == Fraction(163, 2)


def test_alpha_pair_rejection_case():
    # Pivot's counter is one short of its weight, so the hypothetical run
    # rejects the arrival together with the queue tail: the rebate is
    # w_j * (p_j + p_tail) with no budget term.
    a = job(1, w=8, p=8)
    state = MachineState(id=0, pending=[1], W=Fraction(0),
                         count2={1: Fraction(7, 1)})
    j = job(2, w=1, p=2)
    # main: 20*1*2/(1/2) + 1*8 + 1*2 + 2*0 = 90; rebate: 1*(2+8) = 10
    alpha, dec = compute_alpha_ij(state, j, jobs_by_id(a, j), HALF)
    assert alpha == 80
    assert dec.rejected == (1, 2)


def test_alpha_identical_snapshots_give_identical_scores():
    a = job(1, w=3, p=4)
    j = JobSpec(id=2, release=Fraction(0), weight=Fraction(2),
                proc={0: Fraction(5), 1: Fraction(5)})
    s0 = MachineState(id=0, pending=[1], W=Fraction(2))
    s1 = MachineState(id=1, pending=[1], W=Fraction(2))
    b = JobSpec(id=1, release=Fraction(0), weight=Fraction(3),
                proc={0: Fraction(4), 1: Fraction(4)})
    jobs = {1: b, 2: j}
    assert compute_alpha_ij(s0, j, jobs, HALF) == compute_alpha_ij(s1, j, jobs, HALF)


def test_alpha_leaves_snapshot_untouched():
    a = job(1, w=8, p=8)
    state = MachineState(id=0, pending=[1], W=Fraction(3), count2={1: Fraction(2)})
    before = copy.deepcopy(state)
    j = job(2, w=1, p=2)
    compute_alpha_ij(state, j, jobs_by_id(a, j), HALF)
    assert state == before


def test_dispatch_single_machine():
    j = job(1, w=1, p=2)
    machine, alpha_j, alphas, _ = dispatch([MachineState(id=0)], j, jobs_by_id(j), HALF)
    assert machine == 0
    assert alphas == [Fraction(163, 2)]
    assert alpha_j == HALF / (1 + HALF) * alphas[0]


def test_dispatch_argmin_and_tie_break():
    j = JobSpec(id=1, release=Fraction(0), weight=Fraction(1),
                proc={0: Fraction(2), 1: Fraction(1), 2: Fraction(3)})
    states = [MachineState(id=i) for i in range(3)]
    machine, _, alphas, _ = dispatch(states, j, {1: j}, HALF)
    assert machine == 1
    assert alphas[1] < alphas[0] < alphas[2]

    tie = JobSpec(id=1, release=Fraction(0), weight=Fraction(1),
                  proc={0: Fraction(2), 1: Fraction(2)})
    machine, _, alphas, _ = dispatch([MachineState(id=0), MachineState(id=1)],
                                     tie, {1: tie}, HALF)
    assert machine == 0
    assert alphas[0] == alphas[1]


def test_dispatch_reads_machines_only():
    # Scoring reads the live machines, so it must leave every field as it
    # was, and the decision it returns is the rule's on the chosen machine.
    def two_machine_job(id, w, p0, p1):
        return JobSpec(id=id, release=Fraction(0), weight=Fraction(w),
                       proc={0: Fraction(p0), 1: Fraction(p1)})

    jobs = jobs_by_id(two_machine_job(1, 8, 8, 3), two_machine_job(2, 1, 2, 2),
                      two_machine_job(3, 2, 4, 4), two_machine_job(4, 5, 1, 6))
    states = [
        MachineState(id=0, running=3, run_start=Fraction(0), pending=[1],
                     W=Fraction(3), count1=Fraction(1), count2={1: Fraction(2)}),
        MachineState(id=1, pending=[4], W=Fraction(1), count2={4: Fraction(1)}),
    ]
    before = copy.deepcopy(states)
    machine, _, _, dec = dispatch(states, jobs[2], jobs, HALF)
    assert states == before
    chosen = states[machine]
    assert dec == weight_gap_reject([jobs[h] for h in chosen.pending], chosen.W,
                                    chosen.count2, jobs[2], HALF, machine)


def test_dispatch_requires_a_machine():
    with pytest.raises(ValueError):
        dispatch([], job(1, w=1, p=1), {}, HALF)


# --- randomized invariants of the weight-gap decision ---

small_frac = st.builds(Fraction, st.integers(1, 12), st.sampled_from([1, 1, 2]))


@st.composite
def queue_scenarios(draw):
    k = draw(st.integers(0, 6))
    members = [
        job(i, w=draw(small_frac), p=draw(small_frac), r=draw(st.integers(0, 5)))
        for i in range(k)
    ]
    members.sort(key=lambda x: queue_key(x, 0))
    j = job(100, w=draw(small_frac), p=draw(small_frac), r=5)
    if members:
        # Keep the budget under the reachable-state ceiling set by the tail.
        tail_w = members[-1].weight
        W = draw(small_frac.filter(lambda f: f < 2 * tail_w)) - Fraction(1, 2)
        W = max(Fraction(0), min(W, 2 * tail_w - Fraction(1, 4)))
    else:
        W = draw(small_frac)
    counters = {
        m.id: draw(st.integers(0, max(0, m.weight.numerator - 1))) / m.weight.denominator
        for m in members
    }
    counters = {k2: Fraction(v) for k2, v in counters.items() if v}
    return members, W, counters, j


@settings(max_examples=300, deadline=None)
@given(queue_scenarios())
def test_weight_gap_invariants(scenario):
    V, W, counters, j = scenario
    dec = weight_gap_reject(V, W, counters, j, HALF, 0)

    assert dec.branch in BRANCHES
    # Rejections take a contiguous suffix of the combined order.
    order = [h.id for h in sorted([*V, j], key=lambda h: queue_key(h, 0))]
    n_rej = len(dec.rejected)
    assert dec.rejected == tuple(order[len(order) - n_rej:])

    # Zero-budget branches zero the budget.
    if dec.branch in ZERO_BUDGET_BRANCHES:
        assert dec.new_w == 0
    assert dec.new_w >= 0

    # Budget update formula.
    by_id = {m.id: m for m in V}
    by_id[j.id] = j
    rej_w = sum((by_id[h].weight for h in dec.rejected), Fraction(0))
    assert dec.new_w == max(Fraction(0), W + j.weight - rej_w / HALF)

    # Survivor tail keeps the budget strictly small.
    survivors = [h for h in order if h not in set(dec.rejected)]
    if survivors:
        assert HALF * dec.new_w < by_id[survivors[-1]].weight

    if j.id in dec.rejected:
        # The arrival goes alone or with the old queue tail.
        if n_rej == 1:
            assert dec.rejected == (j.id,)
        else:
            assert n_rej == 2 and V and dec.rejected == (V[-1].id, j.id)
    elif dec.rejected:
        # Without the arrival, all but the lightest-position reject is small.
        excess = rej_w - by_id[dec.rejected[-1]].weight
        assert excess <= 2 * HALF * j.weight


@settings(max_examples=100, deadline=None)
@given(queue_scenarios())
def test_weight_gap_purity(scenario):
    V, W, counters, j = scenario
    v_copy = list(V)
    c_copy = dict(counters)
    weight_gap_reject(V, W, counters, j, HALF, 0)
    assert V == v_copy
    assert counters == c_copy
