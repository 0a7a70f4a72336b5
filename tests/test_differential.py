"""The sweep-based price curves and checks against their quadratic reference.

Each fast checker must return the reference's report field for field:
name, verdict, exact margin and witness. That covers failing runs too, so
forged traces and certificates are compared as well as honest ones. The
one-run prefix outcomes must equal ``replay_prefix`` field for field, and the
delta monotonicity check built on them must equal both references: the naive
one and the full-curve walk it replaced. A forged prefix must make the delta
check raise.
"""

import dataclasses
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

import quadratic_reference as ref
from flowreject import analysis
from flowreject.analysis import (
    PiecewiseLinear,
    build_certificate,
    check_dual_feasibility,
    check_main_inequality,
    check_monotonicity,
    check_weight_balance,
)
from flowreject.engine import prefix_outcomes, replay_prefix, simulate
from flowreject.generate import WorkloadSpec, generate
from flowreject.instance import JobSpec, make_instance


def reference_certificate(outcome):
    with patch.object(analysis, "PiecewiseLinear", ref.ReferencePiecewiseLinear):
        return build_certificate(outcome)


def curve(beta):
    return beta.breakpoints, beta._slopes, beta._intercepts


def fields(report):
    return report.name, report.passed, report.margin, report.witness


def assert_checks_match(outcome, cert, ref_cert):
    assert fields(check_dual_feasibility(cert, outcome)) == fields(
        ref.check_dual_feasibility(ref_cert, outcome)
    )
    assert fields(check_main_inequality(cert, outcome)) == fields(
        ref.check_main_inequality(ref_cert, outcome)
    )
    assert fields(check_weight_balance(outcome)) == fields(ref.check_weight_balance(outcome))


def assert_matches_reference(outcome):
    cert = build_certificate(outcome)
    ref_cert = reference_certificate(outcome)
    assert [curve(b) for b in cert.beta] == [curve(b) for b in ref_cert.beta]
    assert_checks_match(outcome, cert, ref_cert)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("mean_interarrival", [1, 3])
@pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 2)])
def test_seeded_sweep_matches_reference(m, mean_interarrival, eps):
    for seed in (0, 1, 2):
        spec = WorkloadSpec(n=30, m=m, p_min=1, p_max=10, w_min=1, w_max=10,
                            mean_interarrival=mean_interarrival, seed=seed, epsilon=eps)
        assert_matches_reference(simulate(generate(spec)))


def rationals(lo, hi):
    return st.builds(Fraction, st.integers(lo, hi), st.sampled_from([1, 2, 3]))


@st.composite
def instances(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(0, 10))
    jobs = [
        JobSpec(
            id=j,
            release=draw(rationals(0, 30)),
            weight=draw(rationals(1, 10)),
            proc={i: draw(rationals(1, 10)) for i in range(m)},
        )
        for j in range(n)
    ]
    eps = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]))
    return make_instance(m, jobs, eps)


@settings(max_examples=80, deadline=None)
@given(instances())
def test_random_instances_match_reference(instance):
    assert_matches_reference(simulate(instance))


def outcome_fields(outcome):
    """Every field of a SimOutcome, with dicts as item lists so that key
    order counts."""
    out = {}
    for f in dataclasses.fields(outcome):
        value = getattr(outcome, f.name)
        if f.name == "instance":
            value = (value.machines, tuple(value.jobs), value.epsilon)
        elif isinstance(value, dict):
            value = list(value.items())
        out[f.name] = value
    return out


def assert_prefixes_match_replay(instance):
    # Compared after the whole run, so a container that a fork shares with
    # the live run would show the later events.
    outcomes = list(prefix_outcomes(instance))
    assert len(outcomes) == len(instance.jobs) + 1
    for k, outcome in enumerate(outcomes):
        assert outcome_fields(outcome) == outcome_fields(replay_prefix(instance, k)), k


def congested_spec(n, m, eps, seed):
    # Mean interarrival 1 gives same-time arrivals and queues of several jobs.
    return WorkloadSpec(n=n, m=m, p_min=1, p_max=10, w_min=1, w_max=10,
                        mean_interarrival=1, seed=seed, epsilon=eps)


SWEEP_EPSILONS = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("eps", SWEEP_EPSILONS)
def test_prefix_outcomes_match_replay(m, eps):
    for seed in range(5):
        assert_prefixes_match_replay(generate(congested_spec(14, m, eps, seed)))


def test_monotonicity_matches_naive_reference():
    failing = 0
    for m in (1, 2, 3):
        for eps in SWEEP_EPSILONS:
            for seed in range(8):
                instance = generate(congested_spec(14, m, eps, seed))
                report = check_monotonicity(instance)
                assert fields(report) == fields(ref.check_monotonicity(instance))
                assert fields(report) == fields(ref.check_monotonicity_full_walk(instance))
                failing += not report.passed
    # The same-time preempt-rejection defect makes 10 of these fail, so
    # failing margins and witnesses are compared too.
    assert failing == 10


def test_monotonicity_matches_naive_reference_on_congested_benchmark_input():
    instance = generate(congested_spec(80, 4, Fraction(1, 4), 2))
    expected = ("monotonicity", False, Fraction(48, 85), (2, Fraction(43), 39))
    assert fields(ref.check_monotonicity(instance)) == expected
    assert fields(ref.check_monotonicity_full_walk(instance)) == expected
    assert fields(check_monotonicity(instance)) == expected


def forging_prefix(k, forge):
    """Patches ``analysis.prefix_outcomes`` so that prefix k's outcome is
    replaced by ``forge(outcome)``."""
    honest = analysis.prefix_outcomes

    def forged(instance):
        for n, outcome in enumerate(honest(instance)):
            yield forge(outcome) if n == k else outcome

    return patch.object(analysis, "prefix_outcomes", forged)


def shift_departed_l(before, r):
    """A job that left before r, and a forgery that moves its L."""
    h = next((h for h, left in before.L.items() if left < r), None)
    if h is None:
        return None
    return f"job {h}", lambda o: dataclasses.replace(o, L={**o.L, h: o.L[h] + Fraction(1, 7)})


def inflate_early_r1_event(before, r):
    """A mid-run rejection before r, and a forgery that changes its work."""
    early = [
        (i, n)
        for i, events in enumerate(before.r1_events)
        for n, (t, _, _) in enumerate(events)
        if t < r
    ]
    if not early:
        return None
    i, n = early[0]

    def forge(outcome):
        r1 = [list(events) for events in outcome.r1_events]
        t, h, q = r1[i][n]
        r1[i][n] = (t, h, q + 1)
        return dataclasses.replace(outcome, r1_events=r1)

    return f"machine {i}", forge


@pytest.mark.parametrize("forgery", [shift_departed_l, inflate_early_r1_event])
def test_reuse_check_rejects_forged_prefix(forgery):
    # A reused estimate is only sound if its inputs are equal in both
    # prefixes. Forge one input in one prefix, in the middle of the run:
    # the check must raise, not report.
    instance = generate(congested_spec(40, 2, Fraction(1, 2), 1))
    outcomes = list(prefix_outcomes(instance))
    candidates = [
        (k, found)
        for k, job in enumerate(instance.jobs, start=1)
        if (found := forgery(outcomes[k - 1], job.release)) is not None
    ]
    assert candidates
    k, (match, forge) = candidates[len(candidates) // 2]
    with forging_prefix(k, forge), pytest.raises(AssertionError, match=match):
        check_monotonicity(instance)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_random_instances_prefixes_match_replay(instance):
    assert_prefixes_match_replay(instance)
    report = fields(check_monotonicity(instance))
    assert report == fields(ref.check_monotonicity(instance))
    assert report == fields(ref.check_monotonicity_full_walk(instance))


pieces = st.lists(
    st.tuples(rationals(-5, 10), rationals(-5, 10), rationals(-4, 4), rationals(-9, 9)),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(pieces)
def test_piecewise_linear_matches_reference(piece_list):
    assert curve(PiecewiseLinear(piece_list)) == curve(ref.ReferencePiecewiseLinear(piece_list))


@settings(max_examples=200, deadline=None)
@given(pieces, st.lists(rationals(-7, 12), max_size=5))
@example([], [Fraction(0)])
@example([], [])
def test_walk_matches_bisection(piece_list, extra):
    beta = PiecewiseLinear(piece_list)
    # A sorted superset of the breakpoints, the last breakpoint included.
    points = sorted(set(beta.breakpoints) | set(extra))
    assert list(beta.walk(points)) == [(beta.value(t), beta.value_left(t)) for t in points]


def congested_outcome():
    return simulate(generate(congested_spec(40, 2, Fraction(1, 4), 3)))


@pytest.fixture(params=["e1", "congested"])
def outcome(request, e1_outcome):
    return e1_outcome if request.param == "e1" else congested_outcome()


def test_inflated_alpha_matches_reference(outcome):
    cert = build_certificate(outcome)
    forged = dataclasses.replace(cert, alpha={j: 2 * a for j, a in cert.alpha.items()})
    assert not check_dual_feasibility(forged, outcome).passed
    assert_checks_match(outcome, forged, forged)


def test_zeroed_budget_matches_reference(outcome):
    zeroed = [
        [dataclasses.replace(s, W=Fraction(0)) for s in machine_snaps]
        for machine_snaps in outcome.snapshots
    ]
    forged = dataclasses.replace(outcome, snapshots=zeroed)
    assert not check_main_inequality(build_certificate(forged), forged).passed
    assert_matches_reference(forged)


def test_inflated_budget_charge_matches_reference(outcome):
    # A budget far above the real one makes the weight-balance debit win.
    arrivals = {
        j: dataclasses.replace(info, w_after=1000 * (info.w_after + 1))
        for j, info in outcome.arrivals.items()
    }
    forged = dataclasses.replace(outcome, arrivals=arrivals)
    assert not check_weight_balance(forged).passed
    assert_matches_reference(forged)


def test_forged_price_curve_matches_reference(outcome):
    # A high plateau that ends at the last event, under charges large enough
    # that no cutoff comes first: the worst point is the last breakpoint.
    cert = build_certificate(outcome)
    end = outcome.event_times()[-1]
    plateau = [PiecewiseLinear([(Fraction(0), end, Fraction(0), Fraction(10**6))])] * len(cert.beta)
    forged = dataclasses.replace(
        cert, alpha={j: 10**4 * a for j, a in cert.alpha.items()}, beta=plateau
    )
    report = check_dual_feasibility(forged, outcome)
    assert not report.passed and report.witness[1] == end
    assert fields(report) == fields(ref.check_dual_feasibility(forged, outcome))
