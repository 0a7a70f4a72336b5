"""The sweep-based price curves and checks against their quadratic reference.

Each fast checker must return the reference's report field for field:
name, verdict, exact margin and witness. That covers failing runs too, so
forged traces and certificates are compared as well as honest ones.
"""

import dataclasses
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import quadratic_reference as ref
from flowreject import analysis
from flowreject.analysis import (
    PiecewiseLinear,
    build_certificate,
    check_dual_feasibility,
    check_main_inequality,
    check_weight_balance,
)
from flowreject.engine import simulate
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


pieces = st.lists(
    st.tuples(rationals(-5, 10), rationals(-5, 10), rationals(-4, 4), rationals(-9, 9)),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(pieces)
def test_piecewise_linear_matches_reference(piece_list):
    assert curve(PiecewiseLinear(piece_list)) == curve(ref.ReferencePiecewiseLinear(piece_list))


def congested_outcome():
    spec = WorkloadSpec(n=40, m=2, p_min=1, p_max=10, w_min=1, w_max=10,
                        mean_interarrival=1, seed=3, epsilon=Fraction(1, 4))
    return simulate(generate(spec))


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
