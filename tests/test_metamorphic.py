"""Exact invariances of the policy and its checks.

Every decision compares weights with weights or densities with densities,
so scaling all weights by c > 0 must leave the run unchanged: the same
events, with the dual charges alpha scaled by c, every objective scaled by
c, and every check's margin scaled by exactly c at the same witness.

Likewise, scaling every release and processing time by c scales every time
of the run by c and keeps every decision. And the policy reads job ids only
to break ties in (release, id) order, so renaming ids in a way that keeps
that order changes nothing but the ids.

The time-scaling and renaming properties run on seeded generated instances,
and through hypothesis on ``test_differential.instances``, whose releases
and processing times are off the integer grid.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flowreject.analysis import (
    build_certificate,
    check_monotonicity,
    objectives,
    run_all_checks,
)
from flowreject.engine import simulate
from flowreject.generate import WorkloadSpec, generate
from flowreject.instance import make_instance
from test_differential import SWEEP_EPSILONS, congested_spec, instances

# The two benchmark workload shapes, (m, mean interarrival, eps), at small n.
SHAPES = {
    "run": (2, 3, Fraction(1, 2)),
    "verify": (4, 1, Fraction(1, 4)),
}
SCALES = [Fraction(3), Fraction(2, 7)]


def spec_cases():
    """The benchmark shapes, then seeds 0-3 of the mean-interarrival-1 sweep
    of test_differential: same-time arrivals and queues of several jobs.
    6 of those 48 fail monotonicity, so failing margins and witnesses are
    compared too."""
    for shape, (m, mean_interarrival, eps) in sorted(SHAPES.items()):
        for seed in range(6):
            yield pytest.param(
                WorkloadSpec(n=16, m=m, p_min=1, p_max=10, w_min=1, w_max=10,
                             mean_interarrival=mean_interarrival, seed=seed, epsilon=eps),
                id=f"{shape}-{seed}",
            )
    for m in (1, 2, 3):
        for eps in SWEEP_EPSILONS:
            for seed in range(4):
                yield pytest.param(
                    congested_spec(14, m, eps, seed),
                    id=f"sweep-m{m}-eps{eps.numerator}_{eps.denominator}-{seed}",
                )


SPECS = list(spec_cases())


def certify(instance):
    """The run, its certificate and objectives, and all seven reports."""
    outcome = simulate(instance)
    cert = build_certificate(outcome)
    objs = objectives(cert, outcome)
    reports = run_all_checks(cert, outcome, objs) + [check_monotonicity(outcome)]
    return outcome, cert, objs, reports


def scale_weights(instance, c):
    jobs = [dataclasses.replace(j, weight=c * j.weight) for j in instance.jobs]
    return make_instance(instance.machines, jobs, instance.epsilon)


def scale_alpha(event, c):
    return dataclasses.replace(
        event,
        alpha_j=None if event.alpha_j is None else c * event.alpha_j,
        alpha_all=None if event.alpha_all is None else tuple(c * a for a in event.alpha_all),
    )


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("seed", range(6))
def test_scaling_weights_scales_margins(c, shape, seed):
    m, mean_interarrival, eps = SHAPES[shape]
    spec = WorkloadSpec(n=16, m=m, p_min=1, p_max=10, w_min=1, w_max=10,
                        mean_interarrival=mean_interarrival, seed=seed, epsilon=eps)
    instance = generate(spec)
    base, _, base_objs, base_reports = certify(instance)
    scaled, _, scaled_objs, scaled_reports = certify(scale_weights(instance, c))

    assert scaled.events == [scale_alpha(e, c) for e in base.events]
    for name, value in vars(base_objs).items():
        assert getattr(scaled_objs, name) == c * value, name
    for before, after in zip(base_reports, scaled_reports, strict=True):
        assert after.name == before.name
        assert after.margin == c * before.margin, before.name
        assert after.witness == before.witness, before.name


def scale_times(instance, c):
    jobs = [
        dataclasses.replace(j, release=c * j.release, proc={i: c * p for i, p in j.proc.items()})
        for j in instance.jobs
    ]
    return make_instance(instance.machines, jobs, instance.epsilon)


def scale_event(event, c):
    """The event of the time-scaled run: its time, the preempted work and the
    charges (weight times processing time) scale by c."""
    return dataclasses.replace(
        scale_alpha(event, c),
        time=c * event.time,
        q=None if event.q is None else c * event.q,
    )


# Margins that are ratios of like quantities stay equal; the weight-balance
# ledger (weight times work) and the alpha bound scale by c. The theorem
# chain is left out: its slot cost is not homogeneous in time.
TIME_INVARIANT = {"structural_properties", "dual_feasibility", "main_inequality", "monotonicity"}
TIME_SCALED = {"weight_balance", "alpha_lower_bound"}


def assert_scaling_times_keeps_decisions(instance, c):
    base, base_cert, base_objs, base_reports = certify(instance)
    scaled, scaled_cert, scaled_objs, scaled_reports = certify(scale_times(instance, c))

    assert scaled.events == [scale_event(e, c) for e in base.events]
    assert scaled_cert.ctilde == {j: c * v for j, v in base_cert.ctilde.items()}
    assert scaled_cert.alpha == {j: c * a for j, a in base_cert.alpha.items()}
    assert scaled_objs.alg_weighted_flow == c * base_objs.alg_weighted_flow
    for before, after in zip(base_reports, scaled_reports, strict=True):
        assert after.name == before.name
        if before.name in TIME_INVARIANT:
            assert after.margin == before.margin, before.name
        elif before.name in TIME_SCALED:
            assert after.margin == c * before.margin, before.name
        if before.witness is not None:
            machine, t, job = before.witness
            assert after.witness == (machine, None if t is None else c * t, job), before.name


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("spec", SPECS)
def test_scaling_times_keeps_decisions(c, spec):
    assert_scaling_times_keeps_decisions(generate(spec), c)


# Off-grid releases and processing times, where the seeded cases have none.
@settings(max_examples=40, deadline=None)
@given(instances(), st.sampled_from(SCALES))
def test_scaling_times_keeps_decisions_random(instance, c):
    assert_scaling_times_keeps_decisions(instance, c)


def rename_ids(instance):
    """Maps id -> 3 id + 5, which keeps the (release, id) order."""
    jobs = [dataclasses.replace(j, id=3 * j.id + 5) for j in instance.jobs]
    return make_instance(instance.machines, jobs, instance.epsilon)


def assert_renaming_ids_changes_nothing(instance):
    base, _, base_objs, base_reports = certify(instance)
    renamed, _, renamed_objs, renamed_reports = certify(rename_ids(instance))

    def shape(events):
        return [(e.kind, e.time, e.machine) for e in events]

    assert shape(renamed.events) == shape(base.events)
    assert renamed_objs == base_objs
    for before, after in zip(base_reports, renamed_reports, strict=True):
        assert (after.name, after.passed, after.margin) == (
            before.name, before.passed, before.margin
        )
        if before.witness is not None:
            machine, t, job = before.witness
            assert after.witness == (machine, t, None if job is None else 3 * job + 5)


@pytest.mark.parametrize("spec", SPECS)
def test_renaming_ids_in_order_changes_nothing(spec):
    assert_renaming_ids_changes_nothing(generate(spec))


@settings(max_examples=40, deadline=None)
@given(instances())
def test_renaming_ids_in_order_changes_nothing_random(instance):
    assert_renaming_ids_changes_nothing(instance)
