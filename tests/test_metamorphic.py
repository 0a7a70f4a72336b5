"""Exact invariances of the policy and its checks.

Every decision compares weights with weights or densities with densities,
so scaling all weights by c > 0 must leave the run unchanged: the same
events, with the dual charges alpha scaled by c, every objective scaled by
c, and every check's margin scaled by exactly c at the same witness.
"""

import dataclasses
from fractions import Fraction

import pytest

from flowreject.analysis import build_certificate, objectives, run_all_checks
from flowreject.engine import simulate
from flowreject.generate import WorkloadSpec, generate
from flowreject.instance import make_instance

# The two benchmark workload shapes, (m, mean interarrival, eps), at small n.
SHAPES = {
    "run": (2, 3, Fraction(1, 2)),
    "verify": (4, 1, Fraction(1, 4)),
}


def scale_weights(instance, c):
    jobs = [dataclasses.replace(j, weight=c * j.weight) for j in instance.jobs]
    return make_instance(instance.machines, jobs, instance.epsilon)


def scale_alpha(event, c):
    return dataclasses.replace(
        event,
        alpha_j=None if event.alpha_j is None else c * event.alpha_j,
        alpha_all=None if event.alpha_all is None else tuple(c * a for a in event.alpha_all),
    )


@pytest.mark.parametrize("c", [Fraction(3), Fraction(2, 7)])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("seed", range(6))
def test_scaling_weights_scales_margins(c, shape, seed):
    m, mean_interarrival, eps = SHAPES[shape]
    spec = WorkloadSpec(n=16, m=m, p_min=1, p_max=10, w_min=1, w_max=10,
                        mean_interarrival=mean_interarrival, seed=seed, epsilon=eps)
    instance = generate(spec)
    base = simulate(instance)
    scaled = simulate(scale_weights(instance, c))

    assert scaled.events == [scale_alpha(e, c) for e in base.events]
    base_cert = build_certificate(base)
    scaled_cert = build_certificate(scaled)
    base_objs = objectives(base_cert, base)
    scaled_objs = objectives(scaled_cert, scaled)
    for name, value in vars(base_objs).items():
        assert getattr(scaled_objs, name) == c * value, name
    base_reports = run_all_checks(base_cert, base, base_objs, with_monotonicity=True)
    scaled_reports = run_all_checks(scaled_cert, scaled, scaled_objs, with_monotonicity=True)
    for before, after in zip(base_reports, scaled_reports, strict=True):
        assert after.name == before.name
        assert after.margin == c * before.margin, before.name
        assert after.witness == before.witness, before.name
