import dataclasses
import json
from fractions import Fraction

import pytest

from flowreject.analysis import (
    GridRequired,
    PiecewiseLinear,
    build_certificate,
    check_alpha_lower_bound,
    check_dual_feasibility,
    check_main_inequality,
    check_monotonicity,
    check_structural_properties,
    check_theorem_chain,
    check_weight_balance,
    definitive_completion,
    fractional_weight,
    objectives,
    run_all_checks,
    slot_lp_cost,
)
from flowreject.cli import build_report
from flowreject.engine import simulate
from flowreject.generate import WorkloadSpec, generate
from flowreject.instance import JobSpec, make_instance
from flowreject.rational import format_rational

from conftest import FIXTURES

HALF = Fraction(1, 2)


def mk(machines, eps, rows):
    jobs = [
        JobSpec(id=i, release=Fraction(r), weight=Fraction(w),
                proc={k: Fraction(p) for k, p in enumerate(ps)})
        for i, r, w, *ps in rows
    ]
    return make_instance(machines, jobs, eps)


# --- piecewise-linear plumbing ---


def test_piecewise_linear_evaluation():
    # One ramp 2t on [0,2), then constant 4 on [2,5).
    fn = PiecewiseLinear([
        (Fraction(0), Fraction(2), Fraction(2), Fraction(0)),
        (Fraction(2), Fraction(5), Fraction(0), Fraction(4)),
    ])
    assert fn.value(Fraction(1)) == 2
    assert fn.value(Fraction(3)) == 4
    assert fn.value(Fraction(-1)) == 0
    assert fn.value(Fraction(5)) == 0
    assert fn.value_left(Fraction(2)) == 4
    assert fn.value_left(Fraction(5)) == 4
    assert fn.integral() == Fraction(4) + Fraction(12)


def test_piecewise_linear_overlapping_pieces_sum():
    fn = PiecewiseLinear([
        (Fraction(0), Fraction(4), Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(3), Fraction(0), Fraction(2)),
    ])
    assert fn.value(Fraction(0)) == 1
    assert fn.value(Fraction(2)) == 3
    assert fn.value(Fraction(3)) == 1
    assert fn.integral() == 4 + 4


# --- fractional weight ---


def test_fractional_weight_plateau_and_ramp():
    args = dict(ctilde=Fraction(10), p_ij=Fraction(2), w_j=Fraction(4),
                r_j=Fraction(0))
    assert fractional_weight(Fraction(5), **args) == 4
    assert fractional_weight(Fraction(8), **args) == 4  # plateau edge
    assert fractional_weight(Fraction(9), **args) == 2  # mid-ramp
    near_end = fractional_weight(Fraction(10) - Fraction(1, 1000), **args)
    assert near_end == Fraction(4) * Fraction(1, 1000) / 2  # -> 0 at the end


def test_fractional_weight_zero_outside_support():
    args = dict(ctilde=Fraction(10), p_ij=Fraction(2), w_j=Fraction(4),
                r_j=Fraction(3))
    assert fractional_weight(Fraction(2), **args) == 0  # before release
    assert fractional_weight(Fraction(3), **args) == 4  # support starts at r_j
    assert fractional_weight(Fraction(10), **args) == 0  # support ends before ctilde


# --- completion estimates, one per case ---


def test_completion_estimate_completed_no_waste(e1_outcome):
    assert definitive_completion(e1_outcome, 3) == 3  # equals its completion


def test_completion_estimate_midrun_rejection_adds_own_remainder(e1_outcome):
    # The long job is cut at t=2 with 2 units left.
    assert definitive_completion(e1_outcome, 1) == 4


def test_completion_estimate_rejected_alone_on_arrival(e1_outcome):
    assert definitive_completion(e1_outcome, 2) == 5


def test_completion_estimate_completed_with_foreign_waste():
    # Job 1 waits in queue while job 0 runs; job 3's arrival cuts job 0 at
    # t=3 with 2 units left, strictly inside job 1's window, so the estimate
    # is its completion plus that wasted remainder.
    inst = mk(1, Fraction(1, 4), [
        (0, 0, 8, 5), (1, 1, 9, 9), (2, 2, 3, 9), (3, 3, 20, 1),
    ])
    out = simulate(inst)
    assert out.C[1] == 13
    assert out.r1_events[0] == [(3, 0, Fraction(2))]
    assert definitive_completion(out, 1) == 15
    # The rejection sits at job 3's own release, outside its half-open
    # window, so job 3 gets no waste term.
    assert definitive_completion(out, 3) == 4
    # And the job rejected alone at t=2 interpolates the budget line.
    assert definitive_completion(out, 2) == 15


def test_completion_estimate_queue_rejected_by_later_arrival(e3_instance):
    out = simulate(e3_instance)
    assert out.arrivals[2].r2 == (1, 2)
    # Job 1 was queued and is removed by job 2's arrival. Its estimate adds
    # the runner's remainder (3, counted regardless of density) and its own
    # processing time from the rejected set.
    assert out.reject_trigger[1] == 2
    assert definitive_completion(out, 1) == Fraction(11, 2)
    # Job 2 is rejected on its own arrival together with the old tail:
    # release + own processing + all queued work (here the runner's 3 left).
    assert definitive_completion(out, 2) == 6


def test_completion_estimate_unknown_job(e1_outcome):
    with pytest.raises(KeyError):
        definitive_completion(e1_outcome, 99)


# --- certificate construction ---


def test_certificate_matches_golden_file(e1_outcome):
    cert = build_certificate(e1_outcome)
    golden = json.loads((FIXTURES / "e1_certificate.json").read_text())
    assert {str(j): format_rational(a) for j, a in cert.alpha.items()} == golden["alpha"]
    assert {str(j): format_rational(c) for j, c in cert.ctilde.items()} == golden["ctilde"]
    assert format_rational(cert.c_alpha) == golden["c_alpha"]
    assert format_rational(cert.c_beta) == golden["c_beta"]
    fn = cert.beta[0]
    gb = golden["beta"][0]
    assert [format_rational(t) for t in fn.breakpoints] == gb["breakpoints"]
    assert [format_rational(fn.value(t)) for t in fn.breakpoints] == gb["values"]
    assert [format_rational(fn.value_left(t)) for t in fn.breakpoints] == gb["left_values"]


def test_certificate_scaling_constant_arithmetic(e1_outcome):
    cert = build_certificate(e1_outcome)
    # Two plateau weights 2 and 3 would combine to 4/3 at this epsilon.
    assert cert.c_beta * (2 + 3) == Fraction(4, 3)


def test_certificate_idle_machine_has_zero_beta():
    # Both jobs prefer machine 0 (tiny processing there), machine 1 idles.
    inst = mk(2, HALF, [(0, 0, 2, 1, 50), (1, 3, 2, 1, 50)])
    out = simulate(inst)
    assert set(out.machine_of.values()) == {0}
    cert = build_certificate(out)
    assert cert.beta[1].breakpoints == []
    assert cert.beta[1].integral() == 0
    assert cert.beta[1].value(Fraction(1)) == 0


def test_certificate_completed_jobs_bounded_by_estimate(e1_outcome):
    cert = build_certificate(e1_outcome)
    for j, ct in cert.ctilde.items():
        assert e1_outcome.L[j] <= ct
        if e1_outcome.C[j] is not None:
            assert e1_outcome.C[j] <= ct


# --- checks on the golden trace ---


def test_all_checks_pass_on_e1(e1_outcome):
    cert = build_certificate(e1_outcome)
    reports = run_all_checks(cert, e1_outcome, objectives(cert, e1_outcome))
    assert [r.name for r in reports] == [
        "structural_properties",
        "dual_feasibility",
        "main_inequality",
        "weight_balance",
        "alpha_lower_bound",
        "theorem_chain",
    ]
    assert all(r.passed for r in reports)
    assert all(r.margin <= 0 for r in reports)


def test_checks_pass_on_fixture_instances(e3_instance, counter_tail_instance,
                                          idling_instance):
    for inst in (e3_instance, counter_tail_instance, idling_instance):
        out = simulate(inst)
        cert = build_certificate(out)
        reports = run_all_checks(cert, out, objectives(cert, out)) + [check_monotonicity(out)]
        assert all(r.passed for r in reports), [
            (r.name, r.margin) for r in reports if not r.passed
        ]


def test_dual_feasibility_detects_inflated_alpha(e1_outcome):
    cert = build_certificate(e1_outcome)
    corrupted = dataclasses.replace(
        cert, alpha={j: 2 * a for j, a in cert.alpha.items()}
    )
    report = check_dual_feasibility(corrupted, e1_outcome)
    assert not report.passed
    assert report.margin > 0
    machine, time, jobid = report.witness
    assert machine == 0 and jobid in (1, 2, 3) and time is not None


def test_main_inequality_detects_zeroed_budget(e1_outcome):
    out = dataclasses.replace(e1_outcome) if dataclasses.is_dataclass(e1_outcome) else e1_outcome
    zeroed = [
        [dataclasses.replace(s, W=Fraction(0)) for s in machine_snaps]
        for machine_snaps in out.snapshots
    ]
    corrupted = dataclasses.replace(out, snapshots=zeroed)
    report = check_main_inequality(build_certificate(corrupted), corrupted)
    assert not report.passed
    assert report.margin > 0
    assert report.witness[1] is not None


def test_structural_check_detects_forged_branch(e1_outcome):
    # Claim a budget-zeroing branch while keeping a positive budget.
    forged_arrivals = dict(e1_outcome.arrivals)
    forged_arrivals[1] = dataclasses.replace(
        forged_arrivals[1], branch="s/w-large"
    )
    corrupted = dataclasses.replace(e1_outcome, arrivals=forged_arrivals)
    report = check_structural_properties(corrupted)
    assert not report.passed


def test_weight_balance_and_alpha_bound_on_e1(e1_outcome):
    cert = build_certificate(e1_outcome)
    assert check_weight_balance(e1_outcome).passed
    assert check_alpha_lower_bound(cert, e1_outcome).passed


def test_theorem_chain_margin_on_e1(e1_outcome):
    cert = build_certificate(e1_outcome)
    report = check_theorem_chain(cert, e1_outcome, objectives(cert, e1_outcome))
    assert report.passed
    # dual objective 4799/30 against the scaled estimate sum 6/5.
    assert report.margin == Fraction(6, 5) - Fraction(4799, 30)


# --- objectives ---


def test_objectives_single_job_slot_cost():
    inst = mk(1, HALF, [(0, 0, 1, 2)])
    out = simulate(inst)
    objs = objectives(build_certificate(out), out)
    assert objs.primal_lp_cost == Fraction(85, 2)
    assert objs.alg_weighted_flow == 2


def test_objectives_empty_instance():
    inst = make_instance(1, [], HALF)
    out = simulate(inst)
    objs = objectives(build_certificate(out), out)
    assert objs.dual_obj == 0
    assert objs.primal_lp_cost == 0
    assert objs.alg_weighted_flow == 0
    assert objs.sum_w_ctilde == 0


def test_objectives_e1_golden_values(e1_outcome):
    objs = objectives(build_certificate(e1_outcome), e1_outcome)
    assert objs.dual_obj == Fraction(4799, 30)
    assert objs.primal_lp_cost == 42
    assert objs.alg_weighted_flow == 2
    assert objs.sum_w_ctilde == 18


def test_objectives_grid_requirement():
    inst = mk(1, HALF, [(0, 0, 1, Fraction(1, 2))])
    out = simulate(inst)
    cert = build_certificate(out)
    objs = objectives(cert, out)
    assert objs.primal_lp_cost is None
    with pytest.raises(GridRequired):
        slot_lp_cost(inst, {0: (0, Fraction(0))})


def test_slot_lp_cost_single_assignment():
    inst = mk(1, HALF, [(0, 0, 1, 2)])
    assert slot_lp_cost(inst, {0: (0, Fraction(0))}) == Fraction(85, 2)


# --- monotonicity ---


def test_monotonicity_single_job():
    inst = mk(1, HALF, [(0, 0, 1, 5)])
    report = check_monotonicity(simulate(inst))
    assert report.passed


def test_monotonicity_e1(e1_instance):
    report = check_monotonicity(simulate(e1_instance))
    assert report.passed
    assert report.margin <= 0


def test_run_all_checks_optional_monotonicity(e1_instance, e1_outcome):
    # The trace checks leave monotonicity out; only verify's report adds it.
    cert = build_certificate(e1_outcome)
    names = [r.name for r in run_all_checks(cert, e1_outcome, objectives(cert, e1_outcome))]
    assert "monotonicity" not in names
    run_report, _ = build_report(e1_instance)
    verify_report, _ = build_report(e1_instance, monotonicity=True)
    assert [c["name"] for c in run_report["checks"]] == names
    assert verify_report["checks"][:-1] == run_report["checks"]
    assert verify_report["checks"][-1]["name"] == "monotonicity"
    assert verify_report["checks"][-1]["passed"]


# --- randomized cross-checks at small scale ---


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_estimates_dominate_departures_random(seed):
    spec = WorkloadSpec(n=14, m=2, p_min=1, p_max=7, w_min=1, w_max=7,
                        mean_interarrival=2, seed=seed)
    inst = generate(spec)
    out = simulate(inst)
    cert = build_certificate(out)
    for j, ct in cert.ctilde.items():
        assert out.L[j] <= ct
        assert out.jobs[j].release <= ct
    reports = run_all_checks(cert, out, objectives(cert, out))
    assert all(r.passed for r in reports)
