"""The sweep-based price curves and checks against their quadratic reference.

Each fast checker must return the reference's report field for field:
name, verdict, exact margin and witness. That covers failing runs too, so
forged traces and certificates are compared as well as honest ones. The
prefix facts that the monotonicity check derives from the full trace must
equal ``replay_prefix``'s, and the check built on them must equal both
references: the naive one and the full-curve walk it replaced. A forged
full trace must make the walk raise.
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
    _prefix_views,
    build_certificate,
    check_dual_feasibility,
    check_main_inequality,
    check_monotonicity,
    check_weight_balance,
    objectives,
)
from flowreject.engine import replay_prefix, simulate
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
    # The dual objective, from per-job areas, against the curves' integrals.
    dual = sum(cert.alpha.values(), Fraction(0)) - sum(
        (ref.integral(b) for b in ref_cert.beta), Fraction(0)
    )
    assert objectives(cert, outcome).dual_obj == dual


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


def prefix_facts(view, jobs):
    """What a prefix run's completion estimates read for the given jobs:
    L, machine, rejection cause and trigger, arrival record, and each
    machine's mid-run rejections."""
    return (
        {h: view.L[h] for h in jobs},
        {h: view.machine_of[h] for h in jobs},
        {h: view.reject_cause[h] for h in jobs},
        {h: view.reject_trigger[h] for h in jobs},
        {h: view.arrivals[h] for h in jobs},
        view.r1_events,
    )


def assert_prefixes_match_replay(instance):
    # Compared after the whole walk, so a container that one view shares
    # with a later one would show the later events.
    views = list(_prefix_views(simulate(instance)))
    assert [job for job, _ in views] == list(instance.jobs)
    for k, (_, view) in enumerate(views, start=1):
        replay = replay_prefix(instance, k)
        assert prefix_facts(view, replay.jobs) == prefix_facts(replay, replay.jobs), k


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
                report = check_monotonicity(simulate(instance))
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
    assert fields(check_monotonicity(simulate(instance))) == expected


def start_skips_queue_head(outcome):
    """A start in mid-run that names the job of the machine's next start,
    which is not the head of its queue then."""
    starts = [k for k, rec in enumerate(outcome.events) if rec.kind == "start"]
    pairs = [
        (k, nxt)
        for k in starts
        if (nxt := next((n for n in starts if n > k and outcome.events[n].machine
                         == outcome.events[k].machine), None)) is not None
    ]
    k, nxt = pairs[len(pairs) // 2]
    events = list(outcome.events)
    events[k] = dataclasses.replace(events[k], job=events[nxt].job)
    return dataclasses.replace(outcome, events=events), "starts, but the queue is"


def running_job_is_not_kappa(outcome):
    """An arrival record in mid-run that says its machine was idle while the
    log has a job running there."""
    busy = [j for j, info in outcome.arrivals.items() if info.kappa is not None]
    j = busy[len(busy) // 2]
    arrivals = {**outcome.arrivals, j: dataclasses.replace(outcome.arrivals[j], kappa=None)}
    return dataclasses.replace(outcome, arrivals=arrivals), "its arrival record says None"


def mid_run(outcome, kind):
    """The index of an event of ``kind`` halfway through the log."""
    ks = [k for k, rec in enumerate(outcome.events) if rec.kind == kind]
    return ks[len(ks) // 2]


def forged_log(outcome, k, **changes):
    events = list(outcome.events)
    events[k] = dataclasses.replace(events[k], **changes)
    return dataclasses.replace(outcome, events=events)


def start_before_release(outcome):
    k = mid_run(outcome, "start")
    release = outcome.jobs[outcome.events[k].job].release
    return forged_log(outcome, k, time=release - 1), "starts before its release"


def start_on_busy_machine(outcome):
    """A start of a queued job moved in front of the completion that freed
    its machine."""
    events = outcome.events
    pairs = [
        (c, k)
        for c, done in enumerate(events) if done.kind == "complete"
        for k, rec in enumerate(events[c + 1:], c + 1)
        if rec.kind == "start" and rec.machine == done.machine and rec.time == done.time
        and outcome.jobs[rec.job].release < rec.time
    ]
    c, k = pairs[len(pairs) // 2]
    events = list(events)
    events.insert(c, events.pop(k))
    return dataclasses.replace(outcome, events=events), "starts while"


def completion_off_its_duration(outcome):
    k = mid_run(outcome, "complete")
    return forged_log(outcome, k, time=outcome.events[k].time + 1), "not at its start plus p"


def second_arrival(outcome):
    arrival = outcome.events[mid_run(outcome, "arrival")]
    forged = dataclasses.replace(outcome, events=[*outcome.events, arrival])
    return forged, "arrives a second time"


def rejection_by_earlier_arrival(outcome):
    k = mid_run(outcome, "reject_weight_gap")
    first = outcome.instance.jobs[0].id
    return forged_log(outcome, k, trigger=first), f"triggered by job {first}, not arriving"


def job_never_leaves(outcome):
    """The log without the completion of the job that finishes last."""
    *events, last = outcome.events
    assert last.kind == "complete"
    return dataclasses.replace(outcome, events=events), f"job {last.job} never leaves"


@pytest.mark.parametrize(
    "forgery",
    [
        start_skips_queue_head,
        running_job_is_not_kappa,
        start_before_release,
        start_on_busy_machine,
        completion_off_its_duration,
        second_arrival,
        rejection_by_earlier_arrival,
        job_never_leaves,
    ],
)
def test_walk_rejects_forged_trace(forgery):
    # The prefix runs are derived from the full trace, so the walk must
    # raise on a trace that is not a run, not report on it.
    forged, match = forgery(simulate(generate(congested_spec(40, 2, Fraction(1, 2), 1))))
    with pytest.raises(AssertionError, match=match):
        check_monotonicity(forged)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_random_instances_prefixes_match_replay(instance):
    assert_prefixes_match_replay(instance)
    report = fields(check_monotonicity(simulate(instance)))
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


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 4)])
def test_long_queues_match_reference(eps):
    # One machine with work arriving as fast as it is done: queues of 20 to
    # 50 jobs, many weight-gap rejections, and charges large enough that
    # dual feasibility walks past the release.
    for seed in (0, 1, 2):
        outcome = simulate(generate(congested_spec(120, 1, eps, seed)))
        assert max(len(s.pending) for s in outcome.snapshots[0]) >= 20
        assert_matches_reference(outcome)


def queued_segment(outcome, cert):
    """A grid segment [a, b) of machine 0 and a job queued on it."""
    grid = sorted(set(outcome.event_times()) | set(cert.beta[0].breakpoints))
    for a, b in zip(grid, grid[1:]):
        pending = ref.state_at(outcome, 0, a).pending
        if pending:
            return a, b, outcome.jobs[pending[-1]]
    raise AssertionError("no job is ever queued on machine 0")


@pytest.mark.parametrize("kink", ["ramp_start", "estimate"])
def test_main_inequality_rejects_kink_inside_segment(kink):
    # Move one queued job's estimate so that its ramp start, or the estimate
    # itself, falls strictly inside a grid segment. The price curves, and so
    # the grid, stay as they were, so its term bends inside the segment.
    outcome = congested_outcome()
    cert = build_certificate(outcome)
    a, b, job = queued_segment(outcome, cert)
    mid = (a + b) / 2
    ct = mid + job.proc[0] if kink == "ramp_start" else mid
    assert a < ct - job.proc[0] < b if kink == "ramp_start" else a < ct < b
    forged = dataclasses.replace(cert, ctilde={**cert.ctilde, job.id: ct})
    with pytest.raises(AssertionError, match="inequality terms not linear"):
        check_main_inequality(forged, outcome)


def test_main_inequality_estimate_at_release_matches_reference():
    # A queued job whose estimate is forged down to its release has no
    # support left: its term is zero on every segment, as in the reference.
    outcome = congested_outcome()
    cert = build_certificate(outcome)
    _, _, job = queued_segment(outcome, cert)
    forged = dataclasses.replace(cert, ctilde={**cert.ctilde, job.id: job.release})
    assert fields(check_main_inequality(forged, outcome)) == fields(
        ref.check_main_inequality(forged, outcome)
    )


def test_dual_objective_matches_integral_on_short_estimates():
    # Estimates below r + p, where the ramp starts at the release, and
    # estimates at or before the release, with no area; the curves are
    # rebuilt from them, so the per-job areas must equal their integrals.
    outcome = congested_outcome()
    cert = build_certificate(outcome)
    ctilde = dict(cert.ctilde)
    jobs = outcome.instance.jobs
    for k, job in enumerate(jobs):
        p = job.proc[outcome.machine_of[job.id]]
        ctilde[job.id] = [job.release + p / 3, job.release, job.release - 1, ctilde[job.id]][k % 4]
    beta = [
        PiecewiseLinear(
            piece
            for job in jobs
            if outcome.machine_of[job.id] == i
            for piece in analysis._price_pieces(job, i, ctilde[job.id], cert.c_beta)
        )
        for i in range(outcome.instance.machines)
    ]
    forged = dataclasses.replace(cert, ctilde=ctilde, beta=beta)
    dual = sum(cert.alpha.values(), Fraction(0)) - sum(map(ref.integral, beta), Fraction(0))
    assert objectives(forged, outcome).dual_obj == dual


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
