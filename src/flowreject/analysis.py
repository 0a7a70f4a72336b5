"""Dual certificates and exact inequality checks over simulation traces.

A finished trace is turned into a certificate: the per-job charge fixed at
dispatch, a per-machine price curve over time, and a conservative completion
estimate for every job including rejected ones. Each guarantee the policy
claims becomes a checker returning a CheckReport. All arithmetic is exact
rational; margins are oriented so that LHS - RHS <= 0 means pass, and the
reported margin is the worst value seen.

Every time-indexed quantity here is piecewise linear between a known set of
breakpoints (event times plus the price curves' own kinks). Checks therefore
evaluate each segment at its left endpoint, its right endpoint as a left
limit under the segment's frozen membership, and once at the midpoint, where
exact linear interpolation is asserted. That makes the finite evaluation
decide the inequality for all real t.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .engine import SimOutcome, replay_prefix
from .instance import Instance
from .policy import ZERO_BUDGET_BRANCHES, compute_rho

__all__ = [
    "UnknownJob",
    "OutOfSupport",
    "GridRequired",
    "PiecewiseLinear",
    "CheckReport",
    "DualCertificate",
    "Objectives",
    "definitive_completion",
    "fractional_weight",
    "build_certificate",
    "check_dual_feasibility",
    "check_main_inequality",
    "check_weight_balance",
    "check_alpha_lower_bound",
    "check_structural_properties",
    "check_theorem_chain",
    "check_monotonicity",
    "objectives",
    "slot_lp_cost",
    "run_all_checks",
]

_ZERO = Fraction(0)


class UnknownJob(KeyError):
    pass


class OutOfSupport(ValueError):
    pass


class GridRequired(ValueError):
    pass


class PiecewiseLinear:
    """Sum of linear pieces consolidated into disjoint segments.

    Built from (start, end, slope, intercept) pieces, each contributing
    slope*t + intercept on [start, end). Evaluation is right-continuous;
    ``value_left`` gives the limit from below. Zero outside all pieces.

    Construction is one sweep: each piece adds its slope and intercept at
    its start and subtracts them at its end, and prefix sums over the sorted
    endpoints give every segment's coefficients. For P pieces that costs
    O(P log P); evaluation is a bisection, O(log P).
    """

    __slots__ = ("breakpoints", "_slopes", "_intercepts")

    def __init__(self, pieces: Iterable[tuple[Fraction, Fraction, Fraction, Fraction]]):
        deltas: dict[Fraction, list[Fraction]] = {}
        for start, end, m, c in pieces:
            if start < end:
                d = deltas.setdefault(start, [_ZERO, _ZERO])
                d[0] += m
                d[1] += c
                d = deltas.setdefault(end, [_ZERO, _ZERO])
                d[0] -= m
                d[1] -= c
        points = sorted(deltas)
        self.breakpoints: list[Fraction] = points
        self._slopes: list[Fraction] = []
        self._intercepts: list[Fraction] = []
        slope = intercept = _ZERO
        for a in points[:-1]:
            dm, dc = deltas[a]
            slope += dm
            intercept += dc
            self._slopes.append(slope)
            self._intercepts.append(intercept)

    def value(self, t: Fraction) -> Fraction:
        pts = self.breakpoints
        if not pts or t < pts[0] or t >= pts[-1]:
            return _ZERO
        idx = bisect_right(pts, t) - 1
        return self._slopes[idx] * t + self._intercepts[idx]

    def value_left(self, t: Fraction) -> Fraction:
        pts = self.breakpoints
        if not pts or t <= pts[0] or t > pts[-1]:
            return _ZERO
        idx = bisect_left(pts, t) - 1
        return self._slopes[idx] * t + self._intercepts[idx]

    def integral(self) -> Fraction:
        total = _ZERO
        pts = self.breakpoints
        for idx, (a, b) in enumerate(zip(pts, pts[1:])):
            m = self._slopes[idx]
            c = self._intercepts[idx]
            total += m * (b * b - a * a) / 2 + c * (b - a)
        return total


@dataclass(frozen=True)
class CheckReport:
    """Result of one checker. ``margin`` is the worst LHS - RHS over all
    evaluation points; at most 0 exactly when the check passes. ``witness``
    is (machine, time, job) for the worst point, elements None where they do
    not apply."""

    name: str
    passed: bool
    margin: Fraction
    witness: tuple[int | None, Fraction | None, int | None] | None


@dataclass(frozen=True)
class DualCertificate:
    alpha: dict[int, Fraction]
    beta: list[PiecewiseLinear]
    ctilde: dict[int, Fraction]
    c_alpha: Fraction
    c_beta: Fraction


@dataclass(frozen=True)
class Objectives:
    dual_obj: Fraction
    primal_lp_cost: Fraction | None
    alg_weighted_flow: Fraction
    sum_w_ctilde: Fraction


def fractional_weight(
    j: int,
    t: Fraction,
    ctilde: Fraction,
    p_ij: Fraction,
    w_j: Fraction,
    r_j: Fraction,
) -> Fraction:
    """Weight plateau then linear ramp to zero over the last p_ij of support."""
    if not r_j <= t < ctilde:
        raise OutOfSupport(f"job {j}: t={t} outside [{r_j}, {ctilde})")
    if t <= ctilde - p_ij:
        return w_j
    return w_j * (ctilde - t) / p_ij


def definitive_completion(outcome: SimOutcome, j: int) -> Fraction:
    """Conservative completion estimate used by the dual accounting.

    Four cases by how the job left the system: (1) it completed or was
    rejected mid-run, (2) it was queue-rejected when some other job arrived,
    (3) it was rejected on its own arrival together with the old queue tail,
    (4) it was rejected on its own arrival alone. In every case the estimate
    is the departure time plus the work that would plausibly have delayed the
    job had it stayed.
    """
    jobs = outcome.jobs
    if j not in jobs:
        raise UnknownJob(j)
    job = jobs[j]
    cause = outcome.reject_cause[j]
    L = outcome.L[j]
    i = outcome.machine_of[j]

    if cause != "weight_gap":
        return L + _preempt_wasted(outcome, i, job.release, L)

    trigger = outcome.reject_trigger[j]
    assert trigger is not None
    if trigger != j:
        # Queue-rejected by someone else's arrival. Queued work counts only
        # at higher density (lower-density queue members would be overtaken),
        # but the job already running blocks the machine for everyone, so its
        # remainder counts regardless of density.
        trig = outcome.arrivals[trigger]
        dens_j = job.density(i)
        ahead_u = sum(
            (
                q
                for h, q in trig.u_after
                if h == trig.kappa or jobs[h].density(i) >= dens_j
            ),
            _ZERO,
        )
        higher_r2 = sum(
            (jobs[h].proc[i] for h in trig.r2 if jobs[h].density(i) >= dens_j), _ZERO
        )
        return L + _preempt_wasted(outcome, i, job.release, L) + ahead_u + higher_r2

    info = outcome.arrivals[j]
    p_ij = job.proc[i]
    if len(info.r2) > 1:
        # Rejected together with the old tail: everything still queued counts.
        return L + p_ij + sum((q for _, q in info.u_after), _ZERO)

    # Rejected alone on arrival. Work ahead of the budget line counts, plus
    # the running job unless a mid-run rejection happened here.
    kappa_term = _ZERO
    if info.kappa is not None and not info.r1_here:
        kappa_term = info.kappa_q
    v_before = [jobs[h] for h in info.v_before]
    total_w = sum((h.weight for h in v_before), _ZERO)
    if not v_before or info.w_after >= total_w:
        # Budget covers the whole queue; no interpolation point exists.
        return L + p_ij + kappa_term
    rho = compute_rho(v_before, info.w_after)
    ahead = sum((h.proc[i] for h in v_before[: rho - 2]), _ZERO)
    suffix_w = sum((h.weight for h in v_before[rho - 1 :]), _ZERO)
    pivot = v_before[rho - 2]
    interp = (1 - (info.w_after - suffix_w) / pivot.weight) * pivot.proc[i]
    return L + p_ij + ahead + interp + kappa_term


def _preempt_wasted(outcome: SimOutcome, i: int, r: Fraction, L: Fraction) -> Fraction:
    """Remaining work of jobs rejected mid-run on machine i during (r, L]."""
    return sum((q for t, _, q in outcome.r1_events[i] if r < t <= L), _ZERO)


def build_certificate(outcome: SimOutcome) -> DualCertificate:
    eps = outcome.instance.epsilon
    c_alpha = eps / (1 + eps)
    c_beta = eps / ((1 + eps) * (1 + eps * eps))
    ctilde = {j.id: definitive_completion(outcome, j.id) for j in outcome.instance.jobs}
    beta: list[PiecewiseLinear] = []
    for i in range(outcome.instance.machines):
        pieces = []
        for job in outcome.instance.jobs:
            if outcome.machine_of.get(job.id) != i:
                continue
            ct = ctilde[job.id]
            p = job.proc[i]
            ramp_start = max(job.release, ct - p)
            if job.release < ramp_start:
                pieces.append((job.release, ramp_start, _ZERO, c_beta * job.weight))
            if ramp_start < ct:
                w = c_beta * job.weight
                pieces.append((ramp_start, ct, -w / p, w * ct / p))
        beta.append(PiecewiseLinear(pieces))
    return DualCertificate(
        alpha=dict(outcome.alpha),
        beta=beta,
        ctilde=ctilde,
        c_alpha=c_alpha,
        c_beta=c_beta,
    )


class _Worst:
    """Tracks the worst margin and its witness."""

    def __init__(self) -> None:
        self.margin: Fraction | None = None
        self.witness: tuple | None = None

    def offer(self, margin: Fraction, witness: tuple) -> None:
        if self.margin is None or margin > self.margin:
            self.margin = margin
            self.witness = witness

    def report(self, name: str, empty_margin: Fraction = _ZERO) -> CheckReport:
        if self.margin is None:
            return CheckReport(name, True, empty_margin, None)
        return CheckReport(name, self.margin <= 0, self.margin, self.witness)


def check_dual_feasibility(cert: DualCertificate, outcome: SimOutcome) -> CheckReport:
    """Every (job, machine) pair must satisfy the dual constraint at all t.

    The constraint is alpha_j/p_ij - beta_i(t) <= w_j((t - r_j)/p_ij + 21)
    for t >= r_j. Both sides are piecewise linear with kinks only at the
    price curve's breakpoints, so those points, their left limits, and one
    interpolation-checked midpoint per segment decide all t. Once the right
    side alone dominates alpha_j/p_ij the remaining tail passes for free.

    The walk starts at r_j and then visits the breakpoints after r_j by
    index from a bisection, stopping at the cutoff. A pair therefore costs
    O(log B + k) for B breakpoints and k points visited before the cutoff,
    usually one or two.
    """
    worst = _Worst()
    for job in outcome.instance.jobs:
        for i in range(outcome.instance.machines):
            p = job.proc[i]
            w = job.weight
            r = job.release
            a_over_p = cert.alpha[job.id] / p
            beta = cert.beta[i]

            def lhs_minus_rhs(t: Fraction, left: bool = False) -> Fraction:
                b = beta.value_left(t) if left else beta.value(t)
                return a_over_p - b - w * (t - r) / p - 21 * w

            # Beyond this point the constraint holds even with zero price.
            cutoff = r + cert.alpha[job.id] / w - 21 * p
            points = beta.breakpoints
            k = bisect_right(points, r)
            prev: Fraction | None = None
            t = r
            while True:
                if prev is not None:
                    worst.offer(lhs_minus_rhs(t, left=True), (i, t, job.id))
                    mid = (prev + t) / 2
                    interp = (lhs_minus_rhs(prev) + lhs_minus_rhs(t, left=True)) / 2
                    if lhs_minus_rhs(mid) != interp:
                        raise AssertionError(
                            f"price curve not linear on [{prev}, {t}) for machine {i}"
                        )
                worst.offer(lhs_minus_rhs(t), (i, t, job.id))
                if t >= cutoff or k == len(points):
                    break
                prev, t = t, points[k]
                k += 1
    return worst.report("dual_feasibility")


def _wf_of(outcome: SimOutcome, cert: DualCertificate, h: int, i: int, t: Fraction) -> Fraction:
    """Fractional weight of job h on machine i at t, zero outside its support."""
    job = outcome.jobs[h]
    ct = cert.ctilde[h]
    if t < job.release or t >= ct:
        return _ZERO
    return fractional_weight(h, t, ct, job.proc[i], job.weight, job.release)


def check_main_inequality(cert: DualCertificate, outcome: SimOutcome) -> CheckReport:
    """Queued fractional weight beyond the budget, plus the running job's
    density-scaled remainder, must stay within 1/eps times the fractional
    weight of already-rejected jobs still in the accounting.

    The grid is the event times and the price curve's breakpoints. The
    rejected jobs, sorted by release, enter an active set once released and
    leave it at their completion estimate. A segment therefore costs a
    snapshot lookup plus the size of its queue and its active set, not a
    rescan of every rejected job: O(G log G) per machine for G grid points
    while queues stay short.
    """
    eps = outcome.instance.epsilon
    jobs = outcome.jobs
    worst = _Worst()
    event_times = outcome.event_times()
    for i in range(outcome.instance.machines):
        rejected_here = sorted(
            (
                h
                for h in jobs
                if outcome.reject_cause[h] == "weight_gap" and outcome.machine_of[h] == i
            ),
            key=lambda h: jobs[h].release,
        )
        grid = sorted(set(event_times) | set(cert.beta[i].breakpoints))
        if not grid:
            continue
        grid.append(grid[-1] + 1)
        members_r: list[int] = []
        released = 0
        for a, b in zip(grid, grid[1:]):
            snap = outcome.state_at(i, a)
            run_job = jobs[snap.running] if snap.running is not None else None
            members_v = list(snap.pending)
            while released < len(rejected_here) and jobs[rejected_here[released]].release <= a:
                members_r.append(rejected_here[released])
                released += 1
            members_r = [h for h in members_r if a < cert.ctilde[h]]

            def value(t: Fraction) -> Fraction:
                total = -snap.W
                if run_job is not None:
                    q = run_job.proc[i] - (t - snap.run_start)
                    total += run_job.density(i) * q
                for h in members_v:
                    total += _wf_of(outcome, cert, h, i, t)
                rhs = sum((_wf_of(outcome, cert, h, i, t) for h in members_r), _ZERO)
                return total - rhs / eps

            va = value(a)
            vb = value(b)
            mid = (a + b) / 2
            if value(mid) * 2 != va + vb:
                raise AssertionError(
                    f"machine {i}: inequality terms not linear on [{a}, {b})"
                )
            worst.offer(va, (i, a, None))
            worst.offer(vb, (i, b, None))
    return worst.report("main_inequality")


def check_weight_balance(outcome: SimOutcome) -> CheckReport:
    """Per-machine weight-balance ledger at every event time, plus the
    end-of-run aggregate bound it implies.

    The debit side charges the budget held at each surviving arrival; the
    credit side collects rejected work, departed work, the live budget
    against the queue tail, and a 1/eps mass of everything dispatched.

    Every per-job term switches on once and stays: the debits d1, d2 and
    the 1/eps mass b3 at the job's release, the departed work b1 or b2 once
    it has also left (L). The ledger is therefore one sweep over the event
    times through the jobs' steps sorted by time, plus the live-budget term
    read off the snapshot: O((n + T) log(n + T)) per machine for n
    dispatched jobs and T event times, not O(n T).
    """
    eps = outcome.instance.epsilon
    jobs = outcome.jobs
    worst = _Worst()
    times = outcome.event_times()
    for i in range(outcome.instance.machines):
        dispatched = [j for j in outcome.instance.jobs if outcome.machine_of.get(j.id) == i]
        steps: list[tuple[Fraction, Fraction]] = []
        for job in dispatched:
            info = outcome.arrivals[job.id]
            p_ij = job.proc[i]
            d1 = d2 = _ZERO
            if job.id not in info.r2:
                d1 += eps * eps * info.w_after * p_ij
                if (
                    info.nu_before is not None
                    and info.nu_after == job.id
                    and p_ij < eps * jobs[info.nu_before].proc[i]
                ):
                    d1 -= job.weight * jobs[info.nu_before].proc[i]
            elif len(info.r2) == 1:
                if info.nu_after is not None:
                    d2 += job.weight * jobs[info.nu_after].proc[i]
            elif info.nu_before is not None:
                d2 += jobs[info.nu_before].weight * jobs[info.nu_before].proc[i]
            b3 = job.weight * p_ij / eps
            steps.append((job.release, d1 - d2 - b3))
            # Departed work: b1 if weight-gap rejected, else b2 (completion or
            # mid-run rejection). It counts once the job is released and gone.
            steps.append((max(job.release, outcome.L[job.id]), -job.weight * p_ij))
        steps.sort(key=lambda step: step[0])
        ledger = _ZERO
        done = 0
        for t in times:
            while done < len(steps) and steps[done][0] <= t:
                ledger += steps[done][1]
                done += 1
            snap = outcome.state_at(i, t)
            margin = ledger
            if snap.pending:
                margin -= eps * snap.W * jobs[snap.pending[-1]].proc[i]
            worst.offer(margin, (i, t, None))
        end_lhs = sum(
            (
                eps * eps * outcome.arrivals[j.id].w_after * j.proc[i]
                for j in dispatched
                if j.id not in outcome.arrivals[j.id].r2
            ),
            _ZERO,
        )
        end_rhs = sum((j.weight * j.proc[i] for j in dispatched), _ZERO) * 5 / eps
        worst.offer(end_lhs - end_rhs, (i, None, None))
    return worst.report("weight_balance")


def check_alpha_lower_bound(cert: DualCertificate, outcome: SimOutcome) -> CheckReport:
    eps = outcome.instance.epsilon
    total_alpha = sum(cert.alpha.values(), _ZERO)
    weighted_span = sum(
        (j.weight * (cert.ctilde[j.id] - j.release) for j in outcome.instance.jobs),
        _ZERO,
    )
    margin = weighted_span - (1 + eps) / eps * total_alpha
    return CheckReport("alpha_lower_bound", margin <= 0, margin, None)


def check_structural_properties(outcome: SimOutcome) -> CheckReport:
    """Re-derives the four per-arrival queue invariants from the trace:
    zero budget after counter-triggered rejections, budget strictly below
    the tail weight over eps, bounded collateral weight when the arrival
    survives, and rejection sets limited to the arrival and the old tail."""
    eps = outcome.instance.epsilon
    jobs = outcome.jobs
    worst = _Worst()
    for info in outcome.arrivals.values():
        t = info.time
        i = info.machine
        if info.branch in ZERO_BUDGET_BRANCHES and info.w_after != 0:
            worst.offer(info.w_after, (i, t, info.job))
        if info.v_after:
            # Strict bound: equality is already a violation, reported with a
            # sentinel magnitude so the margin stays positive.
            tail_w = jobs[info.v_after[-1]].weight
            margin = eps * info.w_after - tail_w
            if margin >= 0:
                worst.offer(margin if margin > 0 else Fraction(1), (i, t, info.job))
        if info.r2:
            if info.job in info.r2:
                allowed = {info.job}
                if info.nu_before is not None:
                    allowed.add(info.nu_before)
                if not set(info.r2) <= allowed:
                    worst.offer(Fraction(1), (i, t, info.job))
            else:
                excess = (
                    sum((jobs[h].weight for h in info.r2), _ZERO)
                    - jobs[info.r2[-1]].weight
                )
                margin = excess - 2 * eps * jobs[info.job].weight
                if margin > 0:
                    worst.offer(margin, (i, t, info.job))
    return worst.report("structural_properties")


def check_theorem_chain(
    cert: DualCertificate, outcome: SimOutcome, objs: Objectives | None = None
) -> CheckReport:
    """The certified objective must cover its guaranteed share of the
    estimated weighted flow, and the (integer-grid) slot cost must stay
    within its constant factor of the same quantity."""
    eps = outcome.instance.epsilon
    if objs is None:
        objs = objectives(cert, outcome)
    share = eps**3 / ((1 + eps) * (1 + eps * eps))
    worst = _Worst()
    worst.offer(share * objs.sum_w_ctilde - objs.dual_obj, (None, None, None))
    if objs.primal_lp_cost is not None:
        worst.offer(objs.primal_lp_cost - 22 * objs.sum_w_ctilde, (None, None, None))
    return worst.report("theorem_chain")


def objectives(
    cert: DualCertificate, outcome: SimOutcome, include_primal: bool | None = None
) -> Objectives:
    """Objective values of the run: certified dual objective, slot-based
    cost of the realized schedule (integer grid only), realized weighted
    flow of completed jobs, and the estimate-weighted flow of all jobs."""
    if include_primal is None:
        include_primal = outcome.instance.integer_grid
    elif include_primal and not outcome.instance.integer_grid:
        raise GridRequired("slot cost needs integer releases and processing times")
    dual = sum(cert.alpha.values(), _ZERO) - sum(
        (b.integral() for b in cert.beta), _ZERO
    )
    primal: Fraction | None = None
    if include_primal:
        primal = _ZERO
        for job in outcome.instance.jobs:
            c = outcome.C[job.id]
            if c is None:
                continue
            start = outcome.S[job.id]
            p = job.proc[outcome.machine_of[job.id]]
            primal += _slot_cost(job.weight, job.release, start, p)
    swc = sum(
        (j.weight * (cert.ctilde[j.id] - j.release) for j in outcome.instance.jobs),
        _ZERO,
    )
    return Objectives(
        dual_obj=dual,
        primal_lp_cost=primal,
        alg_weighted_flow=outcome.weighted_flow_completed,
        sum_w_ctilde=swc,
    )


def _slot_cost(w: Fraction, r: Fraction, start: Fraction, p: Fraction) -> Fraction:
    # Sum over unit slots start..start+p-1 of w((t - r)/p + 21).
    return w * (start - r) + w * (p - 1) / 2 + 21 * w * p


def slot_lp_cost(
    instance: Instance, assignment: dict[int, tuple[int, Fraction]]
) -> Fraction:
    """Slot-based cost of an arbitrary schedule given as job -> (machine,
    start time). All jobs must be scheduled; integer grid required."""
    if not instance.integer_grid:
        raise GridRequired("slot cost needs integer releases and processing times")
    total = _ZERO
    for job in instance.jobs:
        machine, start = assignment[job.id]
        total += _slot_cost(job.weight, job.release, start, job.proc[machine])
    return total


def check_monotonicity(instance: Instance) -> CheckReport:
    """Adding the next arrival to the input must never lower any machine's
    price curve at any time. Compares consecutive arrival prefixes on the
    union of their breakpoints, including left limits."""
    worst = _Worst()
    prev_cert = build_certificate(replay_prefix(instance, 0))
    for k in range(len(instance.jobs)):
        next_cert = build_certificate(replay_prefix(instance, k + 1))
        added = instance.jobs[k].id
        for i in range(instance.machines):
            lo = prev_cert.beta[i]
            hi = next_cert.beta[i]
            points = sorted(set(lo.breakpoints) | set(hi.breakpoints))
            for t in points:
                worst.offer(lo.value(t) - hi.value(t), (i, t, added))
                worst.offer(lo.value_left(t) - hi.value_left(t), (i, t, added))
        prev_cert = next_cert
    return worst.report("monotonicity")


def run_all_checks(
    cert: DualCertificate,
    outcome: SimOutcome,
    objs: Objectives | None = None,
    with_monotonicity: bool = False,
) -> list[CheckReport]:
    """All trace-level checks in report order; monotonicity is opt-in
    because it replays every prefix. ``objs`` are the run's objectives if
    the caller has them already; otherwise they are computed here."""
    if objs is None:
        objs = objectives(cert, outcome)
    reports = [
        check_structural_properties(outcome),
        check_dual_feasibility(cert, outcome),
        check_main_inequality(cert, outcome),
        check_weight_balance(outcome),
        check_alpha_lower_bound(cert, outcome),
        check_theorem_chain(cert, outcome, objs),
    ]
    if with_monotonicity:
        reports.append(check_monotonicity(outcome.instance))
    return reports
