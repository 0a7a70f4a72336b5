"""Dual certificates and exact inequality checks over simulation traces.

A finished trace is turned into a certificate: the per-job charge fixed at
dispatch, a per-machine price curve over time, and a conservative completion
estimate for every job including rejected ones. Each guarantee the policy
claims becomes a checker returning a CheckReport. All arithmetic is exact
rational; margins are oriented so that LHS - RHS <= 0 means pass, and the
reported margin is the worst value seen.

Every time-indexed quantity here is piecewise linear between a known set of
breakpoints (event times plus the price curves' own kinks). Checks therefore
evaluate each segment, on its own slope and intercept, at its left endpoint
and at its right endpoint as a left limit under the segment's frozen
membership. Dual feasibility asserts exact interpolation at the midpoint,
and the main inequality raises on a kink strictly inside the segment. That
makes the finite evaluation decide the inequality for all real t.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import ChainMap
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterable, Iterator

# replay_prefix is not called here any more; perfbench/spans.py still patches
# it as an attribute of this module.
from .engine import SimOutcome, replay_prefix  # noqa: F401
from .instance import Instance, JobSpec, density
from .policy import ZERO_BUDGET_BRANCHES, compute_rho

__all__ = [
    "GridRequired",
    "PiecewiseLinear",
    "CheckReport",
    "DualCertificate",
    "Objectives",
    "definitive_completion",
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
    O(P log P); evaluation is a bisection, O(log P), and ``walk`` evaluates
    a sorted run of points by advancing one index instead.
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

    def walk(self, points: Iterable[Fraction]) -> Iterator[tuple[Fraction, Fraction]]:
        """Yields ``(value(t), value_left(t))`` for each t of the sorted
        ``points``, with no bisection: O(len(points) + breakpoints)."""
        pts = self.breakpoints
        n = len(pts)
        k = 0  # breakpoints strictly below t
        for t in points:
            while k < n and pts[k] < t:
                k += 1
            left = self._slopes[k - 1] * t + self._intercepts[k - 1] if 0 < k < n else _ZERO
            if k < n and pts[k] == t:
                yield (self._slopes[k] * t + self._intercepts[k] if k < n - 1 else _ZERO), left
            else:
                yield left, left


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
        dens_j = density(job, i)
        ahead = sum(
            (
                jobs[h].proc[i]
                for h in trig.v_after + trig.r2
                if density(jobs[h], i) >= dens_j
            ),
            trig.kappa_q or _ZERO,
        )
        return L + _preempt_wasted(outcome, i, job.release, L) + ahead

    info = outcome.arrivals[j]
    p_ij = job.proc[i]
    if len(info.r2) > 1:
        # Rejected together with the old tail: everything still queued counts.
        queued = sum((jobs[h].proc[i] for h in info.v_after), info.kappa_q or _ZERO)
        return L + p_ij + queued

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


def _price_scale(eps: Fraction) -> Fraction:
    """The factor c_beta on job weights in the price curves."""
    return eps / ((1 + eps) * (1 + eps * eps))


def _price_pieces(
    job: JobSpec, i: int, ct: Fraction, c_beta: Fraction
) -> list[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Job's share of machine i's price curve, given its estimate ``ct``: a
    plateau of c_beta * w_j from r_j, then a ramp to zero over the last p_ij
    before ``ct``. Only pieces of positive length; none when ct <= r_j."""
    p = job.proc[i]
    w = c_beta * job.weight
    ramp_start = max(job.release, ct - p)
    pieces = []
    if job.release < ramp_start:
        pieces.append((job.release, ramp_start, _ZERO, w))
    if ramp_start < ct:
        pieces.append((ramp_start, ct, -w / p, w * ct / p))
    return pieces


def build_certificate(outcome: SimOutcome) -> DualCertificate:
    eps = outcome.instance.epsilon
    c_alpha = eps / (1 + eps)
    c_beta = _price_scale(eps)
    ctilde = {j.id: definitive_completion(outcome, j.id) for j in outcome.instance.jobs}
    beta: list[PiecewiseLinear] = []
    for i in range(outcome.instance.machines):
        pieces = []
        for job in outcome.instance.jobs:
            if outcome.machine_of.get(job.id) == i:
                pieces += _price_pieces(job, i, ctilde[job.id], c_beta)
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

    Each point is evaluated on its known segment: a per-machine index that
    only moves forward over the jobs in release order replaces bisection.
    A pair costs O(1) plus the points before the cutoff, usually none.
    """
    worst = _Worst()
    # Per machine, beta's (slope, intercept) just left of each breakpoint,
    # and zero beyond the last: segs[k] holds where k breakpoints are <= t.
    zero = (_ZERO, _ZERO)
    segs = [[zero, *zip(beta._slopes, beta._intercepts), zero] for beta in cert.beta]
    below = [0] * len(segs)  # per machine: breakpoints at or before the release
    for job in outcome.instance.jobs:
        r = job.release
        w = job.weight
        w21 = 21 * w
        for i, beta in enumerate(cert.beta):
            points = beta.breakpoints
            k = below[i]
            while k < len(points) and points[k] <= r:
                k += 1
            below[i] = k
            p = job.proc[i]
            # lhs - rhs at t is free - beta(t), free = const - w(t - r)/p;
            # past free <= 0 the constraint holds even with zero price.
            free = const = cert.alpha[job.id] / p - w21
            w_p = w / p
            m, c = segs[i][k]
            value = free - (m * r + c)
            worst.offer(value, (i, r, job.id))
            prev = r
            while free > 0 and k < len(points):
                t = points[k]
                free = const - w_p * (t - r)
                m, c = segs[i][k]
                left = free - (m * t + c)
                worst.offer(left, (i, t, job.id))
                mid = (prev + t) / 2
                if 2 * (const - w_p * (mid - r) - (m * mid + c)) != value + left:
                    raise AssertionError(
                        f"price curve not linear on [{prev}, {t}) for machine {i}"
                    )
                m, c = segs[i][k + 1]
                value = free - (m * t + c)
                worst.offer(value, (i, t, job.id))
                prev = t
                k += 1
    return worst.report("dual_feasibility")


def _fw_terms(job: JobSpec, i: int, ct: Fraction, scale) -> tuple:
    """(ramp start, ct, ramp slope, ramp intercept, plateau) of ``job``'s
    fractional weight on machine i times ``scale``, given its estimate ct."""
    p = job.proc[i]
    w_p = job.weight * scale / p
    return ct - p, ct, -w_p, w_p * ct, job.weight * scale


def check_main_inequality(cert: DualCertificate, outcome: SimOutcome) -> CheckReport:
    """Queued fractional weight beyond the budget, plus the running job's
    density-scaled remainder, must stay within 1/eps times the fractional
    weight of already-rejected jobs still in the accounting.

    The grid is the event times and the price curve's breakpoints. On a
    segment [a, b) the value is S*t + I, summed from per-job coefficients
    and the snapshot that a pointer walk keeps, and evaluated at a and b. A
    ramp start or estimate strictly inside (a, b) raises AssertionError.
    """
    scale = -1 / outcome.instance.epsilon
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
        terms_r = [_fw_terms(jobs[h], i, cert.ctilde[h], scale) for h in rejected_here]
        terms_v: dict[int, tuple] = {}
        snaps = outcome.snapshots[i]
        seen = 0  # snapshots at or before a
        members_r: list[tuple] = []
        released = 0
        for a, b in zip(grid, grid[1:]):
            while seen < len(snaps) and snaps[seen].time <= a:
                seen += 1
            slope, intercept = _ZERO, _ZERO
            members_v = []
            if seen:
                snap = snaps[seen - 1]
                intercept = -snap.W
                if snap.running is not None:
                    run_job = jobs[snap.running]
                    slope = -density(run_job, i)
                    intercept -= slope * (run_job.proc[i] + snap.run_start)
                for h in snap.pending:
                    if h not in terms_v:
                        terms_v[h] = _fw_terms(jobs[h], i, cert.ctilde[h], 1)
                    members_v.append(terms_v[h])
            while released < len(rejected_here) and jobs[rejected_here[released]].release <= a:
                members_r.append(terms_r[released])
                released += 1
            members_r = [terms for terms in members_r if a < terms[1]]
            for start, ct, m, c, plateau in members_v + members_r:
                if start >= b:
                    intercept += plateau
                elif ct <= a:
                    continue
                elif start <= a and ct >= b:
                    slope += m
                    intercept += c
                else:
                    raise AssertionError(f"machine {i}: inequality terms not linear on [{a}, {b})")
            worst.offer(slope * a + intercept, (i, a, None))
            worst.offer(slope * b + intercept, (i, b, None))
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
    read off the snapshot that a pointer walk keeps: O(n log n + T) per
    machine for n dispatched jobs and T event times, not O(n T).
    """
    eps = outcome.instance.epsilon
    eps2 = eps * eps
    jobs = outcome.jobs
    worst = _Worst()
    times = outcome.event_times()
    for i in range(outcome.instance.machines):
        dispatched = [j for j in outcome.instance.jobs if outcome.machine_of.get(j.id) == i]
        steps: list[tuple[Fraction, Fraction]] = []
        end_lhs = total_wp = _ZERO
        for job in dispatched:
            info = outcome.arrivals[job.id]
            nu_before = info.v_before[-1] if info.v_before else None
            nu_after = info.v_after[-1] if info.v_after else None
            p_ij = job.proc[i]
            wp = job.weight * p_ij
            total_wp += wp
            step = -wp / eps  # b3
            if job.id not in info.r2:
                budget = eps2 * info.w_after * p_ij
                end_lhs += budget
                step += budget
                if (
                    nu_before is not None
                    and nu_after == job.id
                    and p_ij < eps * jobs[nu_before].proc[i]
                ):
                    step -= job.weight * jobs[nu_before].proc[i]
            elif len(info.r2) == 1:
                if nu_after is not None:
                    step -= job.weight * jobs[nu_after].proc[i]
            elif nu_before is not None:
                step -= jobs[nu_before].weight * jobs[nu_before].proc[i]
            steps.append((job.release, step))
            # Departed work: b1 if weight-gap rejected, else b2 (completion or
            # mid-run rejection). It counts once the job is released and gone.
            steps.append((max(job.release, outcome.L[job.id]), -wp))
        steps.sort(key=lambda step: step[0])
        ledger = _ZERO
        done = 0
        snaps = outcome.snapshots[i]
        seen = 0  # snapshots at or before t
        for t in times:
            while done < len(steps) and steps[done][0] <= t:
                ledger += steps[done][1]
                done += 1
            while seen < len(snaps) and snaps[seen].time <= t:
                seen += 1
            margin = ledger
            if seen and snaps[seen - 1].pending:
                snap = snaps[seen - 1]
                margin -= eps * snap.W * jobs[snap.pending[-1]].proc[i]
            worst.offer(margin, (i, t, None))
        worst.offer(end_lhs - total_wp * 5 / eps, (i, None, None))
    return worst.report("weight_balance")


def check_alpha_lower_bound(
    cert: DualCertificate, outcome: SimOutcome, objs: Objectives
) -> CheckReport:
    """The estimate-weighted flow ``objs.sum_w_ctilde`` must stay within
    (1 + eps)/eps times the dispatch charges."""
    eps = outcome.instance.epsilon
    total_alpha = sum(cert.alpha.values(), _ZERO)
    margin = objs.sum_w_ctilde - (1 + eps) / eps * total_alpha
    return CheckReport("alpha_lower_bound", margin <= 0, margin, None)


def check_structural_properties(outcome: SimOutcome) -> CheckReport:
    """Re-derives the four per-arrival queue invariants from the trace:
    zero budget after counter-triggered rejections, budget strictly below
    the tail weight over eps, bounded collateral weight when the arrival
    survives, and rejection sets limited to the arrival and the old tail."""
    eps = outcome.instance.epsilon
    jobs = outcome.jobs
    worst = _Worst()
    for j, info in outcome.arrivals.items():
        t = jobs[j].release
        i = outcome.machine_of[j]
        if info.branch in ZERO_BUDGET_BRANCHES and info.w_after != 0:
            worst.offer(info.w_after, (i, t, j))
        if info.v_after:
            # Strict bound: equality is already a violation, reported with a
            # sentinel magnitude so the margin stays positive.
            tail_w = jobs[info.v_after[-1]].weight
            margin = eps * info.w_after - tail_w
            if margin >= 0:
                worst.offer(margin if margin > 0 else Fraction(1), (i, t, j))
        if info.r2:
            if j in info.r2:
                allowed = {j, *info.v_before[-1:]}
                if not set(info.r2) <= allowed:
                    worst.offer(Fraction(1), (i, t, j))
            else:
                excess = (
                    sum((jobs[h].weight for h in info.r2), _ZERO)
                    - jobs[info.r2[-1]].weight
                )
                margin = excess - 2 * eps * jobs[j].weight
                if margin > 0:
                    worst.offer(margin, (i, t, j))
    return worst.report("structural_properties")


def check_theorem_chain(
    cert: DualCertificate, outcome: SimOutcome, objs: Objectives
) -> CheckReport:
    """The certified objective must cover its guaranteed share of the
    estimated weighted flow, and the (integer-grid) slot cost must stay
    within its constant factor of the same quantity. ``objs`` are the
    run's objectives, ``objectives(cert, outcome)``."""
    eps = outcome.instance.epsilon
    share = eps**3 / ((1 + eps) * (1 + eps * eps))
    worst = _Worst()
    worst.offer(share * objs.sum_w_ctilde - objs.dual_obj, (None, None, None))
    if objs.primal_lp_cost is not None:
        worst.offer(objs.primal_lp_cost - 22 * objs.sum_w_ctilde, (None, None, None))
    return worst.report("theorem_chain")


def objectives(cert: DualCertificate, outcome: SimOutcome) -> Objectives:
    """Objective values of the run: certified dual objective, slot-based
    cost of the realized schedule (integer grid only, else None), realized
    weighted flow of completed jobs, and the estimate-weighted flow of all
    jobs.

    The dual objective is the charges minus the area under the price
    curves, summed per job: c_beta w_j (ctilde - r_j - p_ij / 2), or
    c_beta w_j (ctilde - r_j)^2 / (2 p_ij) when the ramp starts at r_j."""
    swc = area = _ZERO  # area: twice the area under the curves, over c_beta
    for job in outcome.instance.jobs:
        span = cert.ctilde[job.id] - job.release
        w_span = job.weight * span
        swc += w_span
        if span > 0:
            p = job.proc[outcome.machine_of[job.id]]
            area += 2 * w_span - job.weight * p if span >= p else w_span * span / p
    dual = sum(cert.alpha.values(), _ZERO) - cert.c_beta * area / 2
    primal: Fraction | None = None
    if outcome.instance.integer_grid:
        primal = _ZERO
        for job in outcome.instance.jobs:
            c = outcome.C[job.id]
            if c is None:
                continue
            start = outcome.S[job.id]
            p = job.proc[outcome.machine_of[job.id]]
            primal += _slot_cost(job.weight, job.release, start, p)
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


def check_monotonicity(outcome: SimOutcome) -> CheckReport:
    """Adding the next arrival to the input must never lower any machine's
    price curve at any time. Compares consecutive arrival prefixes on the
    union of their breakpoints, including left limits.

    The prefix runs are derived from the full run's trace by
    ``_prefix_views``, with no simulation. Prefix k + 1's run equals prefix
    k's before the new release r, so only the new job and the jobs still
    present at r (L >= r) can change their completion estimate, and only
    those are recomputed; every other estimate is kept.

    The two curves are compared through their difference, built from the
    changed jobs' pieces alone: new ones added, old ones subtracted, and
    only its breakpoints are offered. They are union points, and between
    them the difference is linear, so any other union point offers a value
    below one offered, equal to one offered earlier, or 0. The first 0 of
    the whole check is offered too: it is the left limit at the first
    breakpoint of the first pair of curves that has any, and there the old
    curve is empty, so the difference is the new curve. A prefix costs
    O(m + q) for the drain of its q queued jobs plus O(c log c) for c
    changed pieces.
    """
    c_beta = _price_scale(outcome.instance.epsilon)
    jobs = outcome.jobs
    worst = _Worst()
    ctilde: dict[int, Fraction] = {}  # the estimates of the last prefix
    live: dict[int, Fraction] = {}  # L in the last prefix of the jobs it changed
    for job, after in _prefix_views(outcome):
        r = job.release
        # L >= r, not L > r: a job that left at r reads mid-run rejections
        # at r, and the new arrival can add one.
        changed = [h for h, left in live.items() if left >= r]
        diff: list[list] = [[] for _ in range(outcome.instance.machines)]
        for h in changed:
            i = outcome.machine_of[h]
            lost = _price_pieces(jobs[h], i, ctilde[h], c_beta)
            diff[i] += [(a, b, -m, -c) for a, b, m, c in lost]
        changed.append(job.id)
        for h in changed:
            ctilde[h] = definitive_completion(after, h)
            i = outcome.machine_of[h]
            diff[i] += _price_pieces(jobs[h], i, ctilde[h], c_beta)
        for i, pieces in enumerate(diff):
            d = PiecewiseLinear(pieces)
            for t, (value, left) in zip(d.breakpoints, d.walk(d.breakpoints)):
                worst.offer(-value, (i, t, job.id))
                worst.offer(-left, (i, t, job.id))
        live = {h: after.L[h] for h in changed}
    return worst.report("monotonicity")


def _prefix_views(outcome: SimOutcome) -> Iterator[tuple[JobSpec, SimpleNamespace]]:
    """Yields, for each arrival J in order, J and a view of the run over
    the jobs up to J: the trace facts that ``definitive_completion`` reads.

    That run is the full run up to J's arrival and the rejections J
    triggered, then a drain with no arrivals. Both rejection rules act only
    on arrival, so nothing is rejected in the drain: each machine finishes
    its running job at run_start + p, an idle machine starts its queue head
    at r_J, and each queue then runs in order. One walk over the event log
    keeps each machine's running job, its start, its queue and its mid-run
    rejections so far; after J, J's machine's queue is
    ``arrivals[J].v_after``. In the view the drained L, with no rejection
    cause or trigger, overlay the full run's maps, and ``r1_events`` is the
    walked prefix of each machine's list. A start that does not pop its
    queue head, or a running job on J's machine other than
    ``arrivals[J].kappa``, raises AssertionError.
    """
    m = outcome.instance.machines
    jobs = outcome.jobs
    events = outcome.events
    running: list[int | None] = [None] * m
    run_start: list[Fraction] = [_ZERO] * m
    queue: list[tuple[int, ...]] = [()] * m
    r1: list[list] = [[] for _ in range(m)]
    arrived: JobSpec | None = None
    for k, rec in enumerate(events):
        i = rec.machine
        if rec.kind == "arrival":
            arrived = jobs[rec.job]
        elif rec.kind == "start":
            if queue[i][:1] != (rec.job,):
                raise AssertionError(
                    f"t={rec.time} machine {i}: job {rec.job} starts, "
                    f"but the queue is {queue[i]}"
                )
            queue[i] = queue[i][1:]
            running[i] = rec.job
            run_start[i] = rec.time
        elif rec.kind == "complete":
            running[i] = None
        elif rec.kind == "reject_preempt":
            running[i] = None
            r1[i] = outcome.r1_events[i][: len(r1[i]) + 1]
        # J's arrival ends with the last event that J triggered.
        if arrived is None or (k + 1 < len(events) and events[k + 1].trigger == arrived.id):
            continue
        info = outcome.arrivals[arrived.id]
        i = outcome.machine_of[arrived.id]
        queue[i] = info.v_after
        if running[i] != info.kappa:
            raise AssertionError(
                f"job {arrived.id}: machine {i} runs {running[i]}, "
                f"its arrival record says {info.kappa}"
            )
        drained: dict[int, Fraction] = {}
        for i in range(m):
            t = arrived.release
            if running[i] is not None:
                t = run_start[i] + jobs[running[i]].proc[i]
                drained[running[i]] = t
            for h in queue[i]:
                t += jobs[h].proc[i]
                drained[h] = t
        no_cause = dict.fromkeys(drained)
        yield arrived, SimpleNamespace(
            jobs=jobs,
            machine_of=outcome.machine_of,
            arrivals=outcome.arrivals,
            L=ChainMap(drained, outcome.L),
            reject_cause=ChainMap(no_cause, outcome.reject_cause),
            reject_trigger=ChainMap(no_cause, outcome.reject_trigger),
            r1_events=list(r1),
        )
        arrived = None


def run_all_checks(
    cert: DualCertificate, outcome: SimOutcome, objs: Objectives
) -> list[CheckReport]:
    """All trace-level checks in report order. Monotonicity is not among
    them: it compares every prefix run of the trace and only ``verify``
    reports it, so callers that want it call :func:`check_monotonicity`
    themselves. ``objs`` are the run's objectives, ``objectives(cert,
    outcome)``."""
    return [
        check_structural_properties(outcome),
        check_dual_feasibility(cert, outcome),
        check_main_inequality(cert, outcome),
        check_weight_balance(outcome),
        check_alpha_lower_bound(cert, outcome, objs),
        check_theorem_chain(cert, outcome, objs),
    ]
