"""The quadratic checkers that the sweeps in ``flowreject.analysis`` replaced.

Kept unchanged as the reference for the differential tests: the price-curve
construction re-sums every piece per segment, weight balance re-sums every
dispatched job at every event time, dual feasibility filters the whole
breakpoint list per (job, machine) pair, and the main inequality rescans the
rejected jobs per segment and evaluates every term at each segment's ends
and midpoint. They share only the leaf helper ``_Worst`` (the first strict
maximum wins) with the fast code. The helpers that only these references
use live here too: ``fractional_weight`` by value, ``state_at`` by
bisection over the snapshots, and ``integral``, the area under a price
curve summed over its segments.

``check_monotonicity`` is the naive prefix check: it simulates each prefix
from scratch with ``replay_prefix`` and evaluates both curves by bisection.
``check_monotonicity_full_walk`` is the check that the delta comparison
replaced: a full certificate per prefix and one walk over every union point
of each pair of curves. It used to take its prefix runs from forks of one
simulation; it now simulates each prefix with ``replay_prefix``, which gives
the same runs field for field.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from operator import attrgetter
from typing import Iterable

from flowreject.analysis import (
    CheckReport,
    DualCertificate,
    PiecewiseLinear,
    _Worst,
    build_certificate,
)
from flowreject.engine import SimOutcome, Snapshot, replay_prefix
from flowreject.instance import Instance, density

_ZERO = Fraction(0)
_EMPTY_SNAPSHOT = Snapshot(_ZERO, (), None, None, _ZERO)


def fractional_weight(
    t: Fraction, ctilde: Fraction, p_ij: Fraction, w_j: Fraction, r_j: Fraction
) -> Fraction:
    """Weight plateau then linear ramp to zero over the last p_ij of the
    support [r_j, ctilde); zero outside it."""
    if not r_j <= t < ctilde:
        return _ZERO
    if t <= ctilde - p_ij:
        return w_j
    return w_j * (ctilde - t) / p_ij


def _wf_of(outcome: SimOutcome, cert: DualCertificate, h: int, i: int, t: Fraction) -> Fraction:
    """Fractional weight of job h on machine i at t, zero outside its support."""
    job = outcome.jobs[h]
    return fractional_weight(t, cert.ctilde[h], job.proc[i], job.weight, job.release)


def state_at(outcome: SimOutcome, machine: int, t: Fraction) -> Snapshot:
    """Machine state at time t, right-continuous across events."""
    snaps = outcome.snapshots[machine]
    idx = bisect_right(snaps, t, key=attrgetter("time"))
    return snaps[idx - 1] if idx else _EMPTY_SNAPSHOT


def integral(curve: PiecewiseLinear) -> Fraction:
    """The area under a price curve, summed over its segments."""
    total = _ZERO
    pts = curve.breakpoints
    for idx, (a, b) in enumerate(zip(pts, pts[1:])):
        m = curve._slopes[idx]
        c = curve._intercepts[idx]
        total += m * (b * b - a * a) / 2 + c * (b - a)
    return total


class ReferencePiecewiseLinear(PiecewiseLinear):
    """``PiecewiseLinear`` with the per-segment re-summing constructor."""

    __slots__ = ()

    def __init__(self, pieces: Iterable[tuple[Fraction, Fraction, Fraction, Fraction]]):
        pieces = [p for p in pieces if p[0] < p[1]]
        points = sorted({p[0] for p in pieces} | {p[1] for p in pieces})
        self.breakpoints: list[Fraction] = points
        self._slopes: list[Fraction] = []
        self._intercepts: list[Fraction] = []
        for a, b in zip(points, points[1:]):
            slope = _ZERO
            intercept = _ZERO
            for start, end, m, c in pieces:
                if start <= a and b <= end:
                    slope += m
                    intercept += c
            self._slopes.append(slope)
            self._intercepts.append(intercept)


def check_dual_feasibility(cert: DualCertificate, outcome: SimOutcome) -> CheckReport:
    """Every (job, machine) pair must satisfy the dual constraint at all t.

    The constraint is alpha_j/p_ij - beta_i(t) <= w_j((t - r_j)/p_ij + 21)
    for t >= r_j. Both sides are piecewise linear with kinks only at the
    price curve's breakpoints, so those points, their left limits, and one
    interpolation-checked midpoint per segment decide all t. Once the right
    side alone dominates alpha_j/p_ij the remaining tail passes for free.
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
            grid = [r] + [b for b in beta.breakpoints if b > r]
            prev: Fraction | None = None
            for t in grid:
                if prev is not None:
                    worst.offer(lhs_minus_rhs(t, left=True), (i, t, job.id))
                    mid = (prev + t) / 2
                    interp = (lhs_minus_rhs(prev) + lhs_minus_rhs(t, left=True)) / 2
                    if lhs_minus_rhs(mid) != interp:
                        raise AssertionError(
                            f"price curve not linear on [{prev}, {t}) for machine {i}"
                        )
                worst.offer(lhs_minus_rhs(t), (i, t, job.id))
                if t >= cutoff:
                    break
                prev = t
    return worst.report("dual_feasibility")


def check_main_inequality(cert: DualCertificate, outcome: SimOutcome) -> CheckReport:
    """Queued fractional weight beyond the budget, plus the running job's
    density-scaled remainder, must stay within 1/eps times the fractional
    weight of already-rejected jobs still in the accounting."""
    eps = outcome.instance.epsilon
    jobs = outcome.jobs
    worst = _Worst()
    event_times = outcome.event_times()
    for i in range(outcome.instance.machines):
        rejected_here = [
            h
            for h in jobs
            if outcome.reject_cause[h] == "weight_gap" and outcome.machine_of[h] == i
        ]
        grid = sorted(set(event_times) | set(cert.beta[i].breakpoints))
        if not grid:
            continue
        grid.append(grid[-1] + 1)
        for a, b in zip(grid, grid[1:]):
            snap = state_at(outcome, i, a)
            run_job = jobs[snap.running] if snap.running is not None else None
            members_v = list(snap.pending)
            members_r = [
                h
                for h in rejected_here
                if jobs[h].release <= a and a < cert.ctilde[h]
            ]

            def value(t: Fraction) -> Fraction:
                total = -snap.W
                if run_job is not None:
                    q = run_job.proc[i] - (t - snap.run_start)
                    total += density(run_job, i) * q
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
    """
    eps = outcome.instance.epsilon
    jobs = outcome.jobs
    worst = _Worst()
    times = outcome.event_times()
    for i in range(outcome.instance.machines):
        dispatched = [j for j in outcome.instance.jobs if outcome.machine_of.get(j.id) == i]
        for t in times:
            d1 = d2 = b1 = b2 = b3 = _ZERO
            for job in dispatched:
                if job.release > t:
                    continue
                info = outcome.arrivals[job.id]
                nu_before = info.v_before[-1] if info.v_before else None
                nu_after = info.v_after[-1] if info.v_after else None
                p_ij = job.proc[i]
                own_reject = job.id in info.r2
                if not own_reject:
                    d1 += eps * eps * info.w_after * p_ij
                    if (
                        nu_before is not None
                        and nu_after == job.id
                        and p_ij < eps * jobs[nu_before].proc[i]
                    ):
                        d1 -= job.weight * jobs[nu_before].proc[i]
                else:
                    if len(info.r2) == 1:
                        if nu_after is not None:
                            d2 += job.weight * jobs[nu_after].proc[i]
                    elif nu_before is not None:
                        d2 += jobs[nu_before].weight * jobs[nu_before].proc[i]
                cause = outcome.reject_cause[job.id]
                if cause == "weight_gap" and outcome.L[job.id] <= t:
                    b1 += job.weight * p_ij
                if cause != "weight_gap" and outcome.L[job.id] <= t:
                    # Departed by completion or mid-run rejection.
                    b2 += job.weight * p_ij
                b3 += job.weight * p_ij / eps
            snap = state_at(outcome, i, t)
            if snap.pending:
                b2 += eps * snap.W * jobs[snap.pending[-1]].proc[i]
            worst.offer(d1 - d2 - (b1 + b2 + b3), (i, t, None))
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


def check_monotonicity_full_walk(instance: Instance) -> CheckReport:
    """Adding the next arrival to the input must never lower any machine's
    price curve at any time. Compares consecutive arrival prefixes on the
    union of their breakpoints, including left limits.

    Each pair of curves is compared in one walk over the union. Each prefix
    certificate is built in full, O(n log n), so the check as a whole grows
    like n^2.
    """
    worst = _Worst()
    outcomes = (replay_prefix(instance, k) for k in range(len(instance.jobs) + 1))
    prev_cert = build_certificate(next(outcomes))
    for job, outcome in zip(instance.jobs, outcomes):
        next_cert = build_certificate(outcome)
        for i, (lo, hi) in enumerate(zip(prev_cert.beta, next_cert.beta)):
            points = sorted(set(lo.breakpoints) | set(hi.breakpoints))
            for t, (lo_v, lo_left), (hi_v, hi_left) in zip(
                points, lo.walk(points), hi.walk(points)
            ):
                worst.offer(lo_v - hi_v, (i, t, job.id))
                worst.offer(lo_left - hi_left, (i, t, job.id))
        prev_cert = next_cert
    return worst.report("monotonicity")
