"""Ground-truth references: exhaustive optimum, naive baselines, lower bound.

The baselines dispatch by least backlog, keep their own queue order and never
reject; they run through the simulator's event loop (``engine``).

The exhaustive search enumerates every machine assignment and every
per-machine order, timing each order as-soon-as-possible (start at release or
at the previous completion, whichever is later). ASAP within a fixed order is
optimal for that order, and orders that place a later-released job first
express deliberate idling, so the enumeration covers all non-preemptive
schedules that matter. Costs are exact rationals; ties resolve to the
lexicographically smallest (assignment, per-machine orders) encoding.

Because the cost of an assignment splits into independent per-machine terms,
the search memoizes the best order per (machine, job set) instead of walking
the full cross product; the chosen schedule is identical to the one full
enumeration with the same tie-break would return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from .engine import EventRecord, MachineState, SimOutcome, _Simulator
from .instance import Instance, JobSpec
from .policy import queue_key

__all__ = [
    "TooLarge",
    "OracleSchedule",
    "brute_force_opt",
    "baseline",
    "lower_bound_trivial",
    "BASELINE_POLICIES",
]

_ZERO = Fraction(0)

# Queue order of each baseline, as a key over (job, machine).
_QUEUE_KEYS = {
    "hdf-no-reject": queue_key,
    "fcfs": lambda job, machine: (job.release, job.id),
}
BASELINE_POLICIES = tuple(_QUEUE_KEYS)


class TooLarge(ValueError):
    pass


@dataclass(frozen=True)
class OracleSchedule:
    """A complete non-preemptive schedule: per-machine job order, per-job
    start time, and its total weighted flow."""

    sequences: tuple[tuple[int, ...], ...]
    starts: dict[int, Fraction]
    cost: Fraction

    def assignment(self) -> dict[int, tuple[int, Fraction]]:
        """job id -> (machine, start time)."""
        out: dict[int, tuple[int, Fraction]] = {}
        for machine, seq in enumerate(self.sequences):
            for job_id in seq:
                out[job_id] = (machine, self.starts[job_id])
        return out


def _order_cost(
    order: tuple[JobSpec, ...], machine: int
) -> tuple[Fraction, list[Fraction]]:
    cost = _ZERO
    starts: list[Fraction] = []
    t = _ZERO
    for job in order:
        start = max(job.release, t)
        starts.append(start)
        t = start + job.proc[machine]
        cost += job.weight * (t - job.release)
    return cost, starts


def brute_force_opt(instance: Instance, limit: int = 7) -> OracleSchedule:
    n = len(instance.jobs)
    if n > limit:
        raise TooLarge(f"{n} jobs exceeds the exhaustive-search cap of {limit}")
    m = instance.machines
    if n == 0:
        return OracleSchedule(tuple(() for _ in range(m)), {}, _ZERO)

    jobs = list(instance.jobs)

    best_order: dict[tuple[int, frozenset[int]], tuple[Fraction, tuple[JobSpec, ...], list[Fraction]]] = {}

    def solve_machine(machine: int, members: tuple[JobSpec, ...]):
        key = (machine, frozenset(j.id for j in members))
        hit = best_order.get(key)
        if hit is not None:
            return hit
        best = None
        # Permutations of the id-sorted tuple come out in lexicographic
        # order, so keeping strict improvements picks the smallest encoding.
        for order in permutations(sorted(members, key=lambda j: j.id)):
            cost, starts = _order_cost(order, machine)
            if best is None or cost < best[0]:
                best = (cost, order, starts)
        best_order[key] = best
        return best

    best_total: Fraction | None = None
    best_pick = None
    for assignment in product(range(m), repeat=n):
        members: list[list[JobSpec]] = [[] for _ in range(m)]
        for job, machine in zip(jobs, assignment):
            members[machine].append(job)
        total = _ZERO
        picks = []
        for machine in range(m):
            cost, order, starts = solve_machine(machine, tuple(members[machine]))
            total += cost
            picks.append((order, starts))
        if best_total is None or total < best_total:
            best_total = total
            best_pick = picks
    assert best_total is not None and best_pick is not None
    starts_map: dict[int, Fraction] = {}
    sequences = []
    for order, starts in best_pick:
        sequences.append(tuple(job.id for job in order))
        for job, s in zip(order, starts):
            starts_map[job.id] = s
    return OracleSchedule(tuple(sequences), starts_map, best_total)


def lower_bound_trivial(instance: Instance) -> Fraction:
    """Every job's flow is at least its fastest processing time."""
    return sum(
        (job.weight * min(job.proc[i] for i in range(instance.machines)) for job in instance.jobs),
        _ZERO,
    )


class _Baseline(_Simulator):
    """The simulator's event loop with a no-rejection arrival step."""

    def __init__(self, instance: Instance, key) -> None:
        super().__init__(instance)
        self.key = self.out.order = key

    def _backlog(self, m: MachineState, now: Fraction) -> Fraction:
        total = sum((self.jobs[h].proc[m.id] for h in m.pending), _ZERO)
        return total if m.running is None else total + m.remaining(now, self.jobs)

    def _arrive(self, j: JobSpec, now: Fraction) -> None:
        m = min(self.machines, key=lambda s: (self._backlog(s, now) + j.proc[s.id], s.id))
        self.out.events.append(EventRecord(now, "arrival", job=j.id, machine=m.id))
        self._insert_pending(m, j, self.key)


def baseline(instance: Instance, policy: str) -> SimOutcome:
    """Online comparison run with rejection disabled.

    Dispatch goes to the machine minimizing current backlog plus the job's
    own processing time (ties to the lowest machine id). The queue order is
    the policy's: highest density first, or first-come-first-served; ties
    break by release then id. The run uses the main simulator's event loop,
    so event order within a timestamp is the same: completions, then
    arrivals by id, then starts.
    """
    if policy not in _QUEUE_KEYS:
        raise ValueError(f"unknown baseline policy {policy!r}")
    return _Baseline(instance, _QUEUE_KEYS[policy]).run()
