"""Deterministic event-driven simulator for the scheduling policy.

Time advances through a merged stream of completions and releases. Within one
timestamp the order is fixed: first completions, then arrivals one job at a
time in id order, then job starts on idle machines. An arriving job therefore
sees the state left by earlier same-time arrivals, and a job that starts at
time t is invisible to arrivals at t. This makes "the job running just before
the arrival" well defined.

Each arrival is processed as: score every machine by reading its live state,
dispatch to the cheapest, charge the preempt-rule counter on the chosen
machine, then apply the weight-gap decision that scoring computed there. A
started job runs to completion unless the preempt rule rejects it; its
consumed time is then wasted.

The simulator keeps an audit trail (the event log, per-arrival decision
records, mid-run rejections per machine, end-of-timestamp queue snapshots) so
the certificate layer can reconstruct machine state at any time without
re-running anything. The no-rejection baselines in ``oracle`` run through the
same loop with their own arrival step.

The trace of one run also holds every run over a prefix of the arrivals:
both rejection rules act only on arrival, so the run over the first k jobs
is the full run up to job k's arrival, then a drain in queue order.
``analysis.check_monotonicity`` derives the prefixes from it that way.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Iterable

from .instance import Instance, JobSpec
from .rational import format_rational
from . import policy

__all__ = [
    "BadPrefix",
    "SimulationPanic",
    "MachineState",
    "EventRecord",
    "ArrivalInfo",
    "Snapshot",
    "SimOutcome",
    "simulate",
    "replay_prefix",
    "event_to_json",
    "serialize_event_log",
]


class BadPrefix(ValueError):
    pass


class SimulationPanic(RuntimeError):
    """An internal invariant broke mid-run; always an implementation bug."""


@dataclass
class MachineState:
    """Live state of one machine: the running job, the queue, and counters.

    ``pending`` holds job ids in queue order (for the paper's policy: density
    descending, release ascending, id ascending). ``count1`` is the arrival
    weight charged against the running job, and resets to 0 when the running
    job leaves; ``count2`` tracks weight-gap counter values by job id. ``W``
    is the rejection budget.
    """

    id: int
    running: int | None = None
    run_start: Fraction | None = None
    pending: list[int] = field(default_factory=list)
    W: Fraction = Fraction(0)
    count1: Fraction = Fraction(0)
    count2: dict[int, Fraction] = field(default_factory=dict)

    def remaining(self, t: Fraction, jobs: dict[int, JobSpec]) -> Fraction:
        """Remaining work of the running job at time t; raises if idle."""
        if self.running is None or self.run_start is None:
            raise SimulationPanic(f"machine {self.id} is idle at {t}")
        return jobs[self.running].proc[self.id] - (t - self.run_start)

    def completion_time(self, jobs: dict[int, JobSpec]) -> Fraction | None:
        if self.running is None or self.run_start is None:
            return None
        return self.run_start + jobs[self.running].proc[self.id]


@dataclass(frozen=True)
class EventRecord:
    """One log entry. ``kind`` is arrival, start, complete, reject_preempt, or
    reject_weight_gap; unused fields stay None."""

    time: Fraction
    kind: str
    job: int | None = None
    machine: int | None = None
    trigger: int | None = None
    q: Fraction | None = None
    jobs: tuple[int, ...] | None = None
    branch: str | None = None
    alpha_j: Fraction | None = None
    alpha_all: tuple[Fraction, ...] | None = None


@dataclass(frozen=True)
class ArrivalInfo:
    """The weight-gap decision made at one arrival, kept for the certificate
    layer. ``SimOutcome.arrivals`` keys it by the arriving job; the time is
    that job's release and the machine is ``machine_of`` of it.

    ``v_before`` and ``v_after`` are the queue, as ids in queue order, before
    and after the decision; the tails are their last ids. ``r2`` is the
    rejected set and ``w_after`` the budget left. ``kappa`` is the job that
    was running when the weight-gap rule fired (None if the machine was idle
    or the preempt rule just cleared it), and ``kappa_q`` its remaining work
    then. ``r1_here`` says whether any preempt rejection happened on this
    machine at this timestamp up to and including this arrival.
    """

    branch: str
    w_after: Fraction
    v_before: tuple[int, ...]
    v_after: tuple[int, ...]
    r2: tuple[int, ...]
    kappa: int | None
    kappa_q: Fraction | None
    r1_here: bool


@dataclass(frozen=True)
class Snapshot:
    """Machine state at the end of one processed timestamp."""

    time: Fraction
    pending: tuple[int, ...]
    running: int | None
    run_start: Fraction | None
    W: Fraction


_EMPTY_SNAPSHOT = Snapshot(Fraction(0), (), None, None, Fraction(0))


@dataclass
class SimOutcome:
    """Complete trace of one simulation run.

    ``jobs`` maps id to job. ``r1_events[i]`` lists the mid-run rejections on
    machine i as (time, job, remaining work). The total weight is
    ``instance.total_weight``.
    """

    instance: Instance
    jobs: dict[int, JobSpec] = field(default_factory=dict)
    events: list[EventRecord] = field(default_factory=list)
    machine_of: dict[int, int] = field(default_factory=dict)
    alpha: dict[int, Fraction] = field(default_factory=dict)
    S: dict[int, Fraction | None] = field(default_factory=dict)
    C: dict[int, Fraction | None] = field(default_factory=dict)
    L: dict[int, Fraction] = field(default_factory=dict)
    reject_cause: dict[int, str | None] = field(default_factory=dict)
    reject_trigger: dict[int, int | None] = field(default_factory=dict)
    arrivals: dict[int, ArrivalInfo] = field(default_factory=dict)
    r1_events: list[list[tuple[Fraction, int, Fraction]]] = field(default_factory=list)
    snapshots: list[list[Snapshot]] = field(default_factory=list)
    weighted_flow_completed: Fraction = Fraction(0)
    rejected_weight_preempt: Fraction = Fraction(0)
    rejected_weight_weight_gap: Fraction = Fraction(0)

    def state_at(self, machine: int, t: Fraction) -> Snapshot:
        """Machine state at time t, right-continuous across events."""
        snaps = self.snapshots[machine]
        idx = bisect_right(snaps, t, key=attrgetter("time"))
        return snaps[idx - 1] if idx else _EMPTY_SNAPSHOT

    def event_times(self) -> list[Fraction]:
        out: list[Fraction] = []
        for rec in self.events:
            if not out or out[-1] != rec.time:
                out.append(rec.time)
        return out


def event_to_json(record: EventRecord) -> dict:
    """Event as a JSON-ready dict; unused fields are omitted, rationals are
    ints or "num/den" strings."""
    out: dict = {"time": format_rational(record.time), "kind": record.kind}
    if record.job is not None:
        out["job"] = record.job
    if record.machine is not None:
        out["machine"] = record.machine
    if record.trigger is not None:
        out["trigger"] = record.trigger
    if record.q is not None:
        out["q"] = format_rational(record.q)
    if record.jobs is not None:
        out["jobs"] = list(record.jobs)
    if record.branch is not None:
        out["branch"] = record.branch
    if record.alpha_j is not None:
        out["alpha_j"] = format_rational(record.alpha_j)
    if record.alpha_all is not None:
        out["alpha_all"] = [format_rational(a) for a in record.alpha_all]
    return out


def serialize_event_log(events: Iterable[EventRecord]) -> str:
    """Event log as JSON Lines, one event per line, in log order."""
    return "".join(
        json.dumps(event_to_json(rec), separators=(", ", ": ")) + "\n"
        for rec in events
    )


def simulate(instance: Instance) -> SimOutcome:
    return _Simulator(instance).run()


def replay_prefix(instance: Instance, k: int) -> SimOutcome:
    """Simulate the sub-instance of the first k jobs in (release, id) order."""
    if not 0 <= k <= len(instance.jobs):
        raise BadPrefix(f"prefix length {k} outside [0, {len(instance.jobs)}]")
    sub = Instance(
        machines=instance.machines, jobs=instance.jobs[:k], epsilon=instance.epsilon
    )
    return simulate(sub)


class _Simulator:
    """The event loop, with the paper's policy as its arrival step.

    ``run`` processes completions, then arrivals via ``_arrive``, then starts,
    at each timestamp. A comparison policy subclasses this and replaces
    ``_arrive``.
    """

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.jobs = {j.id: j for j in instance.jobs}
        self.eps = instance.epsilon
        self.machines = [MachineState(i) for i in range(instance.machines)]
        self.out = SimOutcome(instance=instance, jobs=self.jobs)
        m = instance.machines
        self.out.r1_events = [[] for _ in range(m)]
        self.out.snapshots = [[] for _ in range(m)]
        for j in instance.jobs:
            self.out.S[j.id] = None
            self.out.C[j.id] = None
            self.out.reject_cause[j.id] = None
            self.out.reject_trigger[j.id] = None

    def run(self) -> SimOutcome:
        jobs = self.instance.jobs
        cursor = 0
        while True:
            times = [t for m in self.machines if (t := m.completion_time(self.jobs)) is not None]
            if cursor < len(jobs):
                times.append(jobs[cursor].release)
            if not times:
                break
            now = min(times)
            for m in self.machines:
                if m.completion_time(self.jobs) == now:
                    self._complete(m, now)
            self._r1_this_stamp: set[int] = set()
            while cursor < len(jobs) and jobs[cursor].release == now:
                self._arrive(jobs[cursor], now)
                cursor += 1
            for m in self.machines:
                if m.running is None and m.pending:
                    self._start(m, now)
            for m in self.machines:
                self._assert_budget(m, now)
                self.out.snapshots[m.id].append(
                    Snapshot(now, tuple(m.pending), m.running, m.run_start, m.W)
                )
        self._finalize()
        return self.out

    def _complete(self, m: MachineState, now: Fraction) -> None:
        job_id = m.running
        assert job_id is not None
        self.out.events.append(EventRecord(now, "complete", job=job_id, machine=m.id))
        self.out.C[job_id] = now
        self.out.L[job_id] = now
        m.running = None
        m.run_start = None
        m.count1 = Fraction(0)
        m.count2.pop(job_id, None)

    def _start(self, m: MachineState, now: Fraction) -> None:
        job_id = m.pending.pop(0)
        m.running = job_id
        m.run_start = now
        self.out.events.append(EventRecord(now, "start", job=job_id, machine=m.id))
        self.out.S[job_id] = now

    def _arrive(self, j: JobSpec, now: Fraction) -> None:
        chosen, alpha_j, alphas, dec = policy.dispatch(self.machines, j, self.jobs, self.eps)
        self.out.machine_of[j.id] = chosen
        self.out.alpha[j.id] = alpha_j
        self.out.events.append(
            EventRecord(
                now,
                "arrival",
                job=j.id,
                machine=chosen,
                alpha_j=alpha_j,
                alpha_all=tuple(alphas),
            )
        )
        m = self.machines[chosen]

        rejected1 = policy.apply_preempt_rule(m, j, self.jobs, self.eps)
        if rejected1 is not None:
            q = m.remaining(now, self.jobs)
            self.out.events.append(
                EventRecord(
                    now, "reject_preempt", job=rejected1, machine=m.id, trigger=j.id, q=q
                )
            )
            self.out.L[rejected1] = now
            self.out.reject_cause[rejected1] = "preempt"
            self.out.reject_trigger[rejected1] = j.id
            self.out.r1_events[m.id].append((now, rejected1, q))
            self._r1_this_stamp.add(m.id)
            m.running = None
            m.run_start = None
            m.count1 = Fraction(0)
            m.count2.pop(rejected1, None)

        v_before = tuple(m.pending)
        kappa = m.running
        kappa_q = m.remaining(now, self.jobs) if m.running is not None else None

        # The preempt rule touched only the running job, which is never in
        # the queue the decision read, so the decision still holds.
        m.count2.update(dec.counter_updates)
        m.W = dec.new_w
        rejected_set = set(dec.rejected)
        m.pending = [h for h in m.pending if h not in rejected_set]
        if j.id not in rejected_set:
            self._insert_pending(m, j, policy.queue_key)
        for h in dec.rejected:
            self.out.L[h] = now
            self.out.reject_cause[h] = "weight_gap"
            self.out.reject_trigger[h] = j.id
            if h != j.id:
                m.count2.pop(h, None)
        if dec.rejected:
            self.out.events.append(
                EventRecord(
                    now,
                    "reject_weight_gap",
                    jobs=dec.rejected,
                    machine=m.id,
                    trigger=j.id,
                    branch=dec.branch,
                )
            )
        self.out.arrivals[j.id] = ArrivalInfo(
            branch=dec.branch,
            w_after=m.W,
            v_before=v_before,
            v_after=tuple(m.pending),
            r2=dec.rejected,
            kappa=kappa,
            kappa_q=kappa_q,
            r1_here=m.id in self._r1_this_stamp,
        )
        self._assert_arrival_properties(j, dec, v_before, m, now)

    def _insert_pending(self, m: MachineState, j: JobSpec, queue_key) -> None:
        """Inserts j into m's queue, kept sorted by ``queue_key(job, machine)``."""
        key = queue_key(j, m.id)
        idx = len(m.pending)
        for k, h in enumerate(m.pending):
            if queue_key(self.jobs[h], m.id) > key:
                idx = k
                break
        m.pending.insert(idx, j.id)

    def _assert_arrival_properties(self, j, dec, v_before, m, now) -> None:
        if m.W < 0:
            raise SimulationPanic(f"t={now} machine {m.id}: negative budget {m.W}")
        if dec.branch in policy.ZERO_BUDGET_BRANCHES and m.W != 0:
            raise SimulationPanic(
                f"t={now} machine {m.id}: branch {dec.branch} left budget {m.W}"
            )
        if j.id in dec.rejected:
            allowed = ({j.id}, {j.id, v_before[-1]} if v_before else {j.id})
            if set(dec.rejected) not in allowed:
                raise SimulationPanic(
                    f"t={now} machine {m.id}: arrival in rejected set {dec.rejected} "
                    f"that is neither alone nor paired with the old tail"
                )
        elif dec.rejected:
            excess = (
                sum((self.jobs[h].weight for h in dec.rejected), Fraction(0))
                - self.jobs[dec.rejected[-1]].weight
            )
            if excess > 2 * self.eps * j.weight:
                raise SimulationPanic(
                    f"t={now} machine {m.id}: rejected weight beyond the tail "
                    f"exceeds twice epsilon times the arrival weight"
                )

    def _assert_budget(self, m: MachineState, now: Fraction) -> None:
        if m.pending:
            nu_w = self.jobs[m.pending[-1]].weight
            if not self.eps * m.W < nu_w:
                raise SimulationPanic(
                    f"t={now} machine {m.id}: budget {m.W} too large for queue "
                    f"tail weight {nu_w}"
                )

    def _finalize(self) -> None:
        out = self.out
        for j in self.instance.jobs:
            c = out.C[j.id]
            if c is not None:
                out.weighted_flow_completed += j.weight * (c - j.release)
            elif out.reject_cause[j.id] == "preempt":
                out.rejected_weight_preempt += j.weight
            elif out.reject_cause[j.id] == "weight_gap":
                out.rejected_weight_weight_gap += j.weight
            else:
                raise SimulationPanic(f"job {j.id} neither completed nor rejected")
            if j.id not in out.L:
                raise SimulationPanic(f"job {j.id} never left the queue")
