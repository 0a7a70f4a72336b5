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

The simulator records only the event log and, per arrival, the weight-gap
branch and the budget left, which the log does not hold. ``walk_log`` reads
that record once and derives every other trace fact the certificate layer
reads, with a queue order of its own rather than the policy's. The
no-rejection baselines in ``oracle`` run through the same loop with their
own arrival step and queue order.

The trace of one run also holds every run over a prefix of the arrivals:
both rejection rules act only on arrival, so the run over the first k jobs
is the full run up to job k's arrival, then a drain in queue order.
``analysis.check_monotonicity`` derives the prefixes from ``walk_log``'s
state after each arrival.
"""

from __future__ import annotations

import json
from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .instance import Instance, JobSpec, density
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
    "walk_log",
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

    def idle(self) -> None:
        """The running job leaves, and its counters with it."""
        self.count2.pop(self.running, None)
        self.running = self.run_start = None
        self.count1 = Fraction(0)


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


def _queue_order(job: JobSpec, machine: int) -> tuple:
    """The paper's queue order, derived here and not read from ``policy``."""
    return (-density(job, machine), job.release, job.id)


@dataclass
class SimOutcome:
    """Complete trace of one simulation run.

    A run records ``events`` and ``decisions`` (arriving job -> weight-gap
    branch and budget left) in the queue ``order``, a key over (job,
    machine). :func:`walk_log` derives every field after ``order`` from
    them. ``r1_events[i]`` lists the mid-run rejections on machine i as
    (time, job, remaining work). The total weight is
    ``instance.total_weight``.
    """

    instance: Instance
    jobs: dict[int, JobSpec] = field(default_factory=dict)
    events: list[EventRecord] = field(default_factory=list)
    decisions: dict[int, tuple[str, Fraction]] = field(default_factory=dict)
    order: Callable[[JobSpec, int], tuple] = _queue_order
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
    times: list[Fraction] = field(default_factory=list)

    def event_times(self) -> list[Fraction]:
        """The distinct event times in log order."""
        return self.times


def walk_log(out: SimOutcome) -> Iterator[tuple]:
    """Fills the derived fields of a fresh ``out`` from its events and
    decisions, in one pass over the log.

    After each arrival and the rejections it triggered, yields the arriving
    job and, per machine, the running job, its start, the queue and the
    mid-run rejections so far; these are live, so read them before the next
    step. The queue is kept in ``out.order``.

    A log that is not a run raises AssertionError: a second arrival of a
    job; a start that does not pop its queue head, comes before the job's
    release or finds the machine busy; a completion other than the running
    job's at its start plus its processing time; a rejection whose trigger
    is not the job arriving then; a job that never leaves.
    """
    jobs, events = out.jobs, out.events
    m = out.instance.machines
    running: list[int | None] = [None] * m
    run_start: list[Fraction | None] = [None] * m
    queue: list[list[int]] = [[] for _ in range(m)]
    budget = [Fraction(0)] * m
    r1_stamp: set[int] = set()  # machines with a mid-run rejection at this time
    out.S, out.C = dict.fromkeys(jobs), dict.fromkeys(jobs)
    out.reject_cause, out.reject_trigger = dict.fromkeys(jobs), dict.fromkeys(jobs)
    out.r1_events = [[] for _ in range(m)]
    out.snapshots = [[] for _ in range(m)]
    arrived: JobSpec | None = None
    for k, rec in enumerate(events):
        t, i, j = rec.time, rec.machine, rec.job
        if rec.kind == "arrival":
            if j in out.machine_of:
                raise AssertionError(f"t={t}: job {j} arrives a second time")
            arrived = jobs[j]
            out.machine_of[j] = i
            if rec.alpha_j is not None:
                out.alpha[j] = rec.alpha_j
        elif rec.kind == "start":
            if queue[i][:1] != [j]:
                raise AssertionError(
                    f"t={t} machine {i}: job {j} starts, but the queue is {tuple(queue[i])}"
                )
            if t < jobs[j].release:
                raise AssertionError(f"t={t} machine {i}: job {j} starts before its release")
            if running[i] is not None:
                raise AssertionError(f"t={t} machine {i}: job {j} starts while {running[i]} runs")
            del queue[i][0]
            running[i], run_start[i] = j, t
            out.S[j] = t
        elif rec.kind == "complete":
            if running[i] != j or t != run_start[i] + jobs[j].proc[i]:
                raise AssertionError(
                    f"t={t} machine {i}: job {j} completes, but not at its start plus p there"
                )
            running[i] = run_start[i] = None
            out.C[j] = out.L[j] = t
            out.weighted_flow_completed += jobs[j].weight * (t - jobs[j].release)
        elif arrived is None or rec.trigger != arrived.id or t != arrived.release:
            raise AssertionError(
                f"t={t} machine {i}: rejection triggered by job {rec.trigger}, not arriving now"
            )
        elif rec.kind == "reject_preempt":
            running[i] = run_start[i] = None
            out.L[j], out.reject_cause[j], out.reject_trigger[j] = t, "preempt", rec.trigger
            out.r1_events[i].append((t, j, rec.q))
            r1_stamp.add(i)
            out.rejected_weight_preempt += jobs[j].weight
        else:
            for h in rec.jobs:
                out.L[h], out.reject_cause[h], out.reject_trigger[h] = t, "weight_gap", rec.trigger
                out.rejected_weight_weight_gap += jobs[h].weight
        nxt = events[k + 1] if k + 1 < len(events) else None
        # An arrival ends with the last event that it triggered.
        if arrived is not None and (nxt is None or nxt.trigger != arrived.id):
            j = arrived.id
            i = out.machine_of[j]
            r2 = rec.jobs or ()  # a weight-gap rejection is an arrival's last event
            v_before = tuple(queue[i])
            queue[i] = [h for h in queue[i] if h not in r2]
            if j not in r2:
                insort(queue[i], j, key=lambda h: out.order(jobs[h], i))
            if j in out.decisions:
                branch, budget[i] = out.decisions[j]
                kappa = running[i]
                kappa_q = None if kappa is None else run_start[i] + jobs[kappa].proc[i] - t
                out.arrivals[j] = ArrivalInfo(
                    branch, budget[i], v_before, tuple(queue[i]), r2, kappa, kappa_q, i in r1_stamp
                )
            yield arrived, running, run_start, queue, out.r1_events
            arrived = None
        if nxt is None or nxt.time != t:
            out.times.append(t)
            r1_stamp.clear()
            for i, snaps in enumerate(out.snapshots):
                snaps.append(Snapshot(t, tuple(queue[i]), running[i], run_start[i], budget[i]))
    for j in jobs:
        if j not in out.L:
            raise AssertionError(f"job {j} never leaves")


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

    def run(self) -> SimOutcome:
        jobs = self.instance.jobs
        cursor = 0
        while True:
            ends = [m.completion_time(self.jobs) for m in self.machines]
            times = [t for t in ends if t is not None]
            if cursor < len(jobs):
                times.append(jobs[cursor].release)
            if not times:
                break
            now = min(times)
            for m, end in zip(self.machines, ends):
                if end is not None and end == now:
                    done = EventRecord(now, "complete", job=m.running, machine=m.id)
                    self.out.events.append(done)
                    m.idle()
            while cursor < len(jobs) and jobs[cursor].release == now:
                self._arrive(jobs[cursor], now)
                cursor += 1
            for m in self.machines:
                if m.running is None and m.pending:
                    m.running, m.run_start = m.pending.pop(0), now
                    self.out.events.append(EventRecord(now, "start", job=m.running, machine=m.id))
            for m in self.machines:
                self._assert_budget(m, now)
        for _ in walk_log(self.out):
            pass
        return self.out

    def _arrive(self, j: JobSpec, now: Fraction) -> None:
        chosen, alpha_j, alphas, dec = policy.dispatch(self.machines, j, self.jobs, self.eps)
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
            m.idle()

        v_before = tuple(m.pending)

        # The preempt rule touched only the running job, which is never in
        # the queue the decision read, so the decision still holds.
        m.count2.update(dec.counter_updates)
        m.W = dec.new_w
        rejected_set = set(dec.rejected)
        m.pending = [h for h in m.pending if h not in rejected_set]
        if j.id not in rejected_set:
            self._insert_pending(m, j, policy.queue_key)
        for h in dec.rejected:
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
        self.out.decisions[j.id] = (dec.branch, m.W)
        self._assert_arrival_properties(j, dec, v_before, m, now)

    def _insert_pending(self, m: MachineState, j: JobSpec, queue_key) -> None:
        """Inserts j into m's queue, kept sorted by ``queue_key(job, machine)``."""
        insort(m.pending, j.id, key=lambda h: queue_key(self.jobs[h], m.id))

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
