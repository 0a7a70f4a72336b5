"""Deterministic event-driven simulator for the scheduling policy.

Time advances through a merged stream of completions and releases. Within one
timestamp the order is fixed: first completions, then arrivals one job at a
time in id order, then job starts on idle machines. An arriving job therefore
sees the state left by earlier same-time arrivals, and a job that starts at
time t is invisible to arrivals at t. This makes "the job running just before
the arrival" well defined.

Each arrival is processed as: score every machine on a frozen clone, dispatch
to the cheapest, charge the preempt-rule counter on the chosen machine, then
run the weight-gap rule there. A started job runs to completion unless the
preempt rule rejects it; its consumed time is then wasted.

The simulator keeps an audit trail (the event log, per-arrival decision
records, mid-run rejections per machine, end-of-timestamp queue snapshots) so
the certificate layer can reconstruct machine state at any time without
re-running anything. The no-rejection baselines in ``oracle`` run through the
same loop with their own arrival step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
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
    descending, release ascending, id ascending). ``count1`` tracks arrival weight charged against
    the running job; ``count2`` tracks weight-gap counter values by job id.
    ``W`` is the rejection budget.
    """

    id: int
    running: int | None = None
    run_start: Fraction | None = None
    pending: list[int] = field(default_factory=list)
    W: Fraction = Fraction(0)
    count1: dict[int, Fraction] = field(default_factory=dict)
    count2: dict[int, Fraction] = field(default_factory=dict)

    def clone(self) -> MachineState:
        return MachineState(
            id=self.id,
            running=self.running,
            run_start=self.run_start,
            pending=list(self.pending),
            W=self.W,
            count1=dict(self.count1),
            count2=dict(self.count2),
        )

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
    """Decision record of one arrival, kept for the certificate layer.

    Queue contents are ids in queue order. ``u_after`` is the post-arrival
    queue plus the running job, with each job's remaining work at this time.
    ``kappa`` is the job that was running when the weight-gap rule fired
    (None if the machine was idle or the preempt rule just cleared it), and
    ``r1_here`` says whether any preempt rejection happened on this machine at
    this timestamp up to and including this arrival.
    """

    job: int
    time: Fraction
    machine: int
    branch: str
    w_after: Fraction
    v_before: tuple[int, ...]
    v_after: tuple[int, ...]
    nu_before: int | None
    nu_after: int | None
    r2: tuple[int, ...]
    preempt_rejected: int | None
    kappa: int | None
    kappa_q: Fraction | None
    r1_here: bool
    u_after: tuple[tuple[int, Fraction], ...]


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
    machine i as (time, job, remaining work).
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
    total_weight: Fraction = Fraction(0)
    weighted_flow_completed: Fraction = Fraction(0)
    rejected_weight_preempt: Fraction = Fraction(0)
    rejected_weight_weight_gap: Fraction = Fraction(0)

    def state_at(self, machine: int, t: Fraction) -> Snapshot:
        """Machine state at time t, right-continuous across events."""
        snaps = self.snapshots[machine]
        lo, hi = 0, len(snaps)
        while lo < hi:
            mid = (lo + hi) // 2
            if snaps[mid].time <= t:
                lo = mid + 1
            else:
                hi = mid
        if lo == 0:
            return _EMPTY_SNAPSHOT
        return snaps[lo - 1]

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
        pending_arrivals = list(self.instance.jobs)
        cursor = 0
        while True:
            next_arrival = (
                pending_arrivals[cursor].release if cursor < len(pending_arrivals) else None
            )
            completions = [
                t for m in self.machines if (t := m.completion_time(self.jobs)) is not None
            ]
            next_completion = min(completions) if completions else None
            if next_arrival is None and next_completion is None:
                break
            candidates = [t for t in (next_arrival, next_completion) if t is not None]
            now = min(candidates)

            for m in self.machines:
                if m.completion_time(self.jobs) == now:
                    self._complete(m, now)
            self._r1_this_stamp: set[int] = set()
            while cursor < len(pending_arrivals) and pending_arrivals[cursor].release == now:
                self._arrive(pending_arrivals[cursor], now)
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
        m.count1.pop(job_id, None)
        m.count2.pop(job_id, None)

    def _start(self, m: MachineState, now: Fraction) -> None:
        job_id = m.pending.pop(0)
        m.running = job_id
        m.run_start = now
        self.out.events.append(EventRecord(now, "start", job=job_id, machine=m.id))
        self.out.S[job_id] = now

    def _arrive(self, j: JobSpec, now: Fraction) -> None:
        snaps = [m.clone() for m in self.machines]
        chosen, alpha_j, alphas = policy.dispatch(snaps, j, self.jobs, self.eps)
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
            m.count1.pop(rejected1, None)
            m.count2.pop(rejected1, None)

        v_before = tuple(m.pending)
        nu_before = v_before[-1] if v_before else None
        kappa = m.running
        kappa_q = m.remaining(now, self.jobs) if m.running is not None else None

        dec = policy.weight_gap_reject(
            [self.jobs[h] for h in m.pending], m.W, m.count2, j, self.eps, m.id
        )
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
        u_after = tuple(
            [(h, self.jobs[h].proc[m.id]) for h in m.pending]
            + ([(m.running, m.remaining(now, self.jobs))] if m.running is not None else [])
        )
        self.out.arrivals[j.id] = ArrivalInfo(
            job=j.id,
            time=now,
            machine=m.id,
            branch=dec.branch,
            w_after=m.W,
            v_before=v_before,
            v_after=tuple(m.pending),
            nu_before=nu_before,
            nu_after=m.pending[-1] if m.pending else None,
            r2=dec.rejected,
            preempt_rejected=rejected1,
            kappa=kappa,
            kappa_q=kappa_q,
            r1_here=m.id in self._r1_this_stamp,
            u_after=u_after,
        )
        self._assert_arrival_properties(j, dec, nu_before, m, now)

    def _insert_pending(self, m: MachineState, j: JobSpec, queue_key) -> None:
        """Inserts j into m's queue, kept sorted by ``queue_key(job, machine)``."""
        key = queue_key(j, m.id)
        idx = len(m.pending)
        for k, h in enumerate(m.pending):
            if queue_key(self.jobs[h], m.id) > key:
                idx = k
                break
        m.pending.insert(idx, j.id)

    def _assert_arrival_properties(self, j, dec, nu_before, m, now) -> None:
        order = list(dec.v_order)
        if list(dec.rejected) != order[len(order) - len(dec.rejected) :]:
            raise SimulationPanic(
                f"t={now} machine {m.id}: rejected set {dec.rejected} is not a "
                f"suffix of {dec.v_order}"
            )
        if m.W < 0:
            raise SimulationPanic(f"t={now} machine {m.id}: negative budget {m.W}")
        if dec.branch in policy.ZERO_BUDGET_BRANCHES and m.W != 0:
            raise SimulationPanic(
                f"t={now} machine {m.id}: branch {dec.branch} left budget {m.W}"
            )
        if j.id in dec.rejected:
            allowed = ({j.id}, {j.id, nu_before} if nu_before is not None else {j.id})
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
        out.total_weight = self.instance.total_weight
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
