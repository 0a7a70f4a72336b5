"""Rejection rules and dispatch computation.

Everything here is a pure function that only reads machine state, so the
dispatcher scores hypothetical outcomes on the live machines without
mutating them. The one deliberate exception is :func:`apply_preempt_rule`,
which increments the running job's arrival counter in place.

Queue order everywhere is: density descending, then release ascending, then id
ascending. All comparisons are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from .instance import JobSpec, density

if TYPE_CHECKING:
    from .engine import MachineState

__all__ = [
    "RhoUndefined",
    "WeightGapDecision",
    "queue_key",
    "apply_preempt_rule",
    "weight_gap_reject",
    "compute_rho",
    "compute_alpha_ij",
    "dispatch",
    "BRANCHES",
]

# The eight decision paths of the weight-gap rule. "no-s" paths apply when the
# rejection budget cannot cover even the lowest-density job; "s" paths apply
# when a coverable suffix exists.
BRANCHES = (
    "no-s/not-smallest",
    "no-s/p-large",
    "no-s/counter-reject",
    "no-s/no-reject",
    "s/w-large",
    "s/j-outside",
    "s/j-inside-counter-reject",
    "s/j-inside-only-suffix",
)

# Branches that reject a pair including the queue tail, or a block starting one
# position before the coverable suffix; both drain the budget to zero.
ZERO_BUDGET_BRANCHES = frozenset(
    {"no-s/counter-reject", "s/w-large", "s/j-inside-counter-reject"}
)


_ZERO = Fraction(0)


class RhoUndefined(ValueError):
    """Raised when the budget split index is requested outside its domain."""


def queue_key(job: JobSpec, machine: int):
    """Sort key realizing the queue order on the given machine."""
    return (-density(job, machine), job.release, job.id)


@dataclass(frozen=True)
class WeightGapDecision:
    """Outcome of one weight-gap evaluation for an arriving job.

    ``rejected`` lists the rejected job ids, in queue order; they are always
    a contiguous suffix of the queue order over the old queue plus the
    arrival, because every branch rejects nothing or a range ending at the
    last position. ``counter_updates`` maps job id to its new counter value;
    the caller applies them.
    """

    rejected: tuple[int, ...]
    new_w: Fraction
    branch: str
    counter_updates: dict[int, Fraction] = field(default_factory=dict)


def apply_preempt_rule(
    state: "MachineState",
    arrival: JobSpec,
    jobs: Mapping[int, JobSpec],
    epsilon: Fraction,
) -> int | None:
    """Charge the arrival's weight to the running job; reject it at threshold.

    Increments the running job's arrival counter by the arriving weight and
    returns the running job's id if the counter now reaches weight/epsilon,
    else None. Idle machines are untouched. At most one job is rejected per
    arrival this way.
    """
    running = state.running
    if running is None:
        return None
    state.count1 += arrival.weight
    if state.count1 >= jobs[running].weight / epsilon:
        return running
    return None


def weight_gap_reject(
    V_before: Sequence[JobSpec],
    W_before: Fraction,
    counters: Mapping[int, Fraction],
    j: JobSpec,
    epsilon: Fraction,
    machine: int,
) -> WeightGapDecision:
    """Evaluate the weight-gap rule for arrival ``j`` against a frozen queue.

    ``V_before`` is the pending queue before the arrival, in queue order. The
    combined order V is the old queue plus ``j``. Positions are 1-based in the
    description below; ``nu`` is the last position.

    With ``target = epsilon * (W_before + w_j)``, the split index s is the
    smallest position whose suffix weight sum is at most target; no s exists
    exactly when even the last job's weight exceeds target. The decision tree:

    * no s, and j is not last: nothing is rejected.
    * no s, j last, and p_j on this machine is at least epsilon times the
      processing time of the job before it (vacuously, when j is alone):
      nothing is rejected.
    * no s, j last, p_j small: the counter of the job before j grows by w_j;
      if it reaches that job's weight, both are rejected, else nothing is.
    * s exists and w_j is at least weight(s-1)/epsilon: positions s-1..nu are
      rejected.
    * s exists, w_j below that, and j sits before s: positions s..nu are
      rejected (j survives).
    * s exists and j sits inside s..nu: the counter of position s-1 grows by
      w_j; if it reaches that job's weight, positions s-1..nu are rejected,
      else positions s..nu. When position s-1 does not exist (j arrived at an
      empty queue), no counter moves and only the suffix s..nu is rejected.

    The new budget is max(0, W_before + w_j - sum of rejected weights over
    epsilon). Inputs are never mutated.
    """
    if V_before:
        joined = sorted([*V_before, j], key=lambda job: queue_key(job, machine))
        j_pos = next(k for k, job in enumerate(joined) if job.id == j.id)
    else:
        joined, j_pos = [j], 0
    nu = len(joined)
    weights = [job.weight for job in joined]
    budget = W_before + j.weight
    target = epsilon * budget

    # Smallest 1-based s with suffix weight sum <= target; None if w_nu > target.
    s: int | None = None
    if weights[-1] <= target:
        acc = _ZERO
        s = nu + 1
        for k in range(nu - 1, -1, -1):
            grown = acc + weights[k]
            if grown > target:
                break
            acc = grown
            s = k + 1

    updates: dict[int, Fraction] = {}
    if s is None:
        if j_pos != nu - 1:
            rejected_idx: range = range(0, 0)
            branch = "no-s/not-smallest"
        elif nu == 1:
            # Empty old queue: the guard below has nothing to compare against.
            rejected_idx = range(0, 0)
            branch = "no-s/p-large"
        else:
            prev = joined[nu - 2]
            if j.proc[machine] >= epsilon * prev.proc[machine]:
                rejected_idx = range(0, 0)
                branch = "no-s/p-large"
            else:
                count = counters.get(prev.id, _ZERO) + j.weight
                updates[prev.id] = count
                if count >= prev.weight:
                    rejected_idx = range(nu - 2, nu)
                    branch = "no-s/counter-reject"
                else:
                    rejected_idx = range(0, 0)
                    branch = "no-s/no-reject"
    else:
        prev = joined[s - 2] if s >= 2 else None
        if prev is not None and j.weight >= prev.weight / epsilon:
            rejected_idx = range(s - 2, nu)
            branch = "s/w-large"
        elif j_pos + 1 < s:
            rejected_idx = range(s - 1, nu)
            branch = "s/j-outside"
        elif prev is None:
            rejected_idx = range(s - 1, nu)
            branch = "s/j-inside-only-suffix"
        else:
            count = counters.get(prev.id, _ZERO) + j.weight
            updates[prev.id] = count
            if count >= prev.weight:
                rejected_idx = range(s - 2, nu)
                branch = "s/j-inside-counter-reject"
            else:
                rejected_idx = range(s - 1, nu)
                branch = "s/j-inside-only-suffix"

    rejected = tuple(joined[k].id for k in rejected_idx)
    new_w = budget
    if rejected:
        new_w -= sum((joined[k].weight for k in rejected_idx), _ZERO) / epsilon
    if new_w < 0:
        new_w = _ZERO
    return WeightGapDecision(
        rejected=rejected, new_w=new_w, branch=branch, counter_updates=updates
    )


def compute_rho(V_before: Sequence[JobSpec], W_prime: Fraction) -> int:
    """Split position of the budget within a queue's suffix weight sums.

    Returns the 1-based rho with suffix(rho) <= W_prime < suffix(rho - 1),
    where suffix(k) sums weights from position k to the end and the empty
    suffix (rho = len + 1) sums to zero. Requires a nonempty queue and
    0 <= W_prime < total weight; otherwise raises RhoUndefined, which signals
    a broken invariant in the caller.
    """
    if not V_before:
        raise RhoUndefined("queue is empty")
    total = sum((job.weight for job in V_before), _ZERO)
    if not 0 <= W_prime < total:
        raise RhoUndefined(f"budget {W_prime} outside [0, {total})")
    acc = _ZERO
    rho = len(V_before) + 1
    for k in range(len(V_before) - 1, -1, -1):
        if acc + V_before[k].weight <= W_prime:
            acc += V_before[k].weight
            rho = k + 1
        else:
            break
    return rho


def compute_alpha_ij(
    snapshot: "MachineState",
    j: JobSpec,
    jobs: Mapping[int, JobSpec],
    epsilon: Fraction,
) -> tuple[Fraction, WeightGapDecision]:
    """Dispatch score of job ``j`` on one machine, and the weight-gap
    decision it is based on.

    Runs the weight-gap rule hypothetically against the snapshot (counters and
    budget untouched) to determine the rebate term, then evaluates

        20 w p / eps + w * (processing ahead of j) + w p
        + p * (weight behind j) - rebate

    where "ahead" is the queue jobs with density at least j's and "behind" the
    rest. The rebate depends on the hypothetical rejection: if only j would be
    rejected, it interpolates the queue work covered by the leftover budget;
    if j and the queue tail would be rejected, it is w times their processing;
    otherwise it is p times the rejected weight plus eps^2 * budget * p.
    The caller that dispatches ``j`` here applies the returned decision.
    """
    machine = snapshot.id
    V_before = [jobs[h] for h in snapshot.pending]
    w = j.weight
    p = j.proc[machine]

    main = w * p * (20 / epsilon + 1)
    if V_before:
        d_j = density(j, machine)
        ahead = behind = _ZERO
        for job in V_before:
            if density(job, machine) >= d_j:
                ahead += job.proc[machine]
            else:
                behind += job.weight
        main += w * ahead + p * behind

    dec = weight_gap_reject(V_before, snapshot.W, snapshot.count2, j, epsilon, machine)
    w_prime = dec.new_w
    if dec.rejected == (j.id,):
        total_w = sum((job.weight for job in V_before), _ZERO)
        if w_prime >= total_w:
            # Budget covers the whole queue; the interpolation degenerates to
            # the full queue's processing time.
            rebate = w * sum((job.proc[machine] for job in V_before), _ZERO)
        else:
            rho = compute_rho(V_before, w_prime)
            suffix = V_before[rho - 1 :]
            suffix_p = sum((job.proc[machine] for job in suffix), _ZERO)
            suffix_w = sum((job.weight for job in suffix), _ZERO)
            edge = V_before[rho - 2]
            rebate = w * (suffix_p + (w_prime - suffix_w) * edge.proc[machine] / edge.weight)
    elif len(dec.rejected) == 2 and j.id in dec.rejected:
        rebate = w * sum((jobs[h].proc[machine] for h in dec.rejected), _ZERO)
    else:
        rejected_w = sum((jobs[h].weight for h in dec.rejected), _ZERO)
        rebate = p * (rejected_w + epsilon * epsilon * w_prime)
    return main - rebate, dec


def dispatch(
    machines: Sequence["MachineState"],
    j: JobSpec,
    jobs: Mapping[int, JobSpec],
    epsilon: Fraction,
) -> tuple[int, Fraction, list[Fraction], WeightGapDecision]:
    """Score every machine and pick the cheapest; ties go to the lowest id.

    Returns the chosen machine id, the dual value eps/(1+eps) times the
    minimum score, all per-machine scores in machine order, and the
    weight-gap decision on the chosen machine. The machines are only read.
    """
    if not machines:
        raise ValueError("dispatch requires at least one machine")
    scored = [compute_alpha_ij(state, j, jobs, epsilon) for state in machines]
    alphas = [alpha for alpha, _ in scored]
    best = min(range(len(alphas)), key=alphas.__getitem__)  # the first of equals
    alpha_j = epsilon / (1 + epsilon) * alphas[best]
    return best, alpha_j, alphas, scored[best][1]
