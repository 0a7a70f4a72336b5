"""Differential guard on the event loop.

``fixtures/loop_digests.json`` holds, for seeded generated instances, SHA-256
digests of the event log, of the per-job outcome maps, and of every other
trace fact (departures, charges, triggers, mid-run rejections, arrival
records, snapshots and totals) of ``simulate`` and of both baselines. Any
change to dispatch, queue order, event order or the recorded fates of jobs
shows up as a digest mismatch.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from conftest import FIXTURES
from flowreject.engine import serialize_event_log, simulate
from flowreject.generate import WorkloadSpec, generate
from flowreject.oracle import BASELINE_POLICIES, baseline
from flowreject.rational import format_rational

CASES = json.loads((FIXTURES / "loop_digests.json").read_text())


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _maps(outcome) -> str:
    def rat(value):
        return None if value is None else format_rational(value)

    return json.dumps(
        {
            "S": {str(j): rat(v) for j, v in sorted(outcome.S.items())},
            "C": {str(j): rat(v) for j, v in sorted(outcome.C.items())},
            "machine_of": {str(j): v for j, v in sorted(outcome.machine_of.items())},
            "reject_cause": {str(j): v for j, v in sorted(outcome.reject_cause.items())},
        },
        sort_keys=True,
    )


def _trace(outcome) -> str:
    def rat(value):
        return None if value is None else format_rational(value)

    return json.dumps(
        {
            "L": {str(j): rat(v) for j, v in sorted(outcome.L.items())},
            "alpha": {str(j): rat(v) for j, v in sorted(outcome.alpha.items())},
            "reject_trigger": {str(j): v for j, v in sorted(outcome.reject_trigger.items())},
            "r1_events": [[[rat(t), h, rat(q)] for t, h, q in r1] for r1 in outcome.r1_events],
            "arrivals": {
                str(j): [
                    info.branch,
                    rat(info.w_after),
                    info.v_before,
                    info.v_after,
                    info.r2,
                    info.kappa,
                    rat(info.kappa_q),
                    info.r1_here,
                ]
                for j, info in sorted(outcome.arrivals.items())
            },
            "snapshots": [
                [[rat(s.time), s.pending, s.running, rat(s.run_start), rat(s.W)] for s in snaps]
                for snaps in outcome.snapshots
            ],
            "totals": [
                rat(outcome.weighted_flow_completed),
                rat(outcome.rejected_weight_preempt),
                rat(outcome.rejected_weight_weight_gap),
            ],
        },
        sort_keys=True,
    )


def _digest(outcome) -> dict:
    return {
        "events": _sha(serialize_event_log(outcome.events)),
        "maps": _sha(_maps(outcome)),
        "trace": _sha(_trace(outcome)),
    }


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"n{c['n']}-m{c['m']}-ia{c['mean_interarrival']}-s{c['seed']}")
def test_loop_digests_unchanged(case):
    instance = generate(
        WorkloadSpec(
            n=case["n"],
            m=case["m"],
            p_min=1,
            p_max=10,
            w_min=1,
            w_max=10,
            mean_interarrival=case["mean_interarrival"],
            seed=case["seed"],
            epsilon=Fraction(case["epsilon"]),
        )
    )
    got = {"simulate": _digest(simulate(instance))}
    for policy in BASELINE_POLICIES:
        got[policy] = _digest(baseline(instance, policy))
    assert got == case["digests"]
