"""Regenerate every golden file under tests/fixtures/.

Run from the repository root:

    python3 tools/regen_fixtures.py

Each fixture is a frozen artifact that the test suite compares against
byte-for-byte, so regenerate only after an intentional behavior change and
review the diff. The instances themselves are hand-built; this script only
re-serializes them and re-derives the logs, certificate, and report.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from flowreject.analysis import build_certificate  # noqa: E402
from flowreject.cli import build_report  # noqa: E402
from flowreject.engine import serialize_event_log, simulate  # noqa: E402
from flowreject.generate import WorkloadSpec, generate  # noqa: E402
from flowreject.instance import JobSpec, make_instance, serialize_instance  # noqa: E402
from flowreject.oracle import BASELINE_POLICIES, baseline  # noqa: E402
from flowreject.rational import format_rational  # noqa: E402

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "tests" / "fixtures"


def F(num, den=1):
    return Fraction(num, den)


def e1_instance():
    # Single machine, eps=1/2. The long first job absorbs dispatch charges
    # from both later arrivals and is rejected mid-run by the second one;
    # the first short job is rejected on arrival by the weight-gap rule.
    jobs = [
        JobSpec(id=1, release=F(0), weight=F(2), proc={0: F(4)}),
        JobSpec(id=2, release=F(1), weight=F(2), proc={0: F(1)}),
        JobSpec(id=3, release=F(2), weight=F(2), proc={0: F(1)}),
    ]
    return make_instance(1, jobs, F(1, 2))


def e3_instance():
    # eps=1/4. The two later short jobs are both weight-gap rejected at the
    # third arrival: its counter push tips the queue tail over, exercising
    # the pair-rejection branch and the rejected-with-tail completion case.
    jobs = [
        JobSpec(id=0, release=F(0), weight=F(8), proc={0: F(5)}),
        JobSpec(id=1, release=F(1), weight=F(4), proc={0: F(1, 2)}),
        JobSpec(id=2, release=F(2), weight=F(4), proc={0: F(1)}),
    ]
    return make_instance(1, jobs, F(1, 4))


def counter_tail_instance():
    # Reaches the counter-triggered pair rejection in the regime where no
    # budget split index exists. Construction: job 0 blocks the machine for a
    # long time; jobs 1-4 self-reject and drain the budget to zero; job 5
    # then survives into the queue on a zero budget; jobs 6-7 self-reject
    # behind it, charging its counter while draining the budget again; job 8
    # arrives below the split-index regime with a small processing time and
    # tips job 5's counter over, so both are rejected together.
    rows = [
        (0, 0, 1000, 1000),
        (1, 1, 500, 1),
        (2, 2, 250, 1),
        (3, 3, 125, 1),
        (4, 4, 125, 1),
        (5, 5, 64, 64),
        (6, 6, 32, 64),
        (7, 7, 24, 64),
        (8, 8, 16, 24),
    ]
    jobs = [
        JobSpec(id=i, release=F(r), weight=F(w), proc={0: F(p)})
        for i, r, w, p in rows
    ]
    return make_instance(1, jobs, F(1, 2))


def idling_instance():
    # Optimal schedule idles until t=1, runs the heavy short job, then the
    # long one: cost 112 versus 1010 for the eager order.
    jobs = [
        JobSpec(id=1, release=F(0), weight=F(1), proc={0: F(10)}),
        JobSpec(id=2, release=F(1), weight=F(100), proc={0: F(1)}),
    ]
    return make_instance(1, jobs, F(1, 2))


def certificate_json(outcome) -> dict:
    cert = build_certificate(outcome)
    betas = []
    for fn in cert.beta:
        pts = fn.breakpoints
        betas.append(
            {
                "breakpoints": [format_rational(t) for t in pts],
                "values": [format_rational(fn.value(t)) for t in pts],
                "left_values": [format_rational(fn.value_left(t)) for t in pts],
            }
        )
    return {
        "alpha": {str(j): format_rational(a) for j, a in sorted(cert.alpha.items())},
        "ctilde": {str(j): format_rational(c) for j, c in sorted(cert.ctilde.items())},
        "c_alpha": format_rational(cert.c_alpha),
        "c_beta": format_rational(cert.c_beta),
        "beta": betas,
    }


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome_digest(outcome) -> dict:
    """Digests of the event log, of the sorted S/C/machine_of/reject_cause
    maps, and of every other fact of the trace of one run."""

    def rat(value):
        return None if value is None else format_rational(value)

    maps = json.dumps(
        {
            "S": {str(j): rat(v) for j, v in sorted(outcome.S.items())},
            "C": {str(j): rat(v) for j, v in sorted(outcome.C.items())},
            "machine_of": {str(j): v for j, v in sorted(outcome.machine_of.items())},
            "reject_cause": {str(j): v for j, v in sorted(outcome.reject_cause.items())},
        },
        sort_keys=True,
    )
    trace = json.dumps(
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
    return {
        "events": _sha(serialize_event_log(outcome.events)),
        "maps": _sha(maps),
        "trace": _sha(trace),
    }


def loop_digests() -> list[dict]:
    # 24 generated instances: every combination of m in {1, 2, 3}, mean
    # interarrival in {1, 3} and epsilon in {1/4, 1/2}, twice, with n <= 15.
    cases = []
    for idx in range(24):
        case = {
            "n": 15 - (idx // 12) * 6,
            "m": idx % 3 + 1,
            "mean_interarrival": (1, 3)[idx // 3 % 2],
            "epsilon": ("1/4", "1/2")[idx // 6 % 2],
            "seed": 50_000 + idx,
        }
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
        digests = {"simulate": outcome_digest(simulate(instance))}
        for policy in BASELINE_POLICIES:
            digests[policy] = outcome_digest(baseline(instance, policy))
        cases.append({**case, "digests": digests})
    return cases


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    instances = {
        "e1_instance.jsonl": e1_instance(),
        "e3_instance.jsonl": e3_instance(),
        "counter_tail_instance.jsonl": counter_tail_instance(),
        "idling_instance.jsonl": idling_instance(),
    }
    for name, inst in instances.items():
        (FIXTURES / name).write_text(serialize_instance(inst))

    e1 = instances["e1_instance.jsonl"]
    outcome = simulate(e1)
    (FIXTURES / "e1_events.jsonl").write_text(serialize_event_log(outcome.events))
    cert = certificate_json(outcome)
    (FIXTURES / "e1_certificate.json").write_text(
        json.dumps(cert, indent=2) + "\n"
    )
    report, _ = build_report(e1)
    (FIXTURES / "e1_report.json").write_text(json.dumps(report, indent=2) + "\n")
    (FIXTURES / "loop_digests.json").write_text(
        json.dumps(loop_digests(), indent=2) + "\n"
    )
    for name in sorted(instances) + [
        "e1_events.jsonl",
        "e1_certificate.json",
        "e1_report.json",
        "loop_digests.json",
    ]:
        print("wrote", FIXTURES / name)


if __name__ == "__main__":
    main()
