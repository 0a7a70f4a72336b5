"""The benchmark's correctness gate, run in-process on every recorded input.

``perfbench/`` runs each workload's CLI command on a generated input and
counts a wrong verdict when a report field differs from the one recorded in
``perfbench/expected.json``, or when a check fails. This test builds the same
reports through ``cli.build_report`` and applies the benchmark's own
``verdict_fields``, so a change that moves a recorded field fails here first.
It also runs the benchmark's tracer once, so a change to the trace fields or
module attributes that the tracer reads fails here. It only reads
``perfbench/``.
"""

import json
import runpy
from pathlib import Path

import pytest

from conftest import FIXTURES
from flowreject import analysis, cli, engine
from flowreject.generate import generate
from flowreject.instance import parse_instance, serialize_instance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# run_path compiles without writing a bytecode cache into perfbench/.
WORKLOADS = runpy.run_path(str(PERFBENCH / "workloads.py"))
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())

# The same-time preempt-rejection defect (see test_acceptance) fails the
# monotonicity check on this input, and its recorded fields hold that margin.
KNOWN_FAILING = {("verify_congested", 2)}

CASES = [
    (name, seed)
    for name, workload in sorted(WORKLOADS["WORKLOADS"].items())
    for seed in range(WORKLOADS["RECORDED_SEEDS"])
]


@pytest.mark.parametrize("name, seed", CASES)
def test_report_matches_recorded_verdict(name, seed):
    workload = WORKLOADS["WORKLOADS"][name]
    # The CLI reads the instance from the file the benchmark writes.
    instance = parse_instance(serialize_instance(generate(workload.spec(seed))))
    report, passed = cli.build_report(instance, monotonicity=workload.command == "verify")
    report = json.loads(json.dumps(report))
    assert WORKLOADS["verdict_fields"](report) == EXPECTED[name][str(seed)]
    assert passed == ((name, seed) not in KNOWN_FAILING)


def test_every_recorded_input_is_covered():
    assert {(name, int(seed)) for name in EXPECTED for seed in EXPECTED[name]} == set(CASES)


def test_tracer_runs_the_cli_and_restores_every_patch():
    spans = runpy.run_path(str(PERFBENCH / "spans.py"))
    modules = (analysis, cli, engine)
    before = [dict(vars(module)) for module in modules]
    tracer = spans["Tracer"]()
    with tracer.patched():
        code, out, _ = tracer.run_cli(["verify", str(FIXTURES / "e1_instance.jsonl")])
    assert code == cli.EXIT_OK
    assert json.loads(out)["checks"]
    assert tracer.total_counts()["engine.events"] > 0
    assert [dict(vars(module)) for module in modules] == before
