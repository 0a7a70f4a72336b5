"""Smoke test of the benchmark harness on a tiny grid.

    python3 -m pytest perfbench/test_smoke.py

Runs the timed and the traced mode of each workload's command on tiny
inputs and checks that every metric BENCHMARK.json names is reported with
its unit, and that every verdict was right. It asserts nothing about time.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

sys.path.insert(0, str(SRC))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"run_large": 30, "verify_congested": 12}


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(name, trace):
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    workload = replace(WORKLOADS[name], name="tiny_" + name, n=TINY[name])
    run.write_input(workload, seed=3)
    tally = run.Tally(expected=None)
    measure = run.traced_run if trace else run.timed_run
    metrics, problems = measure(workload, 3, 0, tally)
    assert problems == []
    assert tally.attempted > 0 and tally.failed == 0
    want = units("per_layer" if trace else "end_to_end")
    assert {name: unit for name, (_, unit) in metrics.items()} == want
