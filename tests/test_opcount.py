"""Smoke test of ``tools/opcount.py``. The counts depend on the
interpreter's ``fractions`` module, so only the layers are asserted."""

import subprocess
import sys

from conftest import FIXTURES

TOOL = FIXTURES.parents[1] / "tools" / "opcount.py"

LAYERS = [
    "parse",
    "simulate",
    "certificate",
    "objectives",
    "structural_properties",
    "dual_feasibility",
    "main_inequality",
    "weight_balance",
    "alpha_lower_bound",
    "theorem_chain",
    "monotonicity",
    "total",
]


def test_opcount_prints_every_layer():
    # In its own process: the tool wraps Fraction's methods for good.
    result = subprocess.run(
        [sys.executable, str(TOOL), str(FIXTURES / "e1_instance.jsonl"), "--verify"],
        capture_output=True, text=True, check=True,
    )
    rows = [line.split() for line in result.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == LAYERS
    assert all(len(row) == 3 and row[1].isdigit() and row[2].isdigit() for row in rows)
