"""Workload definitions, CLI invocation and the correctness gate.

A workload fixes a `flowreject` command and the generator parameters of its
input. The benchmark seed selects one of ``RECORDED_SEEDS`` generator seeds,
so every input the benchmark can make has its report fields recorded in
``expected.json`` (see ``record.py``), and any mismatch is a wrong verdict.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

# Generator seeds 0 .. RECORDED_SEEDS-1 have recorded report fields.
RECORDED_SEEDS = 16

# Data ranges for p and w, given explicitly so that a change of the
# generator's defaults cannot change the benchmark's inputs.
P_RANGE = W_RANGE = (1, 10)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # a flowreject command that takes an instance file
    n: int
    m: int
    mean_interarrival: int
    epsilon: str

    def generator_seed(self, seed: int) -> int:
        return seed % RECORDED_SEEDS

    def input_path(self, seed: int) -> Path:
        return WORK / f"{self.name}-{self.generator_seed(seed)}.jsonl"

    def cli_args(self, seed: int) -> list[str]:
        return [self.command, str(self.input_path(seed))]

    def spec(self, seed: int):
        """The WorkloadSpec of the input file."""
        from fractions import Fraction

        from flowreject import WorkloadSpec

        return WorkloadSpec(
            n=self.n,
            m=self.m,
            p_min=P_RANGE[0],
            p_max=P_RANGE[1],
            w_min=W_RANGE[0],
            w_max=W_RANGE[1],
            mean_interarrival=self.mean_interarrival,
            seed=self.generator_seed(seed),
            epsilon=Fraction(self.epsilon),
        )

    def setup_args(self, seed: int) -> list[str]:
        """Arguments of the set-up probe: import the package, then parse the
        input file."""
        return ["-c", _SETUP_PARSE, str(self.input_path(seed))]


_SETUP_PARSE = """\
import sys
from pathlib import Path
from flowreject import parse_instance
parse_instance(Path(sys.argv[1]).read_text())
"""

# Each CLI process takes about 2 s, so that a run holds many samples (see
# README.md, Steadiness). sweep_oracle was dropped for the same reason; the
# traced run's probe (run.py) measures the oracle on its instance shape.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("run_large", "run", n=400, m=2, mean_interarrival=3, epsilon="1/2"),
        Workload("verify_congested", "verify", n=80, m=4, mean_interarrival=1, epsilon="1/4"),
    )
}


def write_input(workload: Workload, seed: int, generate=None) -> None:
    """Writes the workload's instance file.

    ``generate`` defaults to ``flowreject.generate``; the traced run passes
    its timed wrapper.
    """
    from flowreject import serialize_instance
    if generate is None:
        from flowreject import generate
    instance = generate(workload.spec(seed))
    path = workload.input_path(seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(serialize_instance(instance))


@dataclass(frozen=True)
class ProcessRun:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str


def run_process(args: list[str]) -> ProcessRun:
    """Runs ``python3 <args>`` from the repository root and times it from
    start to exit; the peak RSS is the child's own rusage."""
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile("w+", dir=WORK) as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)}, stdout=out
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read()
    return ProcessRun(wall, usage.ru_maxrss / 1024, proc.returncode, text)


def verdict_fields(report: dict) -> dict:
    """The exact report fields a workload's verdict is compared on."""
    return {
        "instance_digest": report["instance_digest"],
        "totals": report["totals"],
        "objectives": report["objectives"],
        "checks": [{"name": c["name"], "margin": c["margin"]} for c in report["checks"]],
    }


def wrong_verdict(returncode: int, stdout: str, expected: dict | None) -> bool:
    """True if the verdict differs from the known answer: exit 0 with every
    check passed and, when ``expected`` is given, the recorded verdict
    fields. An unreadable report is a wrong verdict."""
    try:
        report = json.loads(stdout)
        fields = verdict_fields(report)
        passed = all(c["passed"] for c in report["checks"])
    except (ValueError, KeyError, TypeError):
        return True
    return returncode != 0 or not passed or (expected is not None and fields != expected)
