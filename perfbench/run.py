"""The flowreject benchmark: time to a verdict, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload run_large --seed 7 --seconds 55 --trace 0

With ``--trace 0`` it runs the workload's CLI process, one at a time, until
``--seconds`` have passed (at least ``MIN_ROUNDS`` times), and reports the
medians of wall time, set-up time and peak RSS. With ``--trace 1`` it
alternates an untraced CLI process with the same command run in-process
with a span around every call into a flowreject module (see ``spans.py``),
followed by the probe, at least ``MIN_ROUNDS`` times within ``--seconds``,
and reports the per-layer seconds and work counts. Every report is checked
against the known answer; see ``workloads.py`` and README.md.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it print every
metric by name with its unit. ``correct`` is true only if every verdict was
right and every count repeated. The exit code is 0 whenever that line is
printed, and 2 when there is no flowreject package under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    EXPECTED,
    SRC,
    WORK,
    WORKLOADS,
    Workload,
    run_process,
    wrong_verdict,
    write_input,
)

MIN_ROUNDS = 2
SETUP_SAMPLES = 3  # per round

# Command -> the span names whose share of the traced time shows that the
# workload loads its intended layer.
INTENDED_LAYER = {
    "run": (
        "analysis.structural",
        "analysis.dual_feasibility",
        "analysis.main_inequality",
        "analysis.weight_balance",
        "analysis.alpha_lower_bound",
        "analysis.theorem_chain",
    ),
    "verify": ("analysis.monotonicity",),
}

# A small instance run through `oracle` and `verify` after each traced
# pipeline. Its spans and counts go into the per-layer metrics, so that the
# oracle, which neither workload calls, is measured on every workload (on the
# n=6, m=3 shape of the dropped sweep_oracle workload), and prefix replay is
# measured on run_large.
PROBE = Workload("probe", "oracle", n=6, m=3, mean_interarrival=3, epsilon="1/2")
PROBE_COMMANDS = ("oracle", "verify")


class Tally:
    """Verdicts judged and verdicts that differ from the known answer."""

    def __init__(self, expected: dict | None) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def judge(self, returncode: int, stdout: str) -> None:
        self.attempted += 1
        self.failed += wrong_verdict(returncode, stdout, self.expected)


def cli_sample(workload: Workload, seed: int, tally: Tally):
    result = run_process(["-m", "flowreject.cli", *workload.cli_args(seed)])
    tally.judge(result.returncode, result.stdout)
    return result


def setup_samples(workload: Workload, seed: int, count: int) -> list[float]:
    """Times ``count`` fresh interpreters that import flowreject and parse
    the input."""
    times = []
    for _ in range(count):
        result = run_process(workload.setup_args(seed))
        if result.returncode != 0:
            raise RuntimeError(f"set-up probe exited {result.returncode}")
        times.append(result.wall_s)
    return times


def keep_going(rounds: list[float], start: float, seconds: int) -> bool:
    """True while fewer than ``MIN_ROUNDS`` rounds ran or another round of
    median length still ends within ``seconds`` of ``start``."""
    if len(rounds) < MIN_ROUNDS:
        return True
    return perf_counter() - start + median(rounds) <= seconds


def timed_run(workload: Workload, seed: int, seconds: int, tally: Tally):
    """Each round is SETUP_SAMPLES set-up probes and one CLI process, so
    that both medians draw on the whole run. One untimed set-up probe first
    fills the bytecode cache."""
    start = perf_counter()
    setup_samples(workload, seed, 1)
    setups, walls, rss, rounds = [], [], [], []
    while keep_going(rounds, start, seconds):
        round_start = perf_counter()
        setups += setup_samples(workload, seed, SETUP_SAMPLES)
        result = cli_sample(workload, seed, tally)
        walls.append(result.wall_s)
        rss.append(result.peak_rss_mb)
        rounds.append(perf_counter() - round_start)
    print(f"# {len(walls)} CLI samples, wall_s: {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"# {len(setups)} set-up samples, setup_s: {' '.join(f'{s:.4f}' for s in setups)}")
    metrics = {
        "wall_s": (median(walls), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median(rss), "MB"),
    }
    return metrics, []


def traced_pipeline(workload: Workload, seed: int, tally: Tally, probe_tally: Tally):
    """The workload's command, then the probe's, in-process under spans.
    Returns the tracer and the seconds of the workload's ``cli.main``."""
    from spans import Tracer

    from flowreject import generate

    tracer = Tracer()
    traced_generate = tracer.span("generate.generate", generate)
    with tracer.patched():
        write_input(workload, seed, traced_generate)
        code, out, seconds_in_cli = tracer.run_cli(workload.cli_args(seed))
        tally.judge(code, out)
        tracer.label = "probe"
        write_input(PROBE, seed, traced_generate)
        for command in PROBE_COMMANDS:
            probe_tally.judge(*tracer.run_cli([command, str(PROBE.input_path(seed))])[:2])
    return tracer, seconds_in_cli


def traced_run(workload: Workload, seed: int, seconds: int, tally: Tally):
    """Each round is SETUP_SAMPLES set-up probes, one untraced CLI process
    and one traced pipeline; the difference of their medians is the tracing
    overhead."""
    from spans import COUNT_METRICS, TIME_METRICS

    start = perf_counter()
    setup_samples(workload, seed, 1)
    probe_tally = Tally(None)
    setups, walls, tracers, pipelines, rounds = [], [], [], [], []
    while keep_going(rounds, start, seconds):
        round_start = perf_counter()
        setups += setup_samples(workload, seed, SETUP_SAMPLES)
        walls.append(cli_sample(workload, seed, tally).wall_s)
        tracer, seconds_in_cli = traced_pipeline(workload, seed, tally, probe_tally)
        tracers.append(tracer)
        pipelines.append(seconds_in_cli)
        rounds.append(perf_counter() - round_start)

    problems = []
    if probe_tally.failed:
        problems.append(f"{probe_tally.failed} probe reports failed their checks")
    counts = [tracer.total_counts() for tracer in tracers]
    for other in counts[1:]:
        if other != counts[0]:
            diff = {k for k in COUNT_METRICS if other[k] != counts[0][k]}
            problems.append(f"counts differ between traced runs: {sorted(diff)}")

    wall_s, setup_s, pipeline_s = median(walls), median(setups), median(pipelines)
    print(f"# {len(tracers)} rounds; untraced wall_s {wall_s:.4f} s, setup_s {setup_s:.4f} s, "
          f"traced pipeline {pipeline_s:.4f} s")
    own = tracers[0].counts["workload"]
    print(f"# counts of the workload alone: engine.events {own['engine.events']}, "
          f"analysis.breakpoints {own['analysis.breakpoints']}")
    print("# span self time, last traced run (workload spans only):")
    print(f"#   {'span':32} {'calls':>7} {'total_s':>10} {'self_s':>10}")
    spans = tracers[-1].totals("workload")
    for name, (calls, total, self_s) in sorted(spans.items(), key=lambda kv: -kv[1][2]):
        print(f"#   {name:32} {calls:7d} {total:10.4f} {self_s:10.4f}")
    intended = sum(spans.get(name, (0, 0.0))[1] for name in INTENDED_LAYER[workload.command])
    print(f"# intended layer share of traced time: {intended / pipelines[-1]:.3f}")

    totals = [tracer.totals() for tracer in tracers]
    metrics = {
        metric: (median(t.get(span, (0, 0.0))[1] for t in totals), "s")
        for metric, span in TIME_METRICS.items()
    }
    metrics.update((name, (counts[0][name], "count")) for name in COUNT_METRICS)
    metrics["trace.overhead_s"] = (pipeline_s - (wall_s - setup_s), "s")

    spans_path = WORK / f"spans-{workload.name}-{seed}.json"
    spans_path.write_text(json.dumps([t.span_rows() for t in tracers]) + "\n")
    print(f"# spans written to {spans_path.relative_to(WORK.parent)}")
    return metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="flowreject benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flowreject" / "__init__.py").is_file():
        print(f"error: no flowreject package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    recorded = json.loads(EXPECTED.read_text())[workload.name]
    write_input(workload, args.seed)
    tally = Tally(recorded[str(workload.generator_seed(args.seed))])
    run = traced_run if args.trace else timed_run
    metrics, problems = run(workload, args.seed, args.seconds, tally)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"fail_frac {tally.failed / tally.attempted} share "
          f"({tally.failed} of {tally.attempted} verdicts)")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    correct = tally.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
