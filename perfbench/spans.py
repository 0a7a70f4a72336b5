"""Spans around the calls into each flowreject module, from outside `src/`.

``Tracer.patched()`` swaps the module attributes through which the CLI and
the analysis layer call each public function for timed wrappers, and puts
the originals back on exit. A span records name, start, end, parent span and
instance id; spans stay in memory until the caller writes ``span_rows()``
out. Wrappers on the calls that ``cli.build_report`` makes directly also
read the work counts off their results, so counts cover each report's
top-level pipeline and not the prefix replays inside ``check_monotonicity``.
Spans and counts are both kept per label (``Tracer.label``), so that the
caller can tell the workload's share from the probe's.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from contextlib import contextmanager, redirect_stdout
from dataclasses import asdict, dataclass
from time import perf_counter

from flowreject import BRANCHES, analysis, cli, engine

# Per-layer time metric -> span name whose durations it sums.
TIME_METRICS = {
    "instance.parse_s": "instance.parse",
    "instance.digest_s": "instance.digest",
    "generate.generate_s": "generate.generate",
    "engine.simulate_s": "engine.simulate",
    "analysis.certificate_s": "analysis.certificate",
    "analysis.objectives_s": "analysis.objectives",
    "analysis.structural_s": "analysis.structural",
    "analysis.dual_feasibility_s": "analysis.dual_feasibility",
    "analysis.main_inequality_s": "analysis.main_inequality",
    "analysis.weight_balance_s": "analysis.weight_balance",
    "analysis.alpha_lower_bound_s": "analysis.alpha_lower_bound",
    "analysis.theorem_chain_s": "analysis.theorem_chain",
    "analysis.monotonicity_s": "analysis.monotonicity",
    "oracle.brute_force_s": "oracle.brute_force",
    "oracle.baselines_s": "oracle.baseline",
}

# Span name -> the check function run_all_checks calls for it.
CHECK_SPANS = {
    "analysis.structural": "check_structural_properties",
    "analysis.dual_feasibility": "check_dual_feasibility",
    "analysis.main_inequality": "check_main_inequality",
    "analysis.weight_balance": "check_weight_balance",
    "analysis.alpha_lower_bound": "check_alpha_lower_bound",
    "analysis.theorem_chain": "check_theorem_chain",
}

BRANCH_METRICS = {b: "policy.branch." + b.replace("/", ".") for b in BRANCHES}

COUNT_METRICS = (
    "engine.events",
    "engine.event_times",
    "engine.max_queue",
    *BRANCH_METRICS.values(),
    "policy.reject_preempt",
    "policy.reject_weight_gap",
    "analysis.breakpoints",
    "analysis.weight_balance.points",
    "analysis.main_inequality.points",
    "analysis.dual_feasibility.pairs",
    "oracle.assignments",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    instance: str


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.label = "workload"
        self.counts: dict[str, Counter[str]] = {}
        self._stack: list[int] = []
        self._instances = 0

    def span(self, name: str, fn, on_result=None):
        """Wraps ``fn`` so that each call records a span named ``name``.
        Every instance starts with a ``generate`` call, which opens a new
        instance id. ``on_result`` sees the result and the arguments."""

        def traced(*args, **kwargs):
            if name == "generate.generate":
                self._instances += 1
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, f"{self.label}:{self._instances}")
            self.spans.append(span)
            self._stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result, *args)
            return result

        return traced

    def label_counts(self) -> Counter[str]:
        """The counts of the current label."""
        return self.counts.setdefault(self.label, Counter({name: 0 for name in COUNT_METRICS}))

    def total_counts(self) -> Counter[str]:
        """The counts summed over labels; ``max_queue`` is the maximum."""
        total = sum(self.counts.values(), Counter())
        total["engine.max_queue"] = max(c["engine.max_queue"] for c in self.counts.values())
        return total

    # Count collectors for the calls build_report makes directly.

    def _count_outcome(self, outcome, instance) -> None:
        c = self.label_counts()
        times = outcome.event_times()
        c["engine.events"] += len(outcome.events)
        c["engine.event_times"] += len(times)
        queue = max((len(s.pending) for snaps in outcome.snapshots for s in snaps), default=0)
        c["engine.max_queue"] = max(c["engine.max_queue"], queue)
        for info in outcome.arrivals.values():
            c[BRANCH_METRICS[info.branch]] += 1
        for cause in outcome.reject_cause.values():
            if cause is not None:
                c["policy.reject_" + cause] += 1
        m = instance.machines
        c["analysis.weight_balance.points"] += m * len(times)
        c["analysis.dual_feasibility.pairs"] += len(instance.jobs) * m

    def _count_certificate(self, cert, outcome) -> None:
        c = self.label_counts()
        times = set(outcome.event_times())
        for beta in cert.beta:
            c["analysis.breakpoints"] += len(beta.breakpoints)
            c["analysis.main_inequality.points"] += len(times | set(beta.breakpoints))

    def _count_oracle(self, schedule, instance, *_) -> None:
        self.label_counts()["oracle.assignments"] += instance.machines ** len(instance.jobs)

    @contextmanager
    def patched(self):
        """Routes the CLI's and the analysis layer's calls through spans."""
        wrap = self.span
        patches = [
            (cli, "parse_instance", wrap("instance.parse", cli.parse_instance)),
            (cli, "generate", wrap("generate.generate", cli.generate)),
            (cli, "instance_digest", wrap("instance.digest", cli.instance_digest)),
            (cli, "build_report", wrap("cli.build_report", cli.build_report)),
            (cli, "simulate", wrap("engine.simulate", cli.simulate, self._count_outcome)),
            (cli, "build_certificate",
             wrap("analysis.certificate", cli.build_certificate, self._count_certificate)),
            (cli, "objectives", wrap("analysis.objectives", cli.objectives)),
            (cli, "run_all_checks", wrap("analysis.run_all_checks", cli.run_all_checks)),
            (cli, "check_monotonicity", wrap("analysis.monotonicity", cli.check_monotonicity)),
            (cli, "brute_force_opt", wrap("oracle.brute_force", cli.brute_force_opt, self._count_oracle)),
            (cli, "lower_bound_trivial", wrap("oracle.lower_bound", cli.lower_bound_trivial)),
            (cli, "baseline", wrap("oracle.baseline", cli.baseline)),
            (cli, "slot_lp_cost", wrap("analysis.slot_lp_cost", cli.slot_lp_cost)),
            # Calls made inside run_all_checks and check_monotonicity.
            (analysis, "objectives", wrap("analysis.objectives", analysis.objectives)),
            (analysis, "replay_prefix", wrap("engine.replay_prefix", analysis.replay_prefix)),
            (analysis, "build_certificate", wrap("analysis.certificate", analysis.build_certificate)),
            (engine, "simulate", wrap("engine.simulate", engine.simulate)),
            *(
                (analysis, func, wrap(name, getattr(analysis, func)))
                for name, func in CHECK_SPANS.items()
            ),
        ]
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, traced in patches:
                setattr(module, attr, traced)
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)

    def run_cli(self, argv: list[str]) -> tuple[int, str, float]:
        """Runs ``flowreject`` in-process under a ``cli.main`` span; returns
        its exit code, its stdout and the span's duration."""
        out = io.StringIO()
        with redirect_stdout(out):
            code = self.span("cli.main", cli.main)(argv)
        span = next(s for s in reversed(self.spans) if s.name == "cli.main")
        return code, out.getvalue(), span.end - span.start

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self, label: str | None = None) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, inclusive seconds, self seconds)."""
        out: dict[str, list] = {}
        for span, own in zip(self.spans, self.self_times()):
            if label is not None and not span.instance.startswith(label + ":"):
                continue
            row = out.setdefault(span.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span.end - span.start
            row[2] += own
        return {name: tuple(row) for name, row in out.items()}

    def span_rows(self) -> list[dict]:
        """Every span as a JSON-ready dict, with its self time."""
        return [{**asdict(s), "self": own} for s, own in zip(self.spans, self.self_times())]
