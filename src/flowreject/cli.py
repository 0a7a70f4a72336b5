"""Command-line interface: generate, run, verify, sweep, oracle.

Every command emits deterministic JSON: fixed key order, rationals as bare
integers or "num/den" strings, each paired with a display-only ``*_decimal``
sibling. Identical inputs produce byte-identical outputs.

Exit codes: 0 success (all checks pass), 1 at least one check failed,
2 usage or input errors.

An optional ``--config`` file holds ``key=value`` lines (keys are the long
flag names without the leading dashes, of any command's options); explicit
flags win over the config file, which wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import __version__
from .analysis import (
    build_certificate,
    check_monotonicity,
    objectives,
    run_all_checks,
    slot_lp_cost,
)
from .engine import simulate
from .generate import WorkloadSpec, generate
from .instance import Instance, InstanceError, instance_digest, parse_instance, serialize_instance
from .oracle import BASELINE_POLICIES, TooLarge, baseline, brute_force_opt, lower_bound_trivial
from .rational import decimal_str, format_rational, parse_integer, parse_rational

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

_DEFAULTS = {
    "n": "10",
    "m": "2",
    "p_range": "1:10",
    "w_range": "1:10",
    "mean_interarrival": "3",
    "seed": "1",
    "epsilon": "1/2",
    "epsilons": "1/2",
    "count": "10",
    "oracle_limit": "7",
}


class CliError(Exception):
    pass


def _rat(value: Fraction) -> int | str:
    return format_rational(value)


def _with_decimal(mapping: dict, key: str, value: Fraction | None) -> None:
    """Stores a rational field and its display-only decimal sibling."""
    if value is None:
        mapping[key] = None
        mapping[key + "_decimal"] = None
    else:
        mapping[key] = _rat(value)
        mapping[key + "_decimal"] = decimal_str(value)


def _check_to_json(report) -> dict:
    out: dict = {"name": report.name, "passed": report.passed}
    _with_decimal(out, "margin", report.margin)
    if report.witness is None or all(part is None for part in report.witness):
        out["witness"] = None
    else:
        machine, time, job = report.witness
        witness: dict = {"machine": machine}
        _with_decimal(witness, "time", time)
        witness["job"] = job
        out["witness"] = witness
    return out


def build_report(
    instance: Instance,
    seed: int | None = None,
    monotonicity: bool = False,
    with_oracle: bool = False,
    oracle_limit: int = 7,
) -> tuple[dict, bool]:
    """Full pipeline for one instance; returns (report, all_checks_passed)."""
    outcome = simulate(instance)
    cert = build_certificate(outcome)
    objs = objectives(cert, outcome)
    checks = run_all_checks(cert, outcome, objs)
    if monotonicity:
        checks.append(check_monotonicity(outcome))

    total_w = instance.total_weight
    report: dict = {
        "report_version": 1,
        "tool_version": __version__,
        "instance_digest": instance_digest(instance),
        "machines": instance.machines,
        "jobs": len(instance.jobs),
    }
    _with_decimal(report, "epsilon", instance.epsilon)
    report["seed"] = seed
    totals: dict = {}
    _with_decimal(totals, "total_weight", total_w)
    _with_decimal(totals, "alg_weighted_flow", outcome.weighted_flow_completed)
    _with_decimal(totals, "rejected_weight_preempt", outcome.rejected_weight_preempt)
    _with_decimal(totals, "rejected_weight_weight_gap", outcome.rejected_weight_weight_gap)
    _with_decimal(
        totals,
        "rejected_fraction_preempt",
        outcome.rejected_weight_preempt / total_w if total_w else Fraction(0),
    )
    _with_decimal(
        totals,
        "rejected_fraction_weight_gap",
        outcome.rejected_weight_weight_gap / total_w if total_w else Fraction(0),
    )
    report["totals"] = totals
    objs_json: dict = {}
    _with_decimal(objs_json, "dual_obj", objs.dual_obj)
    _with_decimal(objs_json, "primal_lp_cost", objs.primal_lp_cost)
    _with_decimal(objs_json, "alg_weighted_flow", objs.alg_weighted_flow)
    _with_decimal(objs_json, "sum_w_ctilde", objs.sum_w_ctilde)
    report["objectives"] = objs_json
    report["checks"] = [_check_to_json(c) for c in checks]
    all_passed = all(c.passed for c in checks)

    if with_oracle:
        report["oracle"] = _oracle_section(instance, outcome, objs, oracle_limit)
    else:
        report["oracle"] = None
    return report, all_passed


def _oracle_section(instance, outcome, objs, oracle_limit: int) -> dict:
    eps = instance.epsilon
    schedule = brute_force_opt(instance, limit=oracle_limit)
    section: dict = {"sequences": [list(seq) for seq in schedule.sequences]}
    _with_decimal(section, "opt_cost", schedule.cost)
    _with_decimal(section, "lower_bound", lower_bound_trivial(instance))
    baselines: dict = {}
    for name in BASELINE_POLICIES:
        base = baseline(instance, name)
        sub: dict = {}
        _with_decimal(sub, "weighted_flow", base.weighted_flow_completed)
        baselines[name] = sub
    section["baselines"] = baselines
    ratio = (
        outcome.weighted_flow_completed / schedule.cost if schedule.cost else None
    )
    _with_decimal(section, "empirical_ratio", ratio)
    bound = 22 * (1 + eps) * (1 + eps * eps) / eps**3
    _with_decimal(section, "theorem_bound", bound)
    if instance.integer_grid:
        lp = slot_lp_cost(instance, schedule.assignment())
        _with_decimal(section, "oracle_slot_lp_cost", lp)
        section["weak_duality_ok"] = objs.dual_obj <= lp
    else:
        _with_decimal(section, "oracle_slot_lp_cost", None)
        section["weak_duality_ok"] = None
    return section


def _emit(payload: dict, out: str | None) -> None:
    _write(json.dumps(payload, indent=2) + "\n", out)


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}") from exc


def _read_instance(path: str) -> Instance:
    try:
        return parse_instance(Path(path).read_bytes())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except InstanceError as exc:
        raise CliError(f"bad instance {path}: {exc}") from exc


def _parse_epsilon(text: str) -> Fraction:
    """An epsilon from a flag or a config line, held to the instance files'
    rule: 0 < epsilon < 1, written canonically ("1/2", not "2/4" or "+1/2")."""
    try:
        eps = parse_rational(text)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if not 0 < eps < 1:
        raise CliError(f"epsilon must satisfy 0 < epsilon < 1, got {text}")
    if format_rational(eps) != text:
        raise CliError(f"epsilon not canonical: {text!r}, write {format_rational(eps)!r}")
    return eps


def _override_epsilon(instance: Instance, epsilon: str | None) -> Instance:
    if epsilon is None:
        return instance
    return Instance(
        machines=instance.machines, jobs=instance.jobs, epsilon=_parse_epsilon(epsilon)
    )


def _parse_int(text: str, source: str) -> int:
    """An integer from a flag or a config line, written canonically: an
    optional minus sign and ASCII digits with no leading zero."""
    try:
        value = parse_integer(text)
    except ValueError:
        raise CliError(f"{source}: expected an integer, got {text!r}") from None
    if str(value) != text:
        raise CliError(f"{source}: integer not canonical: {text!r}, write '{value}'")
    return value


def _parse_range(text: str, source: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise CliError(f"{source}: bad range {text!r}, expected LO:HI")
    return _parse_int(lo, source), _parse_int(hi, source)


def _workload_from(args) -> WorkloadSpec:
    p_lo, p_hi = args.p_range
    w_lo, w_hi = args.w_range
    try:
        return WorkloadSpec(
            n=args.n,
            m=args.m,
            p_min=p_lo,
            p_max=p_hi,
            w_min=w_lo,
            w_max=w_hi,
            mean_interarrival=args.mean_interarrival,
            seed=args.seed,
            epsilon=_parse_epsilon(args.epsilon),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_gen(args) -> int:
    _write(serialize_instance(generate(_workload_from(args))), args.out)
    return EXIT_OK


def cmd_run(args) -> int:
    instance = _override_epsilon(_read_instance(args.instance), args.epsilon)
    report, passed = build_report(instance)
    _emit(report, args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    instance = _override_epsilon(_read_instance(args.instance), args.epsilon)
    report, passed = build_report(instance, monotonicity=True)
    _emit(report, args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_oracle(args) -> int:
    instance = _override_epsilon(_read_instance(args.instance), args.epsilon)
    try:
        report, passed = build_report(
            instance, with_oracle=True, oracle_limit=args.oracle_limit
        )
    except TooLarge as exc:
        raise CliError(str(exc)) from exc
    _emit(report, args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_sweep(args) -> int:
    base = _workload_from(args)
    specs = [replace(base, epsilon=_parse_epsilon(tok)) for tok in args.epsilons.split(",") if tok]
    if not specs or args.count < 1:
        raise CliError("need at least one epsilon and --count >= 1")
    rows = []
    all_passed = True
    for eps_spec in specs:
        eps = eps_spec.epsilon
        max_frac1 = Fraction(0)
        max_frac2 = Fraction(0)
        max_ratio: Fraction | None = None
        checks_passed = 0
        checks_total = 0
        for idx in range(args.count):
            spec = replace(eps_spec, seed=(args.seed + idx) % (1 << 64))
            instance = generate(spec)
            with_oracle = len(instance.jobs) <= args.oracle_limit
            report, passed = build_report(
                instance,
                seed=spec.seed,
                with_oracle=with_oracle,
                oracle_limit=args.oracle_limit,
            )
            all_passed = all_passed and passed
            for check in report["checks"]:
                checks_total += 1
                checks_passed += bool(check["passed"])
            totals = report["totals"]
            max_frac1 = max(max_frac1, parse_rational(totals["rejected_fraction_preempt"]))
            max_frac2 = max(
                max_frac2, parse_rational(totals["rejected_fraction_weight_gap"])
            )
            if with_oracle and report["oracle"]["empirical_ratio"] is not None:
                ratio = parse_rational(report["oracle"]["empirical_ratio"])
                if max_ratio is None or ratio > max_ratio:
                    max_ratio = ratio
        row: dict = {}
        _with_decimal(row, "epsilon", eps)
        row["runs"] = args.count
        _with_decimal(row, "max_rejected_fraction_preempt", max_frac1)
        _with_decimal(row, "max_rejected_fraction_weight_gap", max_frac2)
        _with_decimal(row, "max_empirical_ratio", max_ratio)
        row["checks_passed"] = checks_passed
        row["checks_total"] = checks_total
        rows.append(row)
    aggregate = {
        "report_version": 1,
        "tool_version": __version__,
        "command": "sweep",
        "count": args.count,
        "seed": args.seed,
        "rows": rows,
        "all_passed": all_passed,
    }
    _emit(aggregate, args.out)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"config line {lineno}: expected key=value")
        key = key.strip().replace("-", "_")
        if key not in _DEFAULTS:
            raise CliError(f"config line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


_INT_KEYS = {"n", "m", "mean_interarrival", "seed", "count", "oracle_limit"}
_RANGE_KEYS = {"p_range", "w_range"}


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Applies flag > config > default precedence to every known option and
    parses the integer and range ones, from whichever source, with
    ``_parse_int``. A negative oracle limit is a usage error."""
    config = _load_config(getattr(args, "config", None))
    for key, default in _DEFAULTS.items():
        if not hasattr(args, key):
            continue
        raw = getattr(args, key)
        source = "--" + key.replace("_", "-")
        if raw is None and key in config:
            raw, source = config[key], f"config key {key}"
        if raw is None:
            if key == "epsilon" and hasattr(args, "instance"):
                continue  # no flag and no config entry: keep the instance file's value
            raw = default
        if key in _INT_KEYS:
            value = _parse_int(raw, source)
            if key == "oracle_limit" and value < 0:
                raise CliError(f"{source}: must be at least 0, got {value}")
            setattr(args, key, value)
        else:
            setattr(args, key, _parse_range(raw, source) if key in _RANGE_KEYS else raw)
    return args


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowreject",
        description="Online weighted flow-time scheduling with rejection: "
        "simulate, certify, and verify runs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--config", default=None, help="key=value config file")

    def workload(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", default=None, help="number of jobs")
        p.add_argument("--m", default=None, help="number of machines")
        p.add_argument("--p-range", dest="p_range", default=None, help="LO:HI processing times")
        p.add_argument("--w-range", dest="w_range", default=None, help="LO:HI weights")
        p.add_argument("--mean-interarrival", dest="mean_interarrival", default=None)
        p.add_argument("--seed", default=None, help="64-bit generator seed")
        p.add_argument("--epsilon", default=None, help="rational in (0,1), e.g. 1/2")

    p_gen = sub.add_parser("gen", help="generate an instance file")
    common(p_gen)
    workload(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    for name, func, extra in (
        ("run", cmd_run, False),
        ("verify", cmd_verify, False),
        ("oracle", cmd_oracle, True),
    ):
        p = sub.add_parser(name, help=f"{name} an instance file")
        common(p)
        p.add_argument("instance", help="instance file path")
        p.add_argument("--epsilon", default=None, help="override the file's epsilon")
        if extra:
            p.add_argument("--oracle-limit", dest="oracle_limit", default=None)
        p.set_defaults(func=func)

    p_sweep = sub.add_parser("sweep", help="generate and verify many instances")
    common(p_sweep)
    workload(p_sweep)
    p_sweep.add_argument("--count", default=None, help="instances per epsilon")
    p_sweep.add_argument(
        "--epsilons", default=None, help="comma-separated rationals, e.g. 1/4,1/2"
    )
    p_sweep.add_argument("--oracle-limit", dest="oracle_limit", default=None)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _resolve(args)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
