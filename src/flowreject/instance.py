"""Scheduling instance model and JSON-Lines file I/O.

An instance file is JSON Lines. The first line is a header object
``{"machines": m, "epsilon": "num/den"}``. Every following line is one job:
``{"id": int, "r": int-or-"num/den", "w": ..., "p": {"m0": v, "m1": v, ...}}``.
Rationals are serialized as "num/den" strings; plain ints are accepted as
shorthand. Serialization is canonical, so parse and serialize round-trip
byte-identically on canonical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .rational import format_rational, parse_rational

__all__ = [
    "InstanceError",
    "DuplicateJobId",
    "MissingProcessingTime",
    "NonPositiveValue",
    "BadEpsilon",
    "JobSpec",
    "Instance",
    "make_instance",
    "density",
    "parse_instance",
    "serialize_instance",
    "validate",
    "instance_digest",
]


class InstanceError(ValueError):
    """Base class for malformed or invalid instance data."""


class DuplicateJobId(InstanceError):
    pass


class MissingProcessingTime(InstanceError):
    pass


class NonPositiveValue(InstanceError):
    pass


class BadEpsilon(InstanceError):
    pass


@dataclass(frozen=True)
class JobSpec:
    """One job: unique id, release time, weight, and per-machine processing times."""

    id: int
    release: Fraction
    weight: Fraction
    proc: dict[int, Fraction]

    def density(self, machine: int) -> Fraction:
        return density(self, machine)


def density(job: JobSpec, machine: int) -> Fraction:
    """Weight per unit of processing time of ``job`` on ``machine``, exactly."""
    try:
        p = job.proc[machine]
    except KeyError:
        raise MissingProcessingTime(
            f"job {job.id} has no processing time for machine {machine}"
        ) from None
    return job.weight / p


@dataclass(frozen=True)
class Instance:
    """A full problem instance: machine count, jobs sorted by (release, id), epsilon."""

    machines: int
    jobs: tuple[JobSpec, ...]
    epsilon: Fraction
    integer_grid: bool = field(init=False)

    def __post_init__(self) -> None:
        grid = all(
            j.release.denominator == 1 and all(p.denominator == 1 for p in j.proc.values())
            for j in self.jobs
        )
        object.__setattr__(self, "integer_grid", grid)

    @property
    def total_weight(self) -> Fraction:
        return sum((j.weight for j in self.jobs), Fraction(0))


def _sorted_jobs(jobs: list[JobSpec]) -> tuple[JobSpec, ...]:
    return tuple(sorted(jobs, key=lambda j: (j.release, j.id)))


def make_instance(machines: int, jobs: list[JobSpec], epsilon: Fraction) -> Instance:
    """Build and validate an instance from unsorted parts."""
    inst = Instance(machines=machines, jobs=_sorted_jobs(jobs), epsilon=epsilon)
    validate(inst)
    return inst


def parse_instance(text: str | bytes) -> Instance:
    """Parse the JSON-Lines instance format; returns a validated Instance."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InstanceError(f"not UTF-8: {exc}") from None
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise InstanceError("empty instance file")
    header = _load_json_line(lines[0], 1)
    if not isinstance(header, dict) or "machines" not in header or "epsilon" not in header:
        raise InstanceError("header must be an object with 'machines' and 'epsilon'")
    machines = header["machines"]
    if not isinstance(machines, int) or isinstance(machines, bool) or machines < 1:
        raise InstanceError(f"machine count must be a positive integer, got {machines!r}")
    try:
        epsilon = parse_rational(header["epsilon"])
    except ValueError as exc:
        raise BadEpsilon(str(exc)) from None
    if not 0 < epsilon < 1:
        raise BadEpsilon(f"epsilon must satisfy 0 < epsilon < 1, got {epsilon}")

    jobs: list[JobSpec] = []
    seen: set[int] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        obj = _load_json_line(line, lineno)
        if not isinstance(obj, dict):
            raise InstanceError(f"line {lineno}: job entry must be an object")
        try:
            job_id = obj["id"]
            release = parse_rational(obj["r"])
            weight = parse_rational(obj["w"])
            proc_raw = obj["p"]
        except KeyError as exc:
            raise InstanceError(f"line {lineno}: missing field {exc}") from None
        except ValueError as exc:
            raise InstanceError(f"line {lineno}: {exc}") from None
        if not isinstance(job_id, int) or isinstance(job_id, bool) or job_id < 0:
            raise InstanceError(f"line {lineno}: id must be a non-negative integer")
        if job_id in seen:
            raise DuplicateJobId(f"line {lineno}: duplicate job id {job_id}")
        seen.add(job_id)
        if not isinstance(proc_raw, dict):
            raise InstanceError(f"line {lineno}: 'p' must be an object")
        proc: dict[int, Fraction] = {}
        for key, raw in proc_raw.items():
            # "m" plus a canonical decimal, so distinct keys are distinct
            # machines ("m0" and "m00" would both be machine 0).
            digits = key[1:]
            if not (
                key.startswith("m")
                and digits.isascii()
                and digits.isdigit()
                and (digits == "0" or not digits.startswith("0"))
            ):
                raise InstanceError(f"line {lineno}: bad machine key {key!r}")
            try:
                proc[int(digits)] = parse_rational(raw)
            except ValueError as exc:
                raise InstanceError(f"line {lineno}: {exc}") from None
        jobs.append(JobSpec(id=job_id, release=release, weight=weight, proc=proc))

    inst = Instance(machines=machines, jobs=_sorted_jobs(jobs), epsilon=epsilon)
    validate(inst)
    return inst


def _load_json_line(line: str, lineno: int):
    try:
        return json.loads(line, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"line {lineno}: invalid JSON: {exc.msg}") from None
    except ValueError as exc:
        raise InstanceError(f"line {lineno}: {exc}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def serialize_instance(instance: Instance) -> str:
    """Canonical JSON-Lines text for ``instance``; inverse of parse_instance."""
    out = [
        json.dumps(
            {"machines": instance.machines, "epsilon": format_rational(instance.epsilon)},
            separators=(",", ":"),
        )
    ]
    for j in instance.jobs:
        obj = {
            "id": j.id,
            "r": format_rational(j.release),
            "w": format_rational(j.weight),
            "p": {f"m{i}": format_rational(j.proc[i]) for i in sorted(j.proc)},
        }
        out.append(json.dumps(obj, separators=(",", ":")))
    return "\n".join(out) + "\n"


def validate(instance: Instance) -> None:
    """Check all type invariants; raises the first violation found."""
    if instance.machines < 1:
        raise InstanceError("machine count must be at least 1")
    if not 0 < instance.epsilon < 1:
        raise BadEpsilon(f"epsilon must satisfy 0 < epsilon < 1, got {instance.epsilon}")
    seen: set[int] = set()
    for j in instance.jobs:
        if j.id in seen:
            raise DuplicateJobId(f"duplicate job id {j.id}")
        seen.add(j.id)
        if j.id < 0:
            raise InstanceError(f"job id {j.id} is negative")
        if j.release < 0:
            raise NonPositiveValue(f"job {j.id}: release {j.release} is negative")
        if j.weight <= 0:
            raise NonPositiveValue(f"job {j.id}: weight {j.weight} must be positive")
        for i in range(instance.machines):
            if i not in j.proc:
                raise MissingProcessingTime(
                    f"job {j.id} has no processing time for machine {i}"
                )
        for i, p in j.proc.items():
            if not 0 <= i < instance.machines:
                raise InstanceError(f"job {j.id}: machine id {i} out of range")
            if p <= 0:
                raise NonPositiveValue(f"job {j.id}: processing time {p} on machine {i}")
    releases = [j.release for j in instance.jobs]
    ids = [j.id for j in instance.jobs]
    if list(zip(releases, ids)) != sorted(zip(releases, ids)):
        raise InstanceError("jobs must be sorted by (release, id)")


def instance_digest(instance: Instance) -> str:
    """Content hash of the canonical serialization."""
    return hashlib.sha256(serialize_instance(instance).encode("utf-8")).hexdigest()
