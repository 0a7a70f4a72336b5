"""Online non-preemptive weighted flow-time scheduling with job rejection.

Exact rational simulation of a dispatch-and-reject policy on unrelated
machines, plus certificate construction and checkers for every guarantee the
policy makes. See the module docstrings for the moving parts: ``instance``
(data model), ``generate`` (workloads), ``policy`` (decision rules),
``engine`` (simulator), ``analysis`` (certificates and checks), ``oracle``
(ground truth), ``cli`` (command line).

The package root exports only the names below; everything else is imported
from its module, e.g. ``from flowreject.analysis import run_all_checks``.
"""

from .analysis import build_certificate
from .engine import simulate
from .generate import WorkloadSpec, generate
from .instance import parse_instance, serialize_instance
from .policy import BRANCHES

__all__ = [
    "BRANCHES",
    "WorkloadSpec",
    "build_certificate",
    "generate",
    "parse_instance",
    "serialize_instance",
    "simulate",
]

__version__ = "0.1.0"
