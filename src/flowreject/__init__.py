"""Online non-preemptive weighted flow-time scheduling with job rejection.

Exact rational simulation of a dispatch-and-reject policy on unrelated
machines, plus certificate construction and checkers for every guarantee the
policy makes. See the module docstrings for the moving parts: ``instance``
(data model), ``generate`` (workloads), ``policy`` (decision rules),
``engine`` (simulator), ``analysis`` (certificates and checks), ``oracle``
(ground truth), ``cli`` (command line).
"""

from .analysis import (
    CheckReport,
    DualCertificate,
    GridRequired,
    Objectives,
    OutOfSupport,
    PiecewiseLinear,
    UnknownJob,
    build_certificate,
    check_alpha_lower_bound,
    check_dual_feasibility,
    check_main_inequality,
    check_monotonicity,
    check_structural_properties,
    check_theorem_chain,
    check_weight_balance,
    definitive_completion,
    fractional_weight,
    objectives,
    run_all_checks,
    slot_lp_cost,
)
from .engine import (
    ArrivalInfo,
    BadPrefix,
    EventRecord,
    MachineState,
    SimOutcome,
    SimulationPanic,
    Snapshot,
    event_to_json,
    replay_prefix,
    serialize_event_log,
    simulate,
)
from .generate import SplitMix64, WorkloadSpec, generate
from .instance import (
    BadEpsilon,
    DuplicateJobId,
    Instance,
    InstanceError,
    JobSpec,
    MissingProcessingTime,
    NonPositiveValue,
    density,
    instance_digest,
    make_instance,
    parse_instance,
    serialize_instance,
    validate,
)
from .oracle import (
    BASELINE_POLICIES,
    OracleSchedule,
    TooLarge,
    baseline,
    brute_force_opt,
    lower_bound_trivial,
)
from .policy import (
    BRANCHES,
    ZERO_BUDGET_BRANCHES,
    RhoUndefined,
    WeightGapDecision,
    apply_preempt_rule,
    compute_alpha_ij,
    compute_rho,
    dispatch,
    queue_key,
    weight_gap_reject,
)
from .rational import Rational, decimal_str, format_rational, parse_rational

__version__ = "0.1.0"
