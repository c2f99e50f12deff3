"""FaultLab: deterministic fault-schedule exploration for the reproduction.

Generate seeded fault timelines (:mod:`repro.faultlab.schedule`), replay
them against fresh deployments of any shard count while checking safety
and liveness invariants online (:mod:`repro.faultlab.invariants`,
:mod:`repro.faultlab.runner`), and shrink any failure to a minimal
regression test (:mod:`repro.faultlab.shrinker`).

See ``docs/FAULTLAB.md`` for the schedule format, invariant catalogue,
and the seed-replay workflow.
"""

from repro.faultlab.invariants import (
    BoundedDisclosureInvariant,
    CheckpointMonotonicityInvariant,
    ConfidentialityInvariant,
    Invariant,
    InvariantChecker,
    InvariantReport,
    LivenessInvariant,
    OrderingSafetyInvariant,
    Violation,
    default_invariants,
)
from repro.faultlab.runner import (
    FaultLabConfig,
    FaultLabResult,
    plant_leak,
    run_schedule,
    schedule_for_seed,
    sweep,
)
from repro.faultlab.schedule import (
    FaultEvent,
    FaultSchedule,
    ScheduleSpace,
    generate_schedule,
    make_event,
    space_for,
    validate_schedule,
)
from repro.faultlab.shrinker import ShrinkResult, regression_test_source, shrink

__all__ = [
    "BoundedDisclosureInvariant",
    "CheckpointMonotonicityInvariant",
    "ConfidentialityInvariant",
    "FaultEvent",
    "FaultLabConfig",
    "FaultLabResult",
    "FaultSchedule",
    "Invariant",
    "InvariantChecker",
    "InvariantReport",
    "LivenessInvariant",
    "OrderingSafetyInvariant",
    "ScheduleSpace",
    "ShrinkResult",
    "Violation",
    "default_invariants",
    "generate_schedule",
    "make_event",
    "plant_leak",
    "regression_test_source",
    "run_schedule",
    "schedule_for_seed",
    "shrink",
    "space_for",
    "sweep",
    "validate_schedule",
]
