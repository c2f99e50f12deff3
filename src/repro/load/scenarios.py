"""The scenario zoo: load shapes composed with FaultLab schedules.

A scenario is a named, reproducible experiment that answers a question
no plain sweep or plain fault schedule can: *what happens when the
system is stressed and wounded at the same time?* Each one pairs an
open-loop load shape (:mod:`repro.load.arrivals`) with a FaultLab fault
timeline, runs the full checker stack — invariant checkers scoring the
run, the WatchLab detector suite watching the same trace — and demands
both verdicts:

* every invariant holds (or, for scenarios that deliberately plant a
  confidentiality breach, the checker *catches* the breach and nothing
  else fails);
* every injected fault is picked up by the online detectors
  (:func:`repro.obs.watch.detectors.match_detections` coverage).

Fault targets are resolved against the built deployment at run time
(the current leader, its site, a shard's proposers), so scenarios stay
valid as topologies change. Every scenario builds through
:func:`~repro.shard.builder.build_sharded` (one shard unless it says
otherwise) and is armed and scored by FaultLab's runner
(:class:`repro.faultlab.runner.ArmedRun`).

Catalog (``repro load scenario --list``):

====================================  =====================================
``checkpoint-under-burst``            bursty on/off load while a replica
                                      crash-recovers: checkpoint catch-up
                                      must absorb the burst backlog.
``key-renewal-storm``                 failure-storm load with aggressive
                                      key renewal and a planted plaintext
                                      leak: renewal bounds disclosure and
                                      the checker must catch the leak.
``site-disconnect-at-saturation``     Poisson load at the knee while the
                                      leader's site is cut off: failover
                                      under pressure, then reintegration.
``proposer-kill-at-knee``             staggered proposer crashes at knee
                                      load: consecutive view changes while
                                      the queue is never empty.
``shard-hotspot``                     two shards, skewed traffic onto one,
                                      and that shard's proposer killed:
                                      the cold shard must be unaffected.
====================================  =====================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faultlab.schedule import FaultSchedule, make_event, validate_schedule
from repro.load.generator import LoadConfig, LoadGenerator

#: sharded deployment -> fault events, resolved against the live topology.
FaultBuilder = Callable[[object], Tuple]


# ---------------------------------------------------------------------------
# Fault builders (run-time target resolution)
# ---------------------------------------------------------------------------

def _non_leader_onprem(deployment) -> str:
    group = deployment.shards[0]
    leader = group.current_leader()
    return next(h for h in group.on_premises_hosts if h != leader)


def _burst_recover(deployment):
    # Crash a non-leader executing replica for longer than the detector
    # silence timeout; it comes back mid-burst and must catch up via
    # checkpoint/state transfer while the bursts keep landing.
    return (make_event(4.0, "recover", _non_leader_onprem(deployment),
                       duration=5.0),)


def _storm_leak(deployment):
    # Plant a plaintext exfiltration in the middle of the storm window.
    # The scenario is green only if the confidentiality invariant CATCHES
    # it (planted_breach below) and the exposure detector fires.
    return (make_event(5.5, "leak", ""),)


def _leader_site_disconnect(deployment):
    group = deployment.shards[0]
    site = group.site_of_host(group.current_leader())
    return (make_event(4.0, "isolate", site, until=9.0),)


def _staggered_proposer_kills(deployment):
    # Prime's view-0 leader is the first on-premises host; killing it and
    # then its successor forces two view changes back to back.
    hosts = list(deployment.shards[0].on_premises_hosts)
    return (
        make_event(3.5, "recover", hosts[0], duration=5.0),
        make_event(9.0, "recover", hosts[1], duration=5.0),
    )


def _hot_shard_proposer_kill(_deployment):
    return (make_event(4.0, "shard_kill_proposers", "s0",
                       count=1, duration=5.0, stagger=0.6),)


# ---------------------------------------------------------------------------
# Scenario definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoadScenario:
    """One named composition of a load shape and a fault timeline."""

    name: str
    summary: str
    profile: str
    rate: float
    faults: FaultBuilder
    profile_params: Dict[str, float] = field(default_factory=dict)
    duration: float = 12.0
    aliases: int = 400
    clients: int = 10
    max_inflight: int = 4
    deadline: float = 4.0
    shards: int = 1
    intro_batch_size: int = 1
    checkpoint_interval: int = 50
    key_renewal: bool = False
    key_validity: int = 100
    hot_fraction: float = 0.0
    #: The scenario deliberately plants a confidentiality breach; green
    #: means the checker caught it, not that no violation occurred.
    planted_breach: bool = False
    #: Whether the fault kinds used are supported on the live substrate
    #: (see repro.rt.faultlive.LIVE_KINDS).
    live_ok: bool = False


SCENARIOS: Dict[str, LoadScenario] = {
    scenario.name: scenario
    for scenario in (
        LoadScenario(
            name="checkpoint-under-burst",
            summary="replica crash-recovery while bursty load piles "
                    "backlog onto checkpoint catch-up",
            profile="bursty",
            rate=18.0,
            profile_params={"on_seconds": 1.0, "off_seconds": 2.0},
            checkpoint_interval=25,
            faults=_burst_recover,
            live_ok=True,
        ),
        LoadScenario(
            name="key-renewal-storm",
            summary="failure-storm load under aggressive key renewal with "
                    "a planted leak the checker must catch",
            profile="storm",
            rate=10.0,
            profile_params={"storm_at": 4.0, "storm_duration": 3.0,
                            "storm_multiplier": 4.0},
            checkpoint_interval=25,
            key_renewal=True,
            key_validity=40,
            faults=_storm_leak,
            planted_breach=True,
        ),
        LoadScenario(
            name="site-disconnect-at-saturation",
            summary="leader's site isolated while Poisson load sits at "
                    "the saturation knee",
            profile="poisson",
            rate=30.0,
            faults=_leader_site_disconnect,
            live_ok=True,
        ),
        LoadScenario(
            name="proposer-kill-at-knee",
            summary="two staggered proposer crashes at knee load: "
                    "consecutive view changes under a full queue",
            profile="poisson",
            rate=30.0,
            duration=15.0,
            faults=_staggered_proposer_kills,
            live_ok=True,
        ),
        LoadScenario(
            name="shard-hotspot",
            summary="two shards, traffic skewed onto s0, s0's proposer "
                    "killed; the cold shard must ride through untouched",
            profile="poisson",
            rate=24.0,
            shards=2,
            hot_fraction=0.65,
            faults=_hot_shard_proposer_kill,
        ),
    )
}


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass
class LoadScenarioResult:
    """One scenario run's verdict: load stats + invariants + detections."""

    name: str
    seed: int
    quick: bool
    ok: bool
    invariants_ok: bool
    breach_caught: Optional[bool]
    detection_ok: bool
    stats: Dict
    violations: List[str]
    detections: List[Dict]
    undetected: List[str]
    health_events: int
    end_time: float

    def to_dict(self) -> Dict:
        return {
            "scenario": self.name,
            "seed": self.seed,
            "quick": self.quick,
            "ok": self.ok,
            "invariants_ok": self.invariants_ok,
            "breach_caught": self.breach_caught,
            "detection_ok": self.detection_ok,
            "violations": list(self.violations),
            "detections": list(self.detections),
            "undetected": list(self.undetected),
            "health_events": self.health_events,
            "end_time": self.end_time,
            "load": dict(self.stats),
        }

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        line = (
            f"{status} {self.name} seed={self.seed}: "
            f"offered {self.stats['offered']} admitted {self.stats['admitted']} "
            f"dropped {self.stats['dropped']} goodput "
            f"{self.stats['goodput_per_s']}/s; "
            f"detections {len(self.detections) - len(self.undetected)}"
            f"/{len(self.detections)}"
        )
        if self.breach_caught is not None:
            line += f"; breach_caught={self.breach_caught}"
        if self.violations:
            line += "".join("\n  " + v for v in self.violations)
        if self.undetected:
            line += "\n  undetected: " + ", ".join(self.undetected)
        return line


def run_load_scenario(name: str, seed: int = 11, quick: bool = False,
                      keep_deployment: bool = False) -> LoadScenarioResult:
    """Run one named scenario on the sim substrate and score it."""
    from repro.faultlab.runner import ArmedRun
    from repro.shard.builder import build_sharded
    from repro.system.config import SystemConfig

    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ConfigurationError(
            f"unknown scenario {name!r}; known: {', '.join(scenario_names())}"
        )

    rate = max(5.0, scenario.rate * 0.5) if quick else scenario.rate
    aliases = min(scenario.aliases, 150) if quick else scenario.aliases

    config = SystemConfig(
        seed=seed,
        f=1,
        num_clients=scenario.clients,
        update_interval=1.0,
        checkpoint_interval=scenario.checkpoint_interval,
        intro_batch_size=scenario.intro_batch_size,
        shards=scenario.shards,
        key_renewal_enabled=scenario.key_renewal,
        key_validity=scenario.key_validity,
    )
    deployment = build_sharded(config)

    events = tuple(scenario.faults(deployment))
    load_start = 0.5
    horizon = load_start + scenario.duration
    schedule = FaultSchedule(seed=seed, horizon=horizon, events=events)
    validate_schedule(schedule)
    quiesce_at = max(schedule.clear_time, horizon * 0.75)
    end_time = horizon + 6.0

    armed = ArmedRun(deployment, schedule, quiesce_at, detectors=True)

    hot_clients: Tuple[str, ...] = ()
    if scenario.hot_fraction > 0 and deployment.num_shards > 1:
        hot_clients = tuple(sorted(
            cid for cid in deployment.routers
            if deployment.shard_of_client(cid) == 0
        ))

    generator = LoadGenerator(
        deployment,
        LoadConfig(
            profile=scenario.profile,
            rate=rate,
            profile_params=dict(scenario.profile_params),
            aliases=aliases,
            duration=scenario.duration,
            start_at=load_start,
            max_inflight=scenario.max_inflight,
            deadline=scenario.deadline,
            hot_fraction=scenario.hot_fraction,
            hot_clients=hot_clients,
        ),
    )

    try:
        deployment.start()
        generator.start()
        deployment.run(until=end_time)

        stats = generator.stats().to_dict()
        scored = armed.score(end_time)
        violations = list(scored.report.violations)

        breach_caught: Optional[bool] = None
        if scenario.planted_breach:
            confidentiality = [
                v for v in violations if v.invariant == "confidentiality"
            ]
            breach_caught = bool(confidentiality)
            violations = [
                v for v in violations if v.invariant != "confidentiality"
            ]
        invariants_ok = not violations

        matches = scored.detections
        undetected = [
            f"{m.fault_kind} {m.fault_target}".strip()
            for m in matches if not m.detected
        ]
        detection_ok = not undetected

        ok = (
            invariants_ok
            and detection_ok
            and (breach_caught is not False)
            and stats["completed"] > 0
        )
        return LoadScenarioResult(
            name=scenario.name,
            seed=seed,
            quick=quick,
            ok=ok,
            invariants_ok=invariants_ok,
            breach_caught=breach_caught,
            detection_ok=detection_ok,
            stats=stats,
            violations=[v.describe() for v in violations],
            detections=[
                {
                    "fault": f"{m.fault_kind} {m.fault_target}".strip(),
                    "detected": m.detected,
                    "event": m.event_kind,
                    "host": m.event_host,
                    "latency": (
                        round(m.detection_time - m.fault_time, 3)
                        if m.detection_time is not None else None
                    ),
                }
                for m in matches
            ],
            undetected=undetected,
            health_events=len(scored.health_events),
            end_time=end_time,
        )
    finally:
        if not keep_deployment:
            deployment.shutdown()
