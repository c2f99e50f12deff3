"""Seeded, replayable fault schedules.

A :class:`FaultSchedule` is the unit FaultLab explores, replays, and
shrinks: an ordered list of :class:`FaultEvent` windows, each describing
one adversarial act against a deployment — a Byzantine compromise with
specific behaviours, a site disconnection, a partial DoS, a WAN
message-loss window, a clock-skewed delivery window, a proactive recovery,
or (for checker validation only) a planted plaintext leak.

Two properties make schedules useful as test artifacts:

- **seeded**: :func:`generate_schedule` derives the whole timeline from a
  single integer seed, so ``repro faultlab --seed 1234`` reproduces the
  exact run that failed in a sweep;
- **serializable**: schedules round-trip through JSON, so a shrunk
  counterexample can be pasted into a regression test verbatim.

Events carry their whole window (``at`` .. ``until``): the compromise and
its release, the isolation and its reconnect, travel together. That makes
each event independently removable, which is what the shrinker needs.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.system.adversary import Behavior

#: Recognised fault kinds. ``leak`` is never generated randomly — it is the
#: deliberate confidentiality breach used to validate the checker. The
#: storage kinds (``torn_write``/``corrupt_segment``) are likewise explicit
#: only: adding them to the random pool would regenerate every existing
#: seed's schedule, invalidating the sweep baselines. The shard kinds are
#: generated only for sharded sweeps (:func:`generate_shard_schedule`),
#: never by :func:`generate_schedule`, for the same reason.
KINDS = (
    "compromise", "isolate", "degrade", "loss", "skew", "recover", "leak",
    "torn_write", "corrupt_segment",
    "crash_during_compaction", "crash_mid_delta",
    "shard_kill_proposers", "shard_partition",
)

#: ShardLab kinds: ``target`` names a shard (``s0``, ``s1``, ...) of a
#: sharded deployment rather than a host or site.
#: ``shard_kill_proposers`` crash-recovers ``count`` of the shard's
#: on-premises proposers back-to-back (staggered by ``stagger`` so the
#: one-at-a-time recovery orchestrator never skips one);
#: ``shard_partition`` isolates one of the shard's on-premises sites for
#: the window — cross-shard commits into that shard stall and must drain
#: after the reconnect.
SHARD_KINDS = ("shard_kill_proposers", "shard_partition")

#: Kinds whose ``target`` names a site rather than a replica host.
SITE_KINDS = ("isolate", "degrade", "skew")

#: Kinds that crash a replica *and* damage its durable store before the
#: respawn: ``torn_write`` truncates the newest segment's tail (a crash
#: mid-append); ``corrupt_segment`` flips a byte inside a record (bit rot
#: / hostile storage); ``crash_during_compaction`` kills the process
#: between compaction's atomic swap steps (``stage`` 1-3 picks the crash
#: window), leaving the .compact.tmp/.old artifacts repair must resolve;
#: ``crash_mid_delta`` tears the newest delta-checkpoint file mid-write.
#: All carry recover-style ``duration`` params.
STORE_KINDS = (
    "torn_write",
    "corrupt_segment",
    "crash_during_compaction",
    "crash_mid_delta",
)

#: Kinds that require an ``until`` (they are windows, not instants).
WINDOW_KINDS = ("compromise", "isolate", "degrade", "loss", "skew", "shard_partition")


@dataclass(frozen=True)
class FaultEvent:
    """One fault window in a schedule.

    ``params`` is stored as a sorted tuple of pairs so events stay hashable
    and schedules stay value-comparable; use :meth:`param` to read one.
    """

    at: float
    kind: str
    target: str = ""
    until: Optional[float] = None
    params: Tuple[Tuple[str, Any], ...] = ()

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"at": self.at, "kind": self.kind}
        if self.target:
            data["target"] = self.target
        if self.until is not None:
            data["until"] = self.until
        data.update({key: value for key, value in self.params})
        return data

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "FaultEvent":
        extras = {
            key: value
            for key, value in data.items()
            if key not in ("at", "kind", "target", "until")
        }
        return FaultEvent(
            at=float(data["at"]),
            kind=data["kind"],
            target=data.get("target", ""),
            until=float(data["until"]) if "until" in data else None,
            params=tuple(sorted(extras.items())),
        )

    def describe(self) -> str:
        window = f"@{self.at:.2f}"
        if self.until is not None:
            window += f"..{self.until:.2f}"
        extra = " ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind} {self.target} {window}{(' ' + extra) if extra else ''}".strip()


def make_event(at: float, kind: str, target: str = "", until: Optional[float] = None,
               **params: Any) -> FaultEvent:
    """Convenience constructor accepting params as keyword arguments."""
    return FaultEvent(
        at=at, kind=kind, target=target, until=until,
        params=tuple(sorted(params.items())),
    )


@dataclass(frozen=True)
class FaultSchedule:
    """A seeded, ordered timeline of fault windows."""

    seed: int
    horizon: float
    events: Tuple[FaultEvent, ...] = ()

    def __len__(self) -> int:
        return len(self.events)

    def subset(self, indices: Iterable[int]) -> "FaultSchedule":
        """The schedule restricted to the given event indices (for shrinking)."""
        keep = sorted(set(indices))
        return FaultSchedule(
            seed=self.seed,
            horizon=self.horizon,
            events=tuple(self.events[i] for i in keep),
        )

    def with_event(self, event: FaultEvent) -> "FaultSchedule":
        """A copy with ``event`` merged in, keeping time order."""
        events = sorted(self.events + (event,), key=lambda e: (e.at, e.kind, e.target))
        return FaultSchedule(seed=self.seed, horizon=self.horizon, events=tuple(events))

    @property
    def clear_time(self) -> float:
        """Virtual time by which every scheduled fault has ended."""
        ends = [e.until if e.until is not None else e.at + self._tail(e) for e in self.events]
        return max(ends, default=0.0)

    @staticmethod
    def _tail(event: FaultEvent) -> float:
        if event.kind == "recover" or event.kind in STORE_KINDS:
            return float(event.param("duration", 3.0))
        if event.kind == "shard_kill_proposers":
            # ``count`` staggered kills, each lasting ``duration``.
            count = max(1, int(event.param("count", 1)))
            stagger = float(event.param("stagger", 0.6))
            return float(event.param("duration", 3.0)) + stagger * (count - 1)
        return 0.0

    # -- serialization -------------------------------------------------------

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "horizon": self.horizon,
                "events": [event.to_dict() for event in self.events],
            },
            indent=indent,
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "FaultSchedule":
        data = json.loads(text)
        schedule = FaultSchedule(
            seed=int(data["seed"]),
            horizon=float(data["horizon"]),
            events=tuple(FaultEvent.from_dict(e) for e in data.get("events", [])),
        )
        validate_schedule(schedule)
        return schedule

    def describe(self) -> str:
        lines = [f"schedule seed={self.seed} horizon={self.horizon:.1f} "
                 f"({len(self.events)} events)"]
        for index, event in enumerate(self.events):
            lines.append(f"  [{index}] {event.describe()}")
        return "\n".join(lines)


_SHARD_TARGET = re.compile(r"^s\d+$")


def validate_schedule(schedule: FaultSchedule) -> None:
    """Structural validation; raises :class:`ConfigurationError`."""
    for event in schedule.events:
        if event.kind not in KINDS:
            raise ConfigurationError(f"unknown fault kind {event.kind!r}")
        if event.at < 0:
            raise ConfigurationError(f"event starts before t=0: {event.describe()}")
        if event.kind in WINDOW_KINDS:
            if event.until is None:
                raise ConfigurationError(f"{event.kind} event needs 'until'")
            if event.until <= event.at:
                raise ConfigurationError(
                    f"empty fault window: {event.describe()}"
                )
        if event.kind == "compromise":
            behaviors = event.param("behaviors")
            if not behaviors:
                raise ConfigurationError("compromise event needs 'behaviors'")
            for name in behaviors:
                Behavior(name)  # raises ValueError-like on unknown
        if event.kind not in ("loss", "leak") and not event.target:
            # loss is global; leak defaults to the first executing replica.
            raise ConfigurationError(f"{event.kind} event needs a target")
        if event.kind in SHARD_KINDS and not _SHARD_TARGET.match(event.target):
            raise ConfigurationError(
                f"{event.kind} target must name a shard ('s0', 's1', ...), "
                f"got {event.target!r}"
            )


# ---------------------------------------------------------------------------
# Seeded generation
# ---------------------------------------------------------------------------

_BEHAVIOR_NAMES = [b.value for b in Behavior]

# Relative likelihood of each fault kind in generated schedules. Compromise
# dominates because Byzantine behaviour exercises the most protocol surface.
_KIND_WEIGHTS = (
    ("compromise", 0.30),
    ("isolate", 0.20),
    ("degrade", 0.15),
    ("loss", 0.12),
    ("skew", 0.11),
    ("recover", 0.12),
)


@dataclass(frozen=True)
class ScheduleSpace:
    """What a generated schedule may act on, and when.

    Derived from a deployment's shape (see :func:`space_for`); kept as
    plain data so generation never needs a built deployment.
    """

    on_premises_hosts: Tuple[str, ...]
    data_center_hosts: Tuple[str, ...]
    sites: Tuple[str, ...]
    f: int
    start: float = 1.5
    horizon: float = 9.0
    max_events: int = 6

    @property
    def all_hosts(self) -> Tuple[str, ...]:
        return self.on_premises_hosts + self.data_center_hosts


def space_for(deployment, start: float = 1.5, horizon: float = 9.0,
              max_events: int = 6) -> ScheduleSpace:
    """Build a :class:`ScheduleSpace` from a deployment's shape (a built
    deployment, or the keygen-free :class:`~repro.rt.bootstrap.ReplicaLayout`)."""
    sites = tuple(sorted({
        deployment.site_of_host(host)
        for host in deployment.on_premises_hosts + deployment.data_center_hosts
    }))
    return ScheduleSpace(
        on_premises_hosts=tuple(deployment.on_premises_hosts),
        data_center_hosts=tuple(deployment.data_center_hosts),
        sites=sites,
        f=deployment.plan.f,
        start=start,
        horizon=horizon,
        max_events=max_events,
    )


def generate_schedule(seed: int, space: ScheduleSpace) -> FaultSchedule:
    """Compose a random-but-valid fault timeline from ``seed``.

    Constraints respected by construction (so generated schedules stay
    inside the paper's threat model and liveness remains checkable):

    - at most ``f`` replicas are compromised at any instant;
    - at most one site-level attack (isolate/degrade/skew) is active at a
      time — the residual network attack of Section III isolates *one*
      site;
    - recoveries are spaced so the one-at-a-time orchestrator never has to
      skip them;
    - every window closes by ``space.horizon``.
    """
    rng = random.Random(seed)
    events: List[FaultEvent] = []
    compromise_windows: List[Tuple[float, float]] = []
    site_windows: List[Tuple[float, float]] = []
    recover_windows: List[Tuple[float, float]] = []
    loss_windows: List[Tuple[float, float]] = []

    count = rng.randint(1, space.max_events)
    for _ in range(count):
        kind = _pick_kind(rng)
        window = _fit_window(rng, space.start, space.horizon, {
            "compromise": compromise_windows,
            "isolate": site_windows,
            "degrade": site_windows,
            "skew": site_windows,
            "recover": recover_windows,
            "loss": loss_windows,
        }[kind], max_f=space.f if kind == "compromise" else 1)
        if window is None:
            continue
        at, until = window
        if kind == "compromise":
            host = rng.choice(space.on_premises_hosts)
            behaviors = rng.sample(
                _BEHAVIOR_NAMES, k=rng.randint(1, min(2, len(_BEHAVIOR_NAMES)))
            )
            compromise_windows.append((at, until))
            events.append(make_event(at, "compromise", host, until,
                                     behaviors=sorted(behaviors)))
        elif kind == "isolate":
            site = rng.choice(space.sites)
            site_windows.append((at, until))
            events.append(make_event(at, "isolate", site, until))
        elif kind == "degrade":
            site = rng.choice(space.sites)
            site_windows.append((at, until))
            events.append(make_event(
                at, "degrade", site, until,
                bandwidth_divisor=round(rng.uniform(4.0, 20.0), 1),
                added_latency=round(rng.uniform(0.005, 0.030), 4),
                loss=round(rng.uniform(0.01, 0.05), 3),
            ))
        elif kind == "skew":
            site = rng.choice(space.sites)
            site_windows.append((at, until))
            events.append(make_event(
                at, "skew", site, until,
                skew=round(rng.uniform(0.005, 0.040), 4),
            ))
        elif kind == "loss":
            loss_windows.append((at, until))
            events.append(make_event(
                at, "loss", "", until,
                probability=round(rng.uniform(0.02, 0.15), 3),
            ))
        else:  # recover
            host = rng.choice(space.all_hosts)
            duration = round(min(until - at, rng.uniform(2.0, 4.0)), 2)
            recover_windows.append((at, at + duration))
            events.append(make_event(at, "recover", host, duration=duration))

    events.sort(key=lambda e: (e.at, e.kind, e.target))
    schedule = FaultSchedule(
        seed=seed, horizon=space.horizon, events=tuple(events)
    )
    validate_schedule(schedule)
    return schedule


def _pick_kind(rng: random.Random) -> str:
    roll = rng.random() * sum(weight for _k, weight in _KIND_WEIGHTS)
    for kind, weight in _KIND_WEIGHTS:
        roll -= weight
        if roll <= 0:
            return kind
    return _KIND_WEIGHTS[-1][0]


def _fit_window(
    rng: random.Random,
    start: float,
    horizon: float,
    taken: List[Tuple[float, float]],
    max_f: int,
    min_duration: float = 0.5,
    attempts: int = 8,
) -> Optional[Tuple[float, float]]:
    """A [at, until] window inside [start, horizon], at least
    ``min_duration`` long, that overlaps fewer than ``max_f`` windows
    already in ``taken``; None if none fits."""
    for _ in range(attempts):
        duration = rng.uniform(min_duration, 3.0)
        latest_start = horizon - duration
        if latest_start <= start:
            continue
        at = round(rng.uniform(start, latest_start), 2)
        until = round(min(at + duration, horizon), 2)
        overlapping = sum(1 for s, e in taken if at < e and s < until)
        if overlapping < max_f:
            return (at, until)
    return None


def generate_shard_schedule(seed: int, lab) -> FaultSchedule:
    """A seeded timeline of shard-scoped faults for ``lab`` (a
    :class:`~repro.faultlab.runner.FaultLabConfig` with ``shards`` > 1).

    Constraints by construction: at most one fault window is open per
    shard at a time (so a partitioned shard is never also mid-recovery),
    and every window closes by the horizon. The RNG is salted with a
    string so shard schedules never alias the classic per-seed pool."""
    rng = random.Random(f"shardfaults-{seed}")
    events: List[FaultEvent] = []
    open_windows: Dict[int, List[Tuple[float, float]]] = {
        shard: [] for shard in range(lab.shards)
    }

    count = rng.randint(1, lab.max_events)
    for _ in range(count):
        kind = rng.choice(SHARD_KINDS)
        shard = rng.randrange(lab.shards)
        window = _fit_window(
            rng, lab.fault_start, lab.horizon, open_windows[shard],
            max_f=1, min_duration=1.2,
        )
        if window is None:
            continue
        at, until = window
        open_windows[shard].append(window)
        if kind == "shard_partition":
            events.append(
                make_event(
                    at, "shard_partition", f"s{shard}", until,
                    site_index=rng.randrange(2),
                )
            )
        else:  # shard_kill_proposers
            kills = rng.choice((1, 2))
            stagger = 0.6
            duration = round(
                max(0.8, (until - at - stagger * (kills - 1)) / kills), 2
            )
            events.append(
                make_event(
                    at, "shard_kill_proposers", f"s{shard}",
                    count=kills, duration=duration, stagger=stagger,
                )
            )

    events.sort(key=lambda e: (e.at, e.kind, e.target))
    schedule = FaultSchedule(seed=seed, horizon=lab.horizon, events=tuple(events))
    validate_schedule(schedule)
    return schedule
