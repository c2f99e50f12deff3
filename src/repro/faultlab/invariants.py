"""Online safety/liveness invariant checking over simulation traces.

The checker subscribes to a deployment's :class:`~repro.sim.trace.Tracer`
*before* the run starts and evaluates each invariant as events stream in,
so a violation is pinned to the virtual time and host where it first
became observable — not discovered post-hoc from aggregate state. A final
:meth:`InvariantChecker.finish` pass adds the end-of-run obligations
(quiescence, disclosure bounds) that only make sense once the schedule's
faults have cleared.

Invariant catalogue (each maps to a claim in the paper):

- ``confidentiality`` — Definition 3: no data-center host ever observes
  plaintext (network delivery or local observation);
- ``ordering-safety`` — BFT safety: no two replicas execute conflicting
  batches at the same global sequence number;
- ``checkpoint-monotonicity`` — Section V-C discipline: a replica only
  treats a checkpoint as stable after evidence (own correct checkpoint or
  an adopted stable one), stable ordinals never regress within an
  incarnation, and garbage collection never outruns stability;
- ``bounded-disclosure`` — Section V-D: keys stolen from a compromised
  replica decrypt at most ``key_validity + key_slack`` updates submitted
  after the compromise;
- ``durable-recovery`` — StoreLab contract: recovery from a file-backed
  store never resumes below the last checkpoint that was stable before
  the crash, and a damaged store is detected (and repaired via network
  state transfer) rather than silently served;
- ``liveness`` — after all scheduled faults clear (quiescence), clients
  finish their updates, no proxy gives up, and online replicas converge.

Sharded deployments get one checker per shard, plus the cross-shard
obligations no single group can check
(:func:`check_cross_shard_consistency`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.sim.trace import TraceEvent


@dataclass(frozen=True)
class Violation:
    """One invariant violation, pinned to when/where it was observed."""

    invariant: str
    time: float
    host: str
    detail: str

    def describe(self) -> str:
        return f"[{self.invariant}] t={self.time:.3f} {self.host}: {self.detail}"


class Invariant:
    """Base class: stream events in, collect violations."""

    name = "invariant"

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        self.skipped_reason: Optional[str] = None

    def on_event(self, event: TraceEvent) -> None:  # pragma: no cover - override
        pass

    def finish(self, ctx: "CheckContext") -> None:  # pragma: no cover - override
        pass

    def violate(self, time: float, host: str, detail: str) -> None:
        self.violations.append(Violation(self.name, time, host, detail))

    def skip(self, reason: str) -> None:
        self.skipped_reason = reason


@dataclass
class CheckContext:
    """Everything finish-time checks may consult."""

    deployment: object
    adversary: Optional[object] = None
    quiesce_at: Optional[float] = None


class ConfidentialityInvariant(Invariant):
    """No data-center host may observe plaintext (Definition 3).

    Only meaningful for the confidential system: the Spire baseline has
    every replica execute plaintext by design, so there the invariant is
    skipped rather than trivially violated.
    """

    name = "confidentiality"

    def __init__(self, data_center_hosts: Set[str], enforced: bool = True):
        super().__init__()
        self.data_center_hosts = set(data_center_hosts)
        self.enforced = enforced
        if not enforced:
            self.skip("Spire baseline: data-center replicas execute plaintext by design")

    def on_event(self, event: TraceEvent) -> None:
        if not self.enforced:
            return
        if event.category == "audit.exposure" and event.host in self.data_center_hosts:
            self.violate(
                event.time,
                event.host,
                "data-center host observed plaintext "
                f"({event.detail.get('label')!r} via {event.detail.get('channel')})",
            )

    def finish(self, ctx: CheckContext) -> None:
        # Belt and braces: the auditor's aggregate view must agree with the
        # stream. Catches exposures recorded while tracing was disabled.
        auditor = getattr(ctx.deployment, "auditor", None)
        if auditor is None or not self.enforced:
            return
        seen_hosts = {v.host for v in self.violations}
        for host in sorted(auditor.exposed_hosts & self.data_center_hosts):
            if host not in seen_hosts:
                self.violate(
                    float("nan"),
                    host,
                    "auditor recorded plaintext exposure not seen in the trace",
                )


class OrderingSafetyInvariant(Invariant):
    """No conflicting executions at the same global sequence number."""

    name = "ordering-safety"

    def __init__(self) -> None:
        super().__init__()
        self._digests: Dict[int, Tuple[str, str]] = {}  # seq -> (digest, first host)

    def on_event(self, event: TraceEvent) -> None:
        if event.category != "order.batch":
            return
        seq = event.detail["batch_seq"]
        digest = event.detail["digest"]
        first = self._digests.get(seq)
        if first is None:
            self._digests[seq] = (digest, event.host)
        elif first[0] != digest:
            self.violate(
                event.time,
                event.host,
                f"batch {seq} digest {digest} conflicts with {first[0]} "
                f"first delivered at {first[1]}",
            )


class CheckpointMonotonicityInvariant(Invariant):
    """correct -> stable -> GC, ordinals never regressing per incarnation."""

    name = "checkpoint-monotonicity"

    def __init__(self) -> None:
        super().__init__()
        self._correct: Dict[str, Set[int]] = {}
        self._adopted: Dict[str, Set[int]] = {}
        self._stable_high: Dict[str, int] = {}

    def on_event(self, event: TraceEvent) -> None:
        host = event.host
        category = event.category
        if category == "replica.recovered":
            # A recovery wipes local state; the replica legitimately starts
            # over (it will re-learn checkpoints via state transfer).
            self._correct.pop(host, None)
            self._adopted.pop(host, None)
            self._stable_high.pop(host, None)
            return
        if category == "checkpoint.correct":
            self._correct.setdefault(host, set()).add(event.detail["ordinal"])
        elif category == "checkpoint.adopted":
            self._adopted.setdefault(host, set()).add(event.detail["ordinal"])
        elif category == "checkpoint.stable":
            ordinal = event.detail["ordinal"]
            evidence = self._correct.get(host, set()) | self._adopted.get(host, set())
            if ordinal not in evidence:
                self.violate(
                    event.time,
                    host,
                    f"checkpoint {ordinal} became stable without a prior "
                    "correct/adopted checkpoint at that ordinal",
                )
            high = self._stable_high.get(host)
            if high is not None and ordinal < high:
                self.violate(
                    event.time,
                    host,
                    f"stable checkpoint ordinal regressed: {ordinal} < {high}",
                )
            else:
                self._stable_high[host] = ordinal
        elif category == "checkpoint.gc":
            ordinal = event.detail["ordinal"]
            high = self._stable_high.get(host, -1)
            if ordinal > high:
                self.violate(
                    event.time,
                    host,
                    f"garbage collection at ordinal {ordinal} outran the "
                    f"stable high-water mark {high}",
                )


class DurableRecoveryInvariant(Invariant):
    """Disk recovery never regresses, and damage is detected, not served.

    Armed only by durable-store activity in the trace (``store.recovered``,
    ``store.corrupted``, ``fault.store-damage``): the default MemoryStore
    sweep produces none of those events and skips this invariant, keeping
    seed schedules and their verdicts untouched.
    """

    name = "durable-recovery"

    def __init__(self) -> None:
        super().__init__()
        self._armed = False
        self._stable_high: Dict[str, int] = {}
        # Stable high-water mark frozen at the instant a host went down:
        # the floor its later disk recovery must not regress below.
        self._down_high: Dict[str, int] = {}
        self._pending_damage: Dict[str, float] = {}    # corrupt_segment applied, not yet detected
        self._awaiting_fallback: Dict[str, float] = {} # corruption detected, no xfer.complete yet

    def on_event(self, event: TraceEvent) -> None:
        host = event.host
        category = event.category
        if category in ("checkpoint.stable", "checkpoint.adopted"):
            ordinal = event.detail["ordinal"]
            if ordinal > self._stable_high.get(host, 0):
                self._stable_high[host] = ordinal
        elif category == "replica.down":
            self._down_high[host] = self._stable_high.get(host, 0)
        elif category == "fault.store-damage":
            self._armed = True
            if event.detail.get("applied") and event.detail.get("kind") == "corrupt_segment":
                self._pending_damage[host] = event.time
        elif category == "store.corrupted":
            self._armed = True
            self._pending_damage.pop(host, None)
            self._awaiting_fallback.setdefault(host, event.time)
        elif category == "store.recovered":
            self._armed = True
            floor = self._down_high.get(host, 0)
            ordinal = event.detail["ordinal"]
            # A detected-corrupt store is allowed to come back below the
            # floor — network state transfer covers the gap; that path is
            # policed by _awaiting_fallback instead.
            if ordinal < floor and host not in self._awaiting_fallback:
                self.violate(
                    event.time,
                    host,
                    f"disk recovery resumed at checkpoint ordinal {ordinal}, "
                    f"below the pre-crash stable ordinal {floor}",
                )
        elif category == "xfer.complete":
            self._awaiting_fallback.pop(host, None)

    def finish(self, ctx: CheckContext) -> None:
        if not self._armed:
            self.skip("no durable-store activity in this run")
            return
        for host, when in sorted(self._pending_damage.items()):
            self.violate(
                when,
                host,
                "segment corruption was injected but recovery never "
                "reported store.corrupted (damage served silently?)",
            )
        for host, when in sorted(self._awaiting_fallback.items()):
            self.violate(
                when,
                host,
                "store corruption was detected but no network state "
                "transfer completed afterwards to repair it",
            )


class BoundedDisclosureInvariant(Invariant):
    """Leaked keys decrypt at most V + x post-compromise updates (Sec V-D)."""

    name = "bounded-disclosure"

    def __init__(self) -> None:
        super().__init__()
        self._leak_times: Dict[str, float] = {}  # host -> first leak-keys compromise
        self._first_exec: Dict[Tuple[str, int], float] = {}  # (alias, seq) -> time

    def on_event(self, event: TraceEvent) -> None:
        if event.category == "adversary.compromise":
            if "leak-keys" in event.detail.get("behaviors", ()):
                self._leak_times.setdefault(event.host, event.time)
        elif event.category == "replica.executed":
            key = (event.detail["client"], event.detail["seq"])
            self._first_exec.setdefault(key, event.time)

    def finish(self, ctx: CheckContext) -> None:
        env = getattr(ctx.deployment, "env", None)
        if env is None or not getattr(env, "key_renewal_enabled", False):
            self.skip("key renewal disabled; disclosure is unbounded by design")
            return
        if not self._leak_times or ctx.adversary is None:
            self.skip("no key-leaking compromise in this schedule")
            return
        bound = env.key_validity + env.key_slack
        for host, leaked_at in sorted(self._leak_times.items()):
            bag = ctx.adversary.loot.get(host)
            if bag is None:
                continue
            for alias, (_start, end_seq) in sorted(bag.client_epochs.items()):
                # Updates the stolen keys can still decrypt: submitted after
                # the compromise but within the leaked epoch's range.
                exposed = sum(
                    1
                    for (a, seq), time in self._first_exec.items()
                    if a == alias and seq <= end_seq and time > leaked_at
                )
                if exposed > bound:
                    self.violate(
                        leaked_at,
                        host,
                        f"keys leaked for {alias} decrypt {exposed} "
                        f"post-compromise updates (> bound V+x={bound})",
                    )


class LivenessInvariant(Invariant):
    """After the last fault clears, the system makes and completes progress."""

    name = "liveness"

    def __init__(self, quiesce_at: Optional[float]):
        super().__init__()
        self.quiesce_at = quiesce_at
        self._completes_after_quiesce = 0
        self._gave_up: List[TraceEvent] = []

    def on_event(self, event: TraceEvent) -> None:
        if event.category == "proxy.gave-up":
            self._gave_up.append(event)
        elif event.category == "proxy.complete":
            if self.quiesce_at is None or event.time > self.quiesce_at:
                self._completes_after_quiesce += 1

    def finish(self, ctx: CheckContext) -> None:
        if self.quiesce_at is None:
            self.skip("no quiescence point configured")
            return
        for event in self._gave_up:
            self.violate(
                event.time,
                event.host,
                f"proxy exhausted retransmissions for seq {event.detail.get('seq')}",
            )
        deployment = ctx.deployment
        now = deployment.kernel.now
        for client_id in sorted(deployment.proxies):
            proxy = deployment.proxies[client_id]
            if proxy.outstanding:
                self.violate(
                    now,
                    proxy.host,
                    f"{proxy.outstanding} update(s) still outstanding at "
                    "end of run despite quiescence",
                )
        if self._completes_after_quiesce == 0:
            self.violate(
                now,
                "system",
                f"no update completed after quiescence at t={self.quiesce_at:.2f}",
            )
        ordinals = {
            host: replica.executed_ordinal()
            for host, replica in sorted(deployment.replicas.items())
            if replica.online
        }
        if ordinals and max(ordinals.values()) - min(ordinals.values()) > 0:
            lag = {h: o for h, o in ordinals.items() if o != max(ordinals.values())}
            self.violate(
                now,
                "system",
                f"online replicas did not converge: behind={lag}, "
                f"head={max(ordinals.values())}",
            )


@dataclass
class InvariantReport:
    """Outcome of a checked run."""

    violations: Tuple[Violation, ...] = ()
    skipped: Dict[str, str] = field(default_factory=dict)
    checked: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def failing_invariants(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for violation in self.violations:
            if violation.invariant not in seen:
                seen.append(violation.invariant)
        return tuple(seen)

    def summary(self) -> str:
        if self.ok:
            checked = ", ".join(n for n in self.checked if n not in self.skipped)
            lines = [f"all invariants hold ({checked})"]
        else:
            lines = [f"{len(self.violations)} violation(s):"]
            lines.extend("  " + v.describe() for v in self.violations)
        for name, reason in sorted(self.skipped.items()):
            lines.append(f"  (skipped {name}: {reason})")
        return "\n".join(lines)


def default_invariants(deployment, quiesce_at: Optional[float]) -> List[Invariant]:
    mode = getattr(getattr(deployment, "config", None), "mode", None)
    confidential = getattr(mode, "value", mode) != "spire"
    return [
        ConfidentialityInvariant(
            set(deployment.data_center_hosts), enforced=confidential
        ),
        OrderingSafetyInvariant(),
        CheckpointMonotonicityInvariant(),
        DurableRecoveryInvariant(),
        BoundedDisclosureInvariant(),
        LivenessInvariant(quiesce_at),
    ]


class InvariantChecker:
    """Attaches invariants to a deployment's tracer and scores the run.

    Usage::

        checker = InvariantChecker(deployment, adversary, quiesce_at=8.0)
        checker.attach()          # before deployment.run(...)
        deployment.run(until=17.0)
        report = checker.finish()
        assert report.ok, report.summary()
    """

    def __init__(
        self,
        deployment,
        adversary=None,
        quiesce_at: Optional[float] = None,
        invariants: Optional[List[Invariant]] = None,
        namespace: str = "",
    ):
        self.deployment = deployment
        #: Only trace events from hosts under this prefix are checked: a
        #: sharded deployment's groups share one tracer, and hostnames
        #: carry the ``sN.`` namespace of their shard.
        self.namespace = namespace
        self.adversary = adversary
        self.quiesce_at = quiesce_at
        self.invariants = (
            invariants
            if invariants is not None
            else default_invariants(deployment, quiesce_at)
        )
        self._attached = False

    def attach(self) -> "InvariantChecker":
        if self._attached:
            return self
        if not self.deployment.tracer.enabled:
            raise RuntimeError(
                "invariant checking needs tracing enabled (SystemConfig.tracing)"
            )
        self.deployment.tracer.subscribe(self._on_event)
        self._attached = True
        return self

    def detach(self) -> None:
        """Stop observing the tracer (idempotent)."""
        if self._attached:
            self.deployment.tracer.unsubscribe(self._on_event)
            self._attached = False

    def _on_event(self, event: TraceEvent) -> None:
        if self.namespace and not event.host.startswith(self.namespace):
            return
        for invariant in self.invariants:
            invariant.on_event(event)

    def finish(self) -> InvariantReport:
        # Scoring ends the observation: anything traced after finish() —
        # post-mortem replays, a reused kernel — must not mutate verdicts.
        self.detach()
        ctx = CheckContext(
            deployment=self.deployment,
            adversary=self.adversary,
            quiesce_at=self.quiesce_at,
        )
        for invariant in self.invariants:
            invariant.finish(ctx)
        violations: List[Violation] = []
        skipped: Dict[str, str] = {}
        for invariant in self.invariants:
            violations.extend(invariant.violations)
            if invariant.skipped_reason is not None:
                skipped[invariant.name] = invariant.skipped_reason
        violations.sort(key=lambda v: (v.time if v.time == v.time else 1e18, v.invariant))
        return InvariantReport(
            violations=tuple(violations),
            skipped=skipped,
            checked=tuple(i.name for i in self.invariants),
        )


# ---------------------------------------------------------------------------
# Cross-shard consistency
# ---------------------------------------------------------------------------

#: The invariants :func:`check_cross_shard_consistency` reports under.
CROSS_SHARD_INVARIANTS = (
    "cross-shard-liveness",
    "cross-shard-certification",
    "cross-shard-consistency",
)


def check_cross_shard_consistency(sharded, now: float) -> List[Violation]:
    """The obligations only the whole topology can check.

    1. the coordinator holds no in-flight intent (everything accepted
       before quiescence committed or was rejected);
    2. no commit was rejected by a participant (a rejection under a
       crash/partition schedule means a certificate failed to verify);
    3. every cross-written key carries the same version tag — and the
       same value — on every online shard that holds it (last-writer-wins
       convergence across the topology).
    """
    violations: List[Violation] = []
    coordinator = sharded.coordinator
    if coordinator is not None:
        for (cid, seq) in sorted(coordinator._pending):
            violations.append(Violation(
                "cross-shard-liveness", now, f"router-{cid}",
                f"intent ({cid}, seq {seq}) still in flight at end of run",
            ))
        for (cid, seq, shard, reason) in coordinator.rejected:
            violations.append(Violation(
                "cross-shard-certification", now, f"s{shard}",
                f"participant rejected commit ({cid}, seq {seq}): "
                f"{reason.decode('utf-8', 'replace')}",
            ))

    # key -> shard -> (tag, value), read from each shard's freshest online
    # executing replica (per-shard convergence is the liveness checker's
    # job; here one witness per shard suffices).
    tables: Dict[str, Dict[int, Tuple[tuple, Optional[str]]]] = {}
    for shard_id, shard in enumerate(sharded.shards):
        apps = [
            replica.app
            for replica in shard.executing_replicas()
            if replica.online
        ]
        if not apps:
            continue
        app = max(apps, key=lambda a: a.inner.executed_count)
        reader = getattr(app.inner, "get", None)
        for key, tag in app.versions.items():
            value = reader(key) if reader is not None else None
            tables.setdefault(key, {})[shard_id] = (tuple(tag), value)

    for key, holders in sorted(tables.items()):
        tags = {tag for tag, _value in holders.values()}
        if len(tags) > 1:
            violations.append(Violation(
                "cross-shard-consistency", now, "topology",
                f"key {key!r} diverged: "
                + ", ".join(
                    f"s{shard}={tag}" for shard, (tag, _v) in sorted(holders.items())
                ),
            ))
            continue
        values = {value for _tag, value in holders.values()}
        if len(values) > 1:
            violations.append(Violation(
                "cross-shard-consistency", now, "topology",
                f"key {key!r} agrees on tags but not values: "
                + ", ".join(
                    f"s{shard}={value!r}"
                    for shard, (_t, value) in sorted(holders.items())
                ),
            ))
    return violations
