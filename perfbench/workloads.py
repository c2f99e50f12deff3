"""The benchmark's workloads: build, drive and check one deployment.

Every workload runs the paper's deployment shape: f=1, Confidential mode,
two control centres plus two data centres (n=14 replicas), with the sim's
own event tracer off and threshold crypto in-process. The deployment's own
randomness (keys, network jitter) comes from a fixed system seed, so every
run builds the same system; ``--seed`` makes the workload's inputs
(submission jitter, arrival times, aliases and values). A run is a fixed
amount of *virtual* work, so everything measured in virtual time (latency,
message and byte counts, the outcome fingerprint) repeats exactly for a
given seed; only the wall-clock figures vary between runs.

Each ``run_*`` function returns a plain dict (see :func:`_sim_result`) and
raises :class:`CheckFailed` when an output is wrong.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from speed import SpeedClock

#: Workloads registered in BENCHMARK.json, in the order the docs list them.
WORKLOADS = ("scada-steady", "recover-store", "wire-replay")
#: Runnable but not registered: its figures swing from seed to seed (see
#: README.md, "Why burst-batched is not registered").
UNREGISTERED_WORKLOADS = ("burst-batched",)

#: Seed of the deployment itself: key material, network jitter, intro
#: batch jitter. Fixed, so set-up does the same work on every run.
SYSTEM_SEED = 1

#: Virtual seconds the deployment keeps running after the offered load
#: stops, so in-flight updates can finish. An update still outstanding at
#: the end of the drain counts as failed.
DRAIN_S = 5.0

#: Offered-load windows (virtual seconds). Each is sized so a run
#: completes at least 200 updates: the p95 then has 10 samples beyond it.
#: Each update takes two ordinals (two introducers), so scada-steady's
#: ~350 updates end mid-way between checkpoints (every 100 ordinals) and
#: the checkpoint count, a large share of kb_per_update, is the same for
#: every seed.
SCADA_WINDOW_S = 35.0
BURST_WINDOW_S = 7.0
RECOVER_WINDOW_S = 12.0

#: burst-batched offered rate (updates/s) and the generator's per-proxy
#: admission bound, set high enough that no arrival is refused.
BURST_RATE = 40.0
BURST_MAX_INFLIGHT = 16

#: Minimum completed updates for a p95 with 10 samples beyond it.
MIN_P95_SAMPLES = 200

#: Virtual seconds per timed slice (see ``speed.SpeedClock``).
SLICE_S = 0.5

#: recover-store fault schedule (virtual seconds from time zero).
RECOVER_LEADER_AT = 2.0
RECOVER_LEADER_FOR = 3.0
ISOLATE_SITE = "dc-2"
ISOLATE_AT = 7.0
RECONNECT_AT = 9.5
#: An outage is the longest completion gap starting this soon after a
#: fault's onset (the onset itself counts as a start).
OUTAGE_WINDOW_S = 2.0


class CheckFailed(AssertionError):
    """A correctness check on a workload's outputs failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def percentile(sorted_values: List[float], p: float) -> float:
    """The repository's percentile convention (linear interpolation)."""
    from repro.load.closedloop import percentile as repo_percentile

    return repo_percentile(sorted_values, p)


def base_config(**overrides):
    """The shared deployment shape; ``overrides`` set workload knobs."""
    from repro.system import SystemConfig
    from repro.system.config import Mode

    fields = dict(
        mode=Mode.CONFIDENTIAL,
        f=1,
        data_centers=2,
        seed=SYSTEM_SEED,
        tracing=False,
        crypto_workers=0,
        num_clients=10,
    )
    fields.update(overrides)
    return SystemConfig(**fields)


def seed_inputs(deployment, seed: int, streams: Iterable[str]) -> None:
    """Re-seed the named random streams the workload generators draw from,
    so the inputs come from ``seed`` and the system from ``SYSTEM_SEED``."""
    for name in streams:
        digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
        deployment.rng.stream(name).seed(int.from_bytes(digest[:16], "big"))


def client_streams(deployment) -> List[str]:
    """The per-client jitter streams of ``Deployment.start_workload``."""
    return [f"workload.{cid}" for cid in sorted(deployment.proxies)]


def timed_setup(config, repeats: int,
                discard: Optional[Callable[[object], None]] = None):
    """Build and start the deployment ``repeats`` times; keep the last.

    Returns the running deployment and the speed-normalized and raw wall
    times of every build()+start(). Key generation dominates set-up and
    uses the fixed system seed, so the repeats do identical work.
    ``discard`` releases a deployment that is not kept.
    """
    from repro.system import build

    def build_and_start():
        deployment = build(config)
        deployment.start()
        return deployment

    norm: List[float] = []
    wall: List[float] = []
    deployment = None
    for _ in range(repeats):
        if deployment is not None:
            deployment.shutdown()
            if discard is not None:
                discard(deployment)
        clock = SpeedClock()
        deployment = clock.time(build_and_start)
        norm.append(clock.norm_s)
        wall.append(clock.wall_s)
    return deployment, (norm, wall)


def timed_run(deployment, until: float) -> SpeedClock:
    """Run the kernel to virtual time ``until`` in timed slices."""
    clock = SpeedClock()
    now = deployment.kernel.now
    while now < until:
        now = min(until, now + SLICE_S)
        clock.time(deployment.run, now)
    return clock


class CompletionLog:
    """Virtual completion instants, collected through the proxies'
    public response callbacks."""

    def __init__(self, deployment) -> None:
        self.times: List[float] = []
        kernel = deployment.kernel
        for proxy in deployment.proxies.values():
            proxy.on_response(lambda _seq, _body, _lat, k=kernel: self.times.append(k.now))

    def outage(self, onsets: List[float], window: float = OUTAGE_WINDOW_S) -> float:
        """The longest interval without a completion that starts at a
        fault onset or at a completion less than ``window`` after one, and
        ends at the next completion (0 without faults)."""
        done = sorted(self.times)
        longest = 0.0
        for onset in onsets:
            starts = [onset] + [t for t in done if onset < t < onset + window]
            for start in starts:
                later = [t for t in done if t > start]
                if later:
                    longest = max(longest, later[0] - start)
        return longest


def fingerprint(deployment) -> Tuple[str, List[float]]:
    """Per-client ``(seq, latency)`` outcomes hashed the way
    ``repro.perf.bench_sim`` does, plus the sorted latencies."""
    per_client = sorted(
        (cid, tuple(proxy.latencies())) for cid, proxy in deployment.proxies.items()
    )
    latencies = sorted(lat for _cid, pairs in per_client for _seq, lat in pairs)
    digest = hashlib.sha256(repr(per_client).encode()).hexdigest()[:16]
    return digest, latencies


def check_confidential(deployment) -> None:
    """No data-centre host ever observed plaintext."""
    from repro.core.confidentiality import ConfidentialityViolation

    try:
        deployment.auditor.assert_clean(set(deployment.data_center_hosts))
    except ConfidentialityViolation as exc:
        raise CheckFailed(f"confidentiality: {exc}") from exc


def _sim_result(
    deployment,
    setup: Tuple[List[float], List[float]],
    run_clock: SpeedClock,
    attempted: int,
    completed_in_deadline: int,
    outage_s: float,
) -> Dict:
    digest, latencies = fingerprint(deployment)
    check(
        len(latencies) >= MIN_P95_SAMPLES,
        f"only {len(latencies)} completed updates; p95 needs {MIN_P95_SAMPLES}",
    )
    check_confidential(deployment)
    network = deployment.network
    return {
        "setup_s": setup[0],
        "setup_wall_s": setup[1],
        "run_wall_s": run_clock.wall_s,
        "run_norm_s": run_clock.norm_s,
        "attempted": attempted,
        "completed": len(latencies),
        "failed": attempted - completed_in_deadline,
        "latency_samples": len(latencies),
        "latency_p50_ms": percentile(latencies, 50) * 1000.0,
        "latency_p95_ms": percentile(latencies, 95) * 1000.0,
        "outage_s": outage_s,
        "msgs": network.messages_sent,
        "bytes": network.bytes_sent,
        "events": deployment.kernel.events_processed,
        "fingerprint": digest,
    }


# -- scada-steady ------------------------------------------------------------------


def run_scada_steady(seed: int, setup_repeats: int = 2, hooks=None) -> Dict:
    """Table II shape: 10 RTU clients, one update per second each, on a
    fixed schedule (open loop per client), singleton introduction,
    in-memory store."""
    config = base_config(update_interval=1.0, **_hook_config(hooks))
    deployment, setup = timed_setup(config, setup_repeats)
    try:
        _attach(hooks, deployment)
        seed_inputs(deployment, seed, client_streams(deployment))
        start_at = 0.5
        deployment.start_workload(duration=SCADA_WINDOW_S, interval=1.0, start_at=start_at)
        run_clock = timed_run(deployment, start_at + SCADA_WINDOW_S + DRAIN_S)
        result = _sim_result(
            deployment, setup, run_clock, _attempted(deployment), _completed(deployment), 0.0
        )
        _finish(hooks, deployment, result)
        return result
    finally:
        deployment.shutdown()


# -- burst-batched -----------------------------------------------------------------


def run_burst_batched(seed: int, setup_repeats: int = 2, hooks=None) -> Dict:
    """Open-loop Poisson arrivals at 40 updates/s from 1,000 aliases over
    10 proxies, batched introduction (8 per window), checkpoints every 50
    ordinals."""
    from repro.load.generator import LoadConfig, LoadGenerator

    config = base_config(intro_batch_size=8, checkpoint_interval=50, **_hook_config(hooks))
    deployment, setup = timed_setup(config, setup_repeats)
    try:
        _attach(hooks, deployment)
        seed_inputs(deployment, seed, ("load.arrivals", "load.aliases"))
        load = LoadConfig(profile="poisson", rate=BURST_RATE, aliases=1000,
                          duration=BURST_WINDOW_S, start_at=0.5,
                          max_inflight=BURST_MAX_INFLIGHT)
        generator = LoadGenerator(deployment, load)
        generator.start()
        run_clock = timed_run(deployment, load.start_at + BURST_WINDOW_S + DRAIN_S)
        stats = generator.stats()
        check(
            stats.offered == stats.admitted + stats.dropped,
            f"open loop lost arrivals: offered {stats.offered} != admitted "
            f"{stats.admitted} + dropped {stats.dropped}",
        )
        check(stats.completed == _completed(deployment),
              "generator and proxies disagree on completions")
        result = _sim_result(
            deployment, setup, run_clock, stats.offered,
            stats.completed - stats.slo_miss, 0.0,
        )
        _finish(hooks, deployment, result)
        return result
    finally:
        deployment.shutdown()


# -- recover-store -----------------------------------------------------------------


def run_recover_store(seed: int, work_dir: Path, setup_repeats: int = 2,
                      hooks=None) -> Dict:
    """10 clients at 2 updates/s on FileStore (delta checkpoints and
    compaction on, small segments); the leader is proactively recovered
    early, then data centre ``dc-2`` is isolated and reconnected."""
    work_dir.mkdir(parents=True, exist_ok=True)
    store_root = Path(tempfile.mkdtemp(prefix="store-", dir=work_dir))
    try:
        config = base_config(
            update_interval=0.5,
            store_dir=str(store_root / "fleet"),
            checkpoint_interval=20,
            checkpoint_delta_interval=4,
            store_compaction_interval=1.0,
            store_compaction_budget=2,
            store_segment_bytes=8 * 1024,
            **_hook_config(hooks),
        )
        deployment, setup = timed_setup(config, setup_repeats, discard=_discard_store)
        try:
            _attach(hooks, deployment)
            seed_inputs(deployment, seed, client_streams(deployment))
            completions = CompletionLog(deployment)
            leader = deployment.current_leader()
            deployment.recovery.schedule_recovery(
                leader, RECOVER_LEADER_AT, RECOVER_LEADER_FOR
            )
            kernel = deployment.kernel
            kernel.call_at(ISOLATE_AT, deployment.attacks.isolate_site, ISOLATE_SITE)
            kernel.call_at(RECONNECT_AT, deployment.attacks.reconnect_site, ISOLATE_SITE)
            start_at = 0.5
            deployment.start_workload(duration=RECOVER_WINDOW_S, interval=0.5,
                                      start_at=start_at)
            run_clock = timed_run(deployment, start_at + RECOVER_WINDOW_S + DRAIN_S)
            check(leader in deployment.recovery.completed,
                  f"proactive recovery of {leader} never finished")
            check(deployment.current_leader() != leader,
                  "recovering the leader caused no view change")
            check_converged(deployment)
            result = _sim_result(
                deployment, setup, run_clock, _attempted(deployment), _completed(deployment),
                completions.outage([RECOVER_LEADER_AT, ISOLATE_AT]),
            )
            _finish(hooks, deployment, result)
            return result
        finally:
            deployment.shutdown()
            _discard_store(deployment)
    finally:
        shutil.rmtree(store_root, ignore_errors=True)


def _discard_store(deployment) -> None:
    """Close every replica's store and delete the deployment's store tree."""
    for replica in deployment.replicas.values():
        replica.store.close()
    shutil.rmtree(deployment.config.store_dir, ignore_errors=True)


def check_converged(deployment) -> None:
    """Every up on-premises replica holds the same application state."""
    states = {
        replica.host: replica.app.snapshot()
        for replica in deployment.executing_replicas()
        if replica.online
    }
    check(len(states) == len(deployment.executing_replicas()),
          "an on-premises replica is still down at the end of the run")
    distinct = set(states.values())
    check(len(distinct) == 1,
          f"on-premises replicas diverged: {len(distinct)} distinct application states")


# -- helpers ---------------------------------------------------------------------


def _attempted(deployment) -> int:
    return sum(p.next_seq - 1 for p in deployment.proxies.values())


def _completed(deployment) -> int:
    return sum(len(p.completed) for p in deployment.proxies.values())


def _hook_config(hooks) -> Dict:
    return hooks.config_overrides() if hooks is not None else {}


def _attach(hooks, deployment) -> None:
    if hooks is not None:
        hooks.attach(deployment)


def _finish(hooks, deployment, result: Dict) -> None:
    if hooks is not None:
        hooks.finish(deployment, result)


SIM_RUNNERS: Dict[str, Callable[..., Dict]] = {
    "scada-steady": run_scada_steady,
    "burst-batched": run_burst_batched,
}
