"""Deployment builder: assembles a full Spire / Confidential Spire system.

Given a :class:`SystemConfig`, :func:`build` constructs the entire
simulated world — kernel, topology, overlay, network, attack controller,
cryptographic material (threshold groups, client keys, hardware
keystores), replicas in their roles, client proxies, and metrics — and
returns a :class:`Deployment` handle for tests, examples, and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.app import Application, KeyValueApplication
from repro.core.confidentiality import Auditor
from repro.core.distribution import DistributionPlan
from repro.core.proxy import ClientProxy
from repro.core.replica import ExecutingReplica, ReplicaBase, ReplicaEnv, StorageReplica
from repro.crypto.verifycache import VerifyCache
from repro.net.attacks import AttackController
from repro.net.network import Network
from repro.obs import NULL_METRICS, MetricsRegistry, SpanTracker
from repro.net.overlay import Overlay
from repro.net.topology import Topology
from repro.rt.bootstrap import generate_material
from repro.sim.kernel import Kernel
from repro.sim.process import Process, Timeout, spawn
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer
from repro.system.config import SystemConfig
from repro.system.metrics import LatencyRecorder
from repro.system.recovery import RecoveryOrchestrator

BodyFn = Callable[[str, int], bytes]


@dataclass
class GroupContext:
    """Shared-world parameters for building one replica group.

    ShardLab (``repro.shard``) builds S independent replica groups that share
    one kernel, one tracer, and one metrics registry; each group gets its own
    RNG registry, topology, and network. :func:`build` builds one group
    inside the given world (by default a fresh :func:`shared_world`).
    ``client_keys`` carries the global client signing keys so every group
    can verify every client (cross-shard commits are signed by foreign
    clients).
    """

    kernel: "Kernel"
    rng: RngRegistry
    tracer: Tracer
    metrics: MetricsRegistry
    spans: Optional[SpanTracker]
    namespace: str = ""
    client_ids: Optional[List[str]] = None
    client_keys: Optional[Dict[str, object]] = None
    shard_id: int = 0


def shared_world(config: SystemConfig) -> GroupContext:
    """A fresh world for ``config``: kernel, RNG registry, tracer, metrics,
    spans, and the kernel gauges."""
    kernel = Kernel()
    rng = RngRegistry(config.seed)
    tracer = Tracer(kernel, enabled=config.tracing)

    metrics = (
        MetricsRegistry(now_fn=lambda: kernel.now)
        if config.metrics_enabled
        else NULL_METRICS
    )
    # Causal spans piggyback on the tracer; without tracing there are no
    # milestone events to observe, so there is nothing to attach.
    spans = SpanTracker().attach(tracer) if config.tracing else None
    metrics.register_gauge("kernel.events_processed", lambda: kernel.events_processed)
    metrics.register_gauge("kernel.pending_events", lambda: kernel.pending_events)
    metrics.register_gauge("kernel.timers_scheduled", lambda: kernel.timers_scheduled)
    metrics.register_gauge("kernel.heap_depth", lambda: kernel.heap_depth)
    return GroupContext(kernel=kernel, rng=rng, tracer=tracer, metrics=metrics, spans=spans)


def default_body(client_id: str, seq: int) -> bytes:
    return f"SET {client_id}-key-{seq % 17} value-{seq}".encode("utf-8")


def spawn_workload(
    kernel: Kernel,
    rng: RngRegistry,
    submitters: Dict[str, Callable[[int], object]],
    interval: float,
    duration: Optional[float],
    start_at: float,
) -> List[Process]:
    """Spawn the paper's workload: each client submits one update per
    ``interval`` seconds, phase-staggered, until ``duration``, through
    ``submitters[client_id](seq)`` (its proxy, or its shard router)."""
    processes = []
    client_ids = sorted(submitters)
    for index, client_id in enumerate(client_ids):
        phase = start_at + (index / max(1, len(client_ids))) * interval
        jitter_rng = rng.stream(f"workload.{client_id}")

        def gen(submit=submitters[client_id], phase=phase, rng=jitter_rng):
            # Field devices poll on nominal intervals but are not
            # synchronized with each other or with the servers; the
            # jitter keeps submission phases from aliasing against the
            # leader's proposal ticks.
            yield Timeout(phase)
            seq = 0
            while duration is None or kernel.now < start_at + duration:
                seq += 1
                submit(seq)
                yield Timeout(interval * rng.uniform(0.9, 1.1))

        processes.append(spawn(kernel, gen(), name=f"workload-{client_id}"))
    return processes


@dataclass
class Deployment:
    """A fully wired simulated system, ready to run."""

    config: SystemConfig
    plan: DistributionPlan
    kernel: Kernel
    rng: RngRegistry
    tracer: Tracer
    topology: Topology
    overlay: Overlay
    network: Network
    attacks: AttackController
    auditor: Auditor
    replicas: Dict[str, ReplicaBase]
    on_premises_hosts: Tuple[str, ...]
    data_center_hosts: Tuple[str, ...]
    proxies: Dict[str, ClientProxy]
    recorder: LatencyRecorder
    recovery: RecoveryOrchestrator
    env: ReplicaEnv
    metrics: MetricsRegistry
    spans: Optional[SpanTracker]
    crypto_pool: Optional[object] = None
    shard_id: int = 0

    def start(self) -> None:
        """Bring every replica online (idempotent per replica start)."""
        for host in sorted(self.replicas):
            self.replicas[host].start()

    def shutdown(self) -> None:
        """Release external resources (the crypto worker pool, if any)."""
        if self.crypto_pool is not None:
            self.crypto_pool.shutdown()

    def run(self, until: float) -> float:
        """Advance the simulation to virtual time ``until``."""
        return self.kernel.run(until=until)

    # -- workload helpers ----------------------------------------------------------

    def start_workload(
        self,
        body_fn: Optional[BodyFn] = None,
        duration: Optional[float] = None,
        interval: Optional[float] = None,
        start_at: float = 0.5,
    ) -> List[Process]:
        """Spawn the paper's workload (:func:`spawn_workload`) through the
        proxies. ``body_fn(client_id, seq)`` produces update bodies; the
        default issues key-value SETs.
        """
        body_fn = body_fn or default_body
        submitters = {
            cid: (lambda seq, proxy=proxy, cid=cid: proxy.submit(body_fn(cid, seq)))
            for cid, proxy in self.proxies.items()
        }
        return spawn_workload(
            self.kernel, self.rng, submitters,
            interval if interval is not None else self.config.update_interval,
            duration, start_at,
        )

    # -- convenience views -----------------------------------------------------------

    def executing_replicas(self) -> List[ExecutingReplica]:
        return [
            r for r in self.replicas.values() if isinstance(r, ExecutingReplica)
        ]

    def storage_replicas(self) -> List[StorageReplica]:
        return [r for r in self.replicas.values() if isinstance(r, StorageReplica)]

    def current_leader(self) -> str:
        views = [r.engine.view for r in self.replicas.values() if r.online]
        view = max(views) if views else 0
        return self.env.prime_config.leader_of(view)

    def site_of_host(self, host: str) -> str:
        return self.topology.site_of(host).name


def build(
    config: SystemConfig,
    app_factory: Optional[Callable[[], Application]] = None,
    group: Optional[GroupContext] = None,
) -> Deployment:
    """Construct a deployment per ``config``. See the module docstring.

    With ``group`` set, the deployment is one replica group of a sharded
    world: kernel, tracer, metrics, and spans are shared, hostnames are
    namespaced, and the client population comes from the shard map instead
    of ``config.num_clients``. Without it (the default), behaviour is the
    classic single-group build, byte-identical to pre-shard releases.
    """
    app_factory = app_factory or KeyValueApplication
    group = group or shared_world(config)
    kernel, rng, tracer = group.kernel, group.rng, group.tracer
    metrics, spans = group.metrics, group.spans
    # Geography, roles, and every key in the system come from the shared
    # deterministic dealer; live RtLab nodes re-derive the identical
    # material from (config, seed) in their own processes.
    material = generate_material(
        config,
        rng,
        namespace=group.namespace,
        client_ids=group.client_ids,
        client_keys=group.client_keys,
    )
    plan = material.plan
    topology = material.topology
    on_prem_hosts = material.on_premises_hosts
    dc_hosts = material.data_center_hosts
    all_hosts = material.all_hosts

    overlay = Overlay(topology)
    network = Network(
        kernel,
        topology,
        overlay,
        rng,
        tracer=tracer,
        wan_loss_probability=config.wan_loss_probability,
        metrics=metrics,
        frame_cache_enabled=config.frame_cache_enabled,
    )
    attacks = AttackController(kernel, overlay, tracer=tracer, network=network)
    auditor = Auditor(tracer=tracer)
    network.inspector = auditor.inspect_delivery

    prime_config = material.prime_config
    executing_hosts = material.executing_hosts
    intro_group = material.intro_group
    response_group = material.response_group
    client_ids = material.client_ids
    client_keys = material.client_keys
    client_registry = material.client_registry
    alias_to_client = material.alias_to_client
    initial_client_keys = material.initial_client_keys
    proxy_of_client = material.proxy_of_client
    keystores = material.keystores

    store_factory = None
    if config.store_dir is not None:
        from pathlib import Path

        from repro.store.filestore import FileStore

        store_root = Path(config.store_dir)

        def store_factory(host: str, _root=store_root, _metrics=metrics):
            return FileStore(
                _root / host,
                fsync=config.store_fsync,
                segment_bytes=config.store_segment_bytes,
                metrics=_metrics,
                host=host,
            )

    # One verification memo for the whole deployment: the sim runs every
    # replica in-process, so a retransmit verified once by any replica is
    # a cache hit everywhere. Simulated crypto costs are charged per
    # replica as before; only the real modexp is skipped.
    verify_cache = None
    if config.verify_cache_enabled:
        verify_cache = VerifyCache(
            hit_counter=metrics.counter("crypto.verify_cache_hit"),
            miss_counter=metrics.counter("crypto.verify_cache_miss"),
        )

    crypto_pool = None
    if config.crypto_workers > 0:
        from repro.crypto.pool import CryptoPool

        crypto_pool = CryptoPool(workers=config.crypto_workers)
    if config.intro_batch_size > 1:
        # Seed the proposer window jitter from the deployment seed so
        # batched runs are reproducible. Singleton runs never draw from
        # this stream, preserving byte-identity at batch size 1.
        from repro.core.intro import seed_batch_jitter

        seed_batch_jitter(config.seed)

    env = ReplicaEnv(
        kernel=kernel,
        network=network,
        costs=config.costs,
        prime_config=prime_config,
        confidential=config.confidential,
        all_replicas=tuple(all_hosts),
        on_premises=tuple(on_prem_hosts),
        executing=tuple(executing_hosts),
        intro_public=intro_group.public if intro_group else None,
        response_public=response_group.public,
        client_registry=client_registry,
        alias_to_client=alias_to_client,
        proxy_of_client=proxy_of_client,
        initial_client_keys=initial_client_keys,
        checkpoint_interval=config.checkpoint_interval,
        checkpoint_delta_interval=config.checkpoint_delta_interval,
        store_compaction_interval=config.store_compaction_interval,
        store_compaction_budget=config.store_compaction_budget,
        key_validity=config.key_validity,
        key_slack=config.key_slack,
        key_renewal_enabled=config.key_renewal_enabled,
        failover_delay=config.failover_delay,
        xfer_chunk_bytes=config.xfer_chunk_bytes,
        xfer_chunk_interval=config.xfer_chunk_interval,
        tracer=tracer,
        auditor=auditor,
        rng=rng,
        metrics=metrics,
        store_factory=store_factory,
        verify_cache=verify_cache,
        intro_batch_size=config.intro_batch_size,
        intro_batch_window=config.intro_batch_window,
        crypto_pool=crypto_pool,
    )

    replicas: Dict[str, ReplicaBase] = {}
    for index, host in enumerate(executing_hosts):
        intro_share = intro_group.shares[index + 1] if intro_group else None
        replicas[host] = ExecutingReplica(
            env=env,
            host=host,
            keystore=keystores[host],
            app_factory=app_factory,
            intro_share=intro_share,
            response_share=response_group.shares[index + 1],
        )
    if config.confidential:
        for host in dc_hosts:
            replicas[host] = StorageReplica(env, host, keystores[host])

    recorder = LatencyRecorder()
    proxies: Dict[str, ClientProxy] = {}
    for cid in client_ids:
        proxy = ClientProxy(
            kernel=kernel,
            network=network,
            host=proxy_of_client[cid],
            client_id=cid,
            signing_key=client_keys[cid],
            response_public=response_group.public,
            on_premises_replicas=list(on_prem_hosts),
            costs=config.costs,
            tracer=tracer,
            metrics=metrics,
            verify_cache=verify_cache,
        )
        recorder.attach(proxy)
        proxies[cid] = proxy

    recovery = RecoveryOrchestrator(kernel, replicas, tracer=tracer)

    return Deployment(
        config=config,
        plan=plan,
        kernel=kernel,
        rng=rng,
        tracer=tracer,
        topology=topology,
        overlay=overlay,
        network=network,
        attacks=attacks,
        auditor=auditor,
        replicas=replicas,
        on_premises_hosts=tuple(on_prem_hosts),
        data_center_hosts=tuple(dc_hosts),
        proxies=proxies,
        recorder=recorder,
        recovery=recovery,
        env=env,
        metrics=metrics,
        spans=spans,
        crypto_pool=crypto_pool,
        shard_id=group.shard_id,
    )


