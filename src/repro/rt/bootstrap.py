"""Deterministic system bootstrap shared by the sim builder and live nodes.

The simulation builds the whole world in one process, so a central
"dealer" can generate threshold groups, client keys, and hardware
keystores and hand each component its share directly. The live runtime
has no such process: every replica, proxy, and client is its own OS
process. Instead of shipping key material over the wire (or files), every
process *re-derives* the identical material from the run's master seed —
:class:`~repro.sim.rng.RngRegistry` streams are keyed by name, so each
process drawing the same named streams in the same order reconstructs
byte-identical keys, shares, and keystores.

:func:`generate_material` is that dealer, extracted verbatim from
``repro.system.builder.build`` (which now calls it), preserving the exact
RNG draw order so existing simulation traces stay byte-identical.

:class:`RtConfig` is the JSON-serialisable description of one live
deployment: the launcher writes it to a spec file, every spawned node
reads it back, and both sides derive the same
:class:`~repro.system.config.SystemConfig`, material, and port map.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.distribution import DistributionPlan, plan_confidential, plan_spire
from repro.core.messages import client_alias
from repro.errors import ConfigurationError
from repro.costs import FREE
from repro.crypto.keystore import HardwareKeyStore
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_keypair
from repro.crypto.symmetric import SymmetricKeyPair, derive_keypair
from repro.crypto.threshold import ThresholdKeyGroup, generate_threshold_key
from repro.net.topology import CLIENT_SITE, Topology, east_coast_topology
from repro.prime.config import PrimeConfig
from repro.sim.rng import RngRegistry
from repro.system.config import Mode, SystemConfig


@dataclass
class ReplicaLayout:
    """The keygen-free part of the material: plan, geography, placement
    (enough for e.g. FaultLab's schedule space, without building)."""

    plan: DistributionPlan
    topology: Topology
    on_premises_hosts: Tuple[str, ...]
    data_center_hosts: Tuple[str, ...]

    def site_of_host(self, host: str) -> str:
        return self.topology.site_of(host).name


def replica_layout(config: SystemConfig, namespace: str = "") -> ReplicaLayout:
    """The distribution plan, topology, and replica placement for ``config``."""
    if config.confidential:
        plan = plan_confidential(config.f, config.data_centers)
    else:
        plan = plan_spire(config.f, config.data_centers)
    topology = east_coast_topology(config.data_centers)
    on_prem_hosts, dc_hosts = _place_replicas(topology, plan, namespace)
    return ReplicaLayout(plan, topology, on_prem_hosts, dc_hosts)


@dataclass
class SystemMaterial(ReplicaLayout):
    """Everything derivable from (config, seed): geography, roles, keys.

    Identical in every process of a deployment; never crosses the wire.
    """

    all_hosts: Tuple[str, ...]
    executing_hosts: Tuple[str, ...]
    prime_config: PrimeConfig
    intro_group: Optional[ThresholdKeyGroup]
    response_group: ThresholdKeyGroup
    client_ids: List[str]
    client_keys: Dict[str, RsaKeyPair]
    client_registry: Dict[str, RsaPublicKey]
    alias_to_client: Dict[str, str]
    initial_client_keys: Dict[str, SymmetricKeyPair]
    proxy_of_client: Dict[str, str]
    keystores: Dict[str, HardwareKeyStore]

    def role_of(self, host: str) -> str:
        """"executing" | "storage" for a replica host."""
        return "executing" if host in self.executing_hosts else "storage"


def generate_material(
    config: SystemConfig,
    rng: RngRegistry,
    *,
    namespace: str = "",
    client_ids: Optional[List[str]] = None,
    client_keys: Optional[Dict[str, RsaKeyPair]] = None,
) -> SystemMaterial:
    """Derive the full deterministic system material for ``config``.

    The RNG draw order on the ``"keygen"`` stream is a compatibility
    contract: changing it changes every key in every existing trace.

    The keyword parameters exist for ShardLab's per-group material and all
    default to the classic single-group behaviour:

    * ``namespace`` prefixes every replica/proxy hostname (e.g. ``"s1."``)
      so S groups can share one tracer and one merged bundle without
      ambiguity.
    * ``client_ids`` names this group's *local* clients explicitly instead
      of deriving ``client-00..`` from ``num_clients``.
    * ``client_keys`` supplies pre-generated signing keys for the *global*
      client population. Local clients use their entry; every other
      (foreign) client is still registered for verification and given a
      gateway proxy host, so a cross-shard commit signed by a foreign
      client introduces through the normal pipeline.
    """
    layout = replica_layout(config, namespace)
    plan, topology = layout.plan, layout.topology
    on_prem_hosts, dc_hosts = layout.on_premises_hosts, layout.data_center_hosts
    all_hosts = on_prem_hosts + dc_hosts

    prime_config = PrimeConfig(
        replica_ids=_interleave_by_site(topology, all_hosts),
        f=plan.f,
        k=plan.k,
        pp_interval=config.pp_interval,
        vc_timeout=config.vc_timeout,
    )

    # -- cryptographic material (the system-setup "dealer" role) -----------------
    keygen_rng = rng.stream("keygen")
    executing_hosts = on_prem_hosts if config.confidential else all_hosts

    intro_group: Optional[ThresholdKeyGroup] = None
    if config.confidential:
        intro_group = generate_threshold_key(
            config.threshold_bits, plan.f + 1, len(on_prem_hosts), keygen_rng
        )
    response_group = generate_threshold_key(
        config.threshold_bits, plan.f + 1, len(executing_hosts), keygen_rng
    )

    if client_ids is None:
        client_ids = [f"client-{i:02d}" for i in range(config.num_clients)]
    validate_client_ids(client_ids)
    if client_keys is None:
        local_keys: Dict[str, RsaKeyPair] = {
            cid: generate_keypair(config.rsa_bits, keygen_rng) for cid in client_ids
        }
        known_keys = local_keys
    else:
        missing = [cid for cid in client_ids if cid not in client_keys]
        if missing:
            raise ConfigurationError(
                f"client_keys lacks entries for local clients {missing}"
            )
        local_keys = {cid: client_keys[cid] for cid in client_ids}
        known_keys = client_keys
    # Replicas verify signatures (and resolve aliases) for every *known*
    # client — in a sharded deployment that is the global population, so a
    # cross-shard commit signed by a foreign client's key verifies here.
    client_registry = {cid: kp.public for cid, kp in known_keys.items()}
    alias_to_client = {client_alias(cid): cid for cid in known_keys}
    initial_client_keys: Dict[str, SymmetricKeyPair] = {
        client_alias(cid): derive_keypair(
            rng.randbytes(f"client-keys.{cid}", 32)
        )
        for cid in known_keys
    }
    # Local clients get their proxy host; foreign clients get a gateway
    # host the cross-shard coordinator can attach a proxy to on demand.
    proxy_of_client = {cid: f"{namespace}proxy-{cid}" for cid in client_ids}
    for cid in known_keys:
        if cid not in proxy_of_client:
            proxy_of_client[cid] = f"{namespace}gw-{cid}"
    for proxy_host in proxy_of_client.values():
        topology.add_host(proxy_host, CLIENT_SITE)

    # Hardware keystores: every replica has a TPM identity key; on-premises
    # replicas additionally share the hardware-protected symmetric key.
    hw_shared = derive_keypair(rng.randbytes("hw-shared-key", 32))
    keystores: Dict[str, HardwareKeyStore] = {}
    for host in all_hosts:
        identity = generate_keypair(config.rsa_bits, keygen_rng)
        shared = hw_shared if (host in on_prem_hosts and config.confidential) else None
        keystores[host] = HardwareKeyStore(host, identity, shared)

    return SystemMaterial(
        plan=plan,
        topology=topology,
        on_premises_hosts=tuple(on_prem_hosts),
        data_center_hosts=tuple(dc_hosts),
        all_hosts=tuple(all_hosts),
        executing_hosts=tuple(executing_hosts),
        prime_config=prime_config,
        intro_group=intro_group,
        response_group=response_group,
        client_ids=client_ids,
        client_keys=local_keys,
        client_registry=client_registry,
        alias_to_client=alias_to_client,
        initial_client_keys=initial_client_keys,
        proxy_of_client=proxy_of_client,
        keystores=keystores,
    )


def validate_client_ids(client_ids: List[str]) -> None:
    """Reject empty, duplicate, or alias-colliding client id sets.

    Duplicate ids used to slip through silently (the material dicts are
    keyed by id, so a duplicate overwrote its twin's keys); an alias
    collision would let two distinct clients impersonate each other at
    the introduction layer.
    """
    if not client_ids:
        raise ConfigurationError("at least one client id required")
    seen: Dict[str, str] = {}
    for cid in client_ids:
        if not cid:
            raise ConfigurationError("client ids must be non-empty strings")
        if cid in seen:
            raise ConfigurationError(f"duplicate client id {cid!r}")
        seen[cid] = cid
    aliases: Dict[str, str] = {}
    for cid in client_ids:
        alias = client_alias(cid)
        if alias in aliases:
            raise ConfigurationError(
                f"client ids {aliases[alias]!r} and {cid!r} collide on alias {alias}"
            )
        aliases[alias] = cid


def _interleave_by_site(topology: Topology, hosts: Tuple[str, ...]) -> Tuple[str, ...]:
    """Order hosts round-robin across their sites, so that the Prime
    leader rotation (which follows this order) never dwells in one site."""
    by_site: Dict[str, List[str]] = {}
    for host in hosts:
        by_site.setdefault(topology.site_of(host).name, []).append(host)
    columns = [sorted(by_site[site]) for site in sorted(by_site)]
    interleaved: List[str] = []
    for row in range(max(len(c) for c in columns)):
        for column in columns:
            if row < len(column):
                interleaved.append(column[row])
    return tuple(interleaved)


def _place_replicas(
    topology: Topology, plan: DistributionPlan, namespace: str = ""
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Create replica hostnames and place them in their sites."""
    from repro.net.topology import (
        CONTROL_CENTER_A,
        CONTROL_CENTER_B,
        DATA_CENTER_1,
        DATA_CENTER_2,
        DATA_CENTER_3,
    )

    on_prem_sites = [CONTROL_CENTER_A, CONTROL_CENTER_B]
    dc_sites = [DATA_CENTER_1, DATA_CENTER_2, DATA_CENTER_3][: len(plan.data_centers)]
    on_prem_hosts: List[str] = []
    dc_hosts: List[str] = []
    for site, count in zip(on_prem_sites, plan.on_premises):
        for i in range(count):
            host = f"{namespace}{site}-r{i}"
            topology.add_host(host, site)
            on_prem_hosts.append(host)
    for site, count in zip(dc_sites, plan.data_centers):
        for i in range(count):
            host = f"{namespace}{site}-r{i}"
            topology.add_host(host, site)
            dc_hosts.append(host)
    return tuple(on_prem_hosts), tuple(dc_hosts)


# -- live deployment spec ---------------------------------------------------------


@dataclass
class RtConfig:
    """One live deployment, JSON round-trippable for the spec file.

    Protocol timing defaults are scaled up from the simulation's: the sim
    charges modelled CPU costs on a virtual clock, while live processes
    pay real scheduling, real crypto, and real TCP under a shared machine,
    so the sim's 100 ms view-change timeout would misfire constantly.
    """

    mode: str = "confidential"
    f: int = 1
    data_centers: int = 2
    num_clients: int = 5
    seed: int = 1

    #: ShardLab: number of independent replica groups. Each shard is a
    #: full Prime deployment (own threshold groups, own stores, own
    #: key-renewal schedule) with namespaced hostnames (``s0.`` ...);
    #: clients are routed to their home shard by the deterministic
    #: :class:`~repro.shard.shardmap.ShardMap`.
    shards: int = 1
    #: Port-space stride between shards: shard N's ports start at
    #: ``base_port + N * shard_port_stride``. Must exceed twice the
    #: number of hosts + proxies of any one shard.
    shard_port_stride: int = 256

    #: Updates each client submits (closed loop: next begins when the
    #: previous completes or the pacing interval elapses).
    updates_per_client: int = 100
    update_interval: float = 0.02

    # Live-scaled protocol timing.
    pp_interval: float = 0.05
    vc_timeout: float = 3.0
    failover_delay: float = 0.5
    retransmit_timeout: float = 2.0
    checkpoint_interval: int = 100

    # Below the Linux ephemeral range (32768+): a peer's outbound
    # connection must never steal a listener's port.
    base_port: int = 17000
    bind_host: str = "127.0.0.1"
    #: Inject the emulated topology's site latencies at the transport
    #: layer. Off for pure-throughput benchmarking.
    latency: bool = True
    #: Shared wall-clock epoch (the launcher's launch instant); every
    #: node's ``now`` is seconds since this, so merged timelines align.
    epoch: float = 0.0
    #: Directory for per-node artifacts and the merged bundle.
    out_dir: str = "rt-out"

    # Durable storage (repro.store): each replica process keeps a
    # FileStore under <out_dir>/nodes/<host>/store, so a SIGKILLed node
    # recovers its own prefix from disk and only the missing suffix
    # crosses the network on respawn.
    durable_store: bool = True
    store_fsync: str = "batch"
    store_segment_bytes: int = 1 << 20

    # CompactLab: delta checkpoints + background log compaction. With
    # ``checkpoint_delta_interval`` = N > 1, only every N-th checkpoint is
    # a full snapshot (deltas between); ``store_compaction_interval`` > 0
    # arms a wall-clock compaction tick on each node's scheduler that
    # rewrites up to ``store_compaction_budget`` sealed segments per tick.
    checkpoint_delta_interval: int = 0
    store_compaction_interval: float = 0.0
    store_compaction_budget: int = 2

    # BatchLab: introduction batching and the crypto worker pool. Batch
    # size 1 keeps the singleton path; crypto_workers > 0 gives each
    # replica process a pool of that many worker processes for threshold
    # sign/combine.
    intro_batch_size: int = 1
    intro_batch_window: float = 0.02
    crypto_workers: int = 0

    # WatchLab: live telemetry + anomaly detection. ``trace_wire`` stamps
    # every outbound frame with a v2 trace-context extension (trace id +
    # sender HLC); ``telemetry_interval`` paces each node's watch tick
    # (snapshot, span drain, detector poll); ``detectors`` arms the
    # online anomaly detectors. All default on — frames stay v1 and the
    # watch loop idle only when explicitly disabled.
    trace_wire: bool = True
    telemetry_interval: float = 1.0
    detectors: bool = True

    # LoadLab: open-loop client driving (:mod:`repro.load.arrivals`). An
    # empty ``load_profile`` keeps the classic closed loop above. With a
    # profile set ("poisson" | "bursty" | "diurnal" | "storm"), every
    # client process runs an open-loop driver instead: seeded arrivals at
    # ``load_rate / num_clients`` per client, its slice of ``load_aliases``
    # client aliases multiplexed over its one real proxy, and arrivals
    # that find the proxy's in-flight window full are dropped and counted
    # — never silently deferred.
    load_profile: str = ""
    load_rate: float = 20.0
    load_aliases: int = 200
    load_duration: float = 10.0
    load_max_inflight: int = 4
    load_deadline: float = 4.0
    load_keyspace: int = 4
    load_value_bytes: int = 32
    load_profile_params: Dict[str, float] = field(default_factory=dict)

    def system_config(self) -> SystemConfig:
        """The :class:`SystemConfig` every node derives material from.

        Costs are :data:`~repro.costs.FREE`: live crypto does real work on
        a real CPU, so charging modelled costs on top would double-count.
        """
        return SystemConfig(
            mode=Mode(self.mode),
            f=self.f,
            data_centers=self.data_centers,
            num_clients=self.num_clients,
            seed=self.seed,
            shards=self.shards,
            update_interval=self.update_interval,
            checkpoint_interval=self.checkpoint_interval,
            checkpoint_delta_interval=self.checkpoint_delta_interval,
            store_compaction_interval=self.store_compaction_interval,
            store_compaction_budget=self.store_compaction_budget,
            pp_interval=self.pp_interval,
            vc_timeout=self.vc_timeout,
            failover_delay=self.failover_delay,
            intro_batch_size=self.intro_batch_size,
            intro_batch_window=self.intro_batch_window,
            crypto_workers=self.crypto_workers,
            costs=FREE,
            tracing=True,
            metrics_enabled=True,
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RtConfig":
        data = json.loads(text)
        return cls(**data)


@dataclass
class ShardSlice:
    """One shard's share of a live fleet: local clients, material, ports."""

    shard_id: int
    namespace: str
    client_ids: List[str]
    config: SystemConfig
    material: SystemMaterial
    base_port: int

    def ports(self) -> Dict[str, Tuple[int, int]]:
        return host_ports(self.material, self.base_port)


def generate_fleet(config: "RtConfig") -> List[ShardSlice]:
    """Derive every shard's material for one live deployment.

    Deterministic in (config, seed): the launcher and every node process
    compute the same fleet without coordination. For ``shards == 1`` this
    is exactly the classic single-group derivation (no namespace, ports
    at ``base_port``).
    """
    if config.shards == 1:
        system_config = config.system_config()
        material = generate_material(system_config, RngRegistry(config.seed))
        return [
            ShardSlice(
                shard_id=0,
                namespace="",
                client_ids=list(material.client_ids),
                config=system_config,
                material=material,
                base_port=config.base_port,
            )
        ]
    from dataclasses import replace as _replace

    from repro.shard.shardmap import ShardMap, shard_seed

    client_ids = [f"client-{i:02d}" for i in range(config.num_clients)]
    shard_map = ShardMap(seed=config.seed, shards=config.shards)
    assignment = shard_map.assign(client_ids)
    empty = sorted(s for s, ids in assignment.items() if not ids)
    if empty:
        raise ConfigurationError(
            f"shard map (seed={config.seed}, shards={config.shards}) leaves "
            f"shards {empty} without clients"
        )
    slices: List[ShardSlice] = []
    for shard_id in range(config.shards):
        local_ids = assignment[shard_id]
        shard_config = _replace(
            config.system_config(),
            shards=1,
            num_clients=len(local_ids),
            seed=shard_seed(config.seed, shard_id),
        )
        material = generate_material(
            shard_config,
            RngRegistry(shard_config.seed),
            namespace=f"s{shard_id}.",
            client_ids=local_ids,
        )
        base = config.base_port + shard_id * config.shard_port_stride
        hosts_needed = 2 * (len(material.all_hosts) + len(material.proxy_of_client))
        if hosts_needed > config.shard_port_stride:
            raise ConfigurationError(
                f"shard {shard_id} needs {hosts_needed} ports but "
                f"shard_port_stride is {config.shard_port_stride}"
            )
        slices.append(
            ShardSlice(
                shard_id=shard_id,
                namespace=f"s{shard_id}.",
                client_ids=local_ids,
                config=shard_config,
                material=material,
                base_port=base,
            )
        )
    return slices


def slice_for_host(slices: List[ShardSlice], host: str) -> ShardSlice:
    """The shard slice a replica/proxy hostname belongs to."""
    for shard in slices:
        if host in shard.material.all_hosts or host in shard.ports():
            return shard
    raise ConfigurationError(f"host {host!r} belongs to no shard of this fleet")


def slice_for_client(slices: List[ShardSlice], client_id: str) -> ShardSlice:
    """The home shard slice of ``client_id``."""
    for shard in slices:
        if client_id in shard.client_ids:
            return shard
    raise ConfigurationError(f"client {client_id!r} belongs to no shard of this fleet")


def host_ports(material: SystemMaterial, base_port: int) -> Dict[str, Tuple[int, int]]:
    """Deterministic (data_port, control_port) per host.

    Sorted over replicas then proxies so every process computes the same
    map without coordination: host i gets base+2i (data) and base+2i+1
    (control).
    """
    hosts = sorted(material.all_hosts) + sorted(material.proxy_of_client.values())
    return {
        host: (base_port + 2 * i, base_port + 2 * i + 1)
        for i, host in enumerate(hosts)
    }


def data_ports(material: SystemMaterial, base_port: int) -> Dict[str, int]:
    """Just the data-plane port per host (what :class:`LiveTransport` needs)."""
    return {host: ports[0] for host, ports in host_ports(material, base_port).items()}
