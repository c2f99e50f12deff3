"""Build a sharded deployment: S replica groups behind a routing tier.

:func:`build_sharded` turns the single-group :func:`repro.system.builder.build`
into a topology of groups:

* **shared world** — one kernel, one tracer, one metrics registry, one
  span tracker across all groups, so traces, spans, and bundles merge
  for free;
* **per-group world** — each shard gets its own RNG registry (seeded by
  ``shard_seed``), topology, network, Prime instance, threshold groups,
  stores, and key-renewal schedule, built by the ordinary ``build()``
  under a :class:`~repro.system.builder.GroupContext` with an ``sN.``
  hostname namespace;
* **global identities** — client signing keys are drawn once from the
  deployment seed and shared with every group, so any group can verify
  any client (cross-shard commits are signed by foreign clients);
* **routing tier** — one :class:`~repro.shard.router.ShardRouter` per
  client, mapping alias → home shard via the :class:`ShardMap` every
  router reconstructs from the same :class:`ShardMapAnnounce`;
* **cross-shard path** — one :class:`CrossShardCoordinator` handling the
  two-phase certify-then-inject flow for multi-shard updates.

With ``config.shards == 1`` the classic builder runs unmodified and the
routers are inert pass-throughs: traces are byte-identical to unsharded
builds (enforced by tests/test_shard_identity.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.core.app import Application, KeyValueApplication
from repro.crypto.rsa import generate_keypair
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, SpanTracker
from repro.rt.bootstrap import validate_client_ids
from repro.shard.app import ShardAwareApplication, ShardCrossContext
from repro.shard.coordinator import CrossShardCoordinator
from repro.shard.messages import ShardMapAnnounce
from repro.shard.router import ShardRouter
from repro.shard.shardmap import ShardMap, shard_seed
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer
from repro.system.builder import (
    BodyFn,
    Deployment,
    build,
    default_body,
    shared_world,
    spawn_workload,
)
from repro.system.config import SystemConfig


@dataclass
class ShardedDeployment:
    """S independent replica groups, one routing tier, one virtual world."""

    config: SystemConfig
    kernel: Kernel
    rng: RngRegistry
    tracer: Tracer
    metrics: MetricsRegistry
    spans: Optional[SpanTracker]
    announce: ShardMapAnnounce
    shard_map: ShardMap
    shards: List[Deployment]
    routers: Dict[str, ShardRouter]
    coordinator: Optional[CrossShardCoordinator]
    client_ids: List[str] = field(default_factory=list)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        for shard in self.shards:
            shard.start()

    def shutdown(self) -> None:
        for shard in self.shards:
            shard.shutdown()

    def run(self, until: float) -> float:
        return self.kernel.run(until=until)

    # -- views ---------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of_client(self, client_id: str) -> int:
        return self.routers[client_id].shard_id

    def proxies(self) -> Dict[str, object]:
        """Every client's home-shard proxy, across all shards."""
        return {cid: router.proxy for cid, router in self.routers.items()}

    def latencies(self) -> List[float]:
        """Every completed update's latency, across all shards."""
        return [
            latency
            for proxy in self.proxies().values()
            for _, (latency, _) in sorted(proxy.completed.items())
        ]

    # -- workload ------------------------------------------------------------

    def start_workload(
        self,
        body_fn: Optional[BodyFn] = None,
        duration: Optional[float] = None,
        interval: Optional[float] = None,
        start_at: float = 0.5,
        cross_shard_every: int = 0,
    ) -> List[Process]:
        """The paper's phase-staggered workload, routed through the tier.

        With ``cross_shard_every = N > 0`` (and S > 1), every Nth update
        per client writes a key owned by the *key's* shard — usually a
        foreign one — and flows through the two-phase cross-shard path.
        At S = 1 the routers are inert and the run is the classic one.
        """
        body_fn = body_fn or default_body
        if self.num_shards == 1:
            cross_shard_every = 0

        def submitter(router, cid):
            def submit(seq):
                if cross_shard_every and seq % cross_shard_every == 0:
                    # A multi-key update touching a key the shard map
                    # assigns to some shard — the router adds home, so
                    # the participant set crosses a boundary whenever
                    # the key lives elsewhere.
                    key = f"xkey-{cid}-{seq % 5}"
                    body = f"SET {key} xvalue-{seq}".encode("utf-8")
                    router.submit_cross(body, {self.shard_map.key_shard(key)})
                else:
                    router.submit(body_fn(cid, seq))
            return submit

        return spawn_workload(
            self.kernel,
            self.rng,
            {cid: submitter(router, cid) for cid, router in self.routers.items()},
            interval if interval is not None else self.config.update_interval,
            duration,
            start_at,
        )


def build_sharded(
    config: SystemConfig,
    app_factory: Optional[Callable[[], Application]] = None,
) -> ShardedDeployment:
    """Construct a sharded deployment per ``config.shards``."""
    app_factory = app_factory or KeyValueApplication
    shard_map = ShardMap(seed=config.seed, shards=config.shards)
    announce = shard_map.announce()
    # Routers reconstruct the map from the announce (not the original
    # object): what a real edge tier would do with the wire message.
    routing_map = ShardMap.from_announce(announce)

    if config.shards == 1:
        world = build(config, app_factory=app_factory)
        shards, coordinator, client_ids = [world], None, list(world.proxies)
        routers = {
            cid: ShardRouter(
                client_id=cid,
                shard_id=0,
                proxy=proxy,
                kernel=world.kernel,
                inert=True,
            )
            for cid, proxy in world.proxies.items()
        }
    else:
        world = shared_world(config)
        shards, routers, coordinator, client_ids = _build_groups(
            config, world, shard_map, routing_map, app_factory
        )
    return ShardedDeployment(
        config=config,
        kernel=world.kernel,
        rng=world.rng,
        tracer=world.tracer,
        metrics=world.metrics,
        spans=world.spans,
        announce=announce,
        shard_map=routing_map,
        shards=shards,
        routers=routers,
        coordinator=coordinator,
        client_ids=client_ids,
    )


def _build_groups(config, world, shard_map, routing_map, app_factory):
    """S > 1: one replica group per shard inside ``world``, the routing
    tier, and the cross-shard coordinator."""
    kernel, rng, tracer = world.kernel, world.rng, world.tracer
    metrics = world.metrics

    # -- global client identities --------------------------------------------
    client_ids = [f"client-{i:02d}" for i in range(config.num_clients)]
    validate_client_ids(client_ids)
    keygen = rng.stream("keygen")
    client_keys = {
        cid: generate_keypair(config.rsa_bits, keygen) for cid in client_ids
    }

    assignment = shard_map.assign(client_ids)
    empty = sorted(s for s, ids in assignment.items() if not ids)
    if empty:
        raise ConfigurationError(
            f"shard map (seed={config.seed}, shards={config.shards}) leaves "
            f"shards {empty} without clients; use more clients, fewer "
            "shards, or another seed"
        )

    # -- per-shard groups -----------------------------------------------------
    cross = ShardCrossContext()
    shards: List[Deployment] = []
    for shard_id in range(config.shards):
        local_ids = assignment[shard_id]
        shard_config = replace(
            config,
            shards=1,
            num_clients=len(local_ids),
            seed=shard_seed(config.seed, shard_id),
        )

        def shard_app_factory(_shard_id=shard_id):
            return ShardAwareApplication(app_factory(), _shard_id, cross)

        group = replace(
            world,
            rng=RngRegistry(shard_config.seed),
            namespace=f"s{shard_id}.",
            client_ids=local_ids,
            client_keys=client_keys,
            shard_id=shard_id,
        )
        shards.append(build(shard_config, app_factory=shard_app_factory, group=group))

    # Certificate verification material: filled before the kernel runs, so
    # every replica's wrapper sees the complete registry from time zero.
    for shard_id, deployment in enumerate(shards):
        cross.response_publics[shard_id] = deployment.env.response_public
    cross.verify_cache = shards[0].env.verify_cache

    # -- routing tier ---------------------------------------------------------
    coordinator = CrossShardCoordinator(
        kernel=kernel,
        shard_map=routing_map,
        client_keys=client_keys,
        tracer=tracer,
        metrics=metrics,
    )
    for shard_id, deployment in enumerate(shards):
        coordinator.attach_shard(shard_id, deployment)

    routers: Dict[str, ShardRouter] = {}
    for shard_id, deployment in enumerate(shards):
        for cid in assignment[shard_id]:
            routers[cid] = ShardRouter(
                client_id=cid,
                shard_id=shard_id,
                proxy=deployment.proxies[cid],
                kernel=kernel,
                route_delay=config.route_delay,
                tracer=tracer,
                metrics=metrics,
                coordinator=coordinator,
            )

    return shards, routers, coordinator, client_ids
