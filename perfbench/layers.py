"""Per-layer cost accounting for the traced run.

Nothing under ``src/`` is edited. Instead, before the deployment is built,
this module wraps the layers' entry points from the outside and charges
wall time to the layer whose code is running:

* **Entry points** (:data:`ENTRY_POINTS`): public functions and methods a
  layer is entered through, e.g. ``PreOrder.on_po_request``,
  ``FileStore.append`` or ``codec.encode_message``. Module-level functions
  are replaced in every loaded module that imported them by name, so a
  ``from x import f`` caller is wrapped too.
* **Kernel callbacks**: the sim defers most work (CPU queueing, timers,
  network delivery) through ``Kernel.call_at``. A wrapper on that public
  method tags each callback with the layer that owns it
  (:data:`CALLBACK_RULES`); a replica's message-processing callback is
  tagged by message type (:data:`MESSAGE_LAYER`).

Spans nest on one stack. A layer's *self* time is its spans' duration
minus the spans of the layers they called, so the kernel's own time
(``sim.kernel``: heap, timers, dispatch and anything unclassified) is a
layer like the others. Every wrapper counts its calls; :func:`self_check`
fails the traced run when an entry point or callback rule meant to fire on
the workload never did (for example, because a caller bypassed it).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

SIM = frozenset({"scada-steady", "burst-batched", "recover-store"})
SINGLETON = frozenset({"scada-steady", "recover-store"})
BATCHED = frozenset({"burst-batched"})
RECOVER = frozenset({"recover-store"})
WIRE = frozenset({"wire-replay"})
CODEC = frozenset({"wire-replay", "recover-store"})

#: (module, attribute path, layer, workloads on which it must fire).
#: The attribute path is ``Class.method`` or a module-level function.
ENTRY_POINTS: Tuple[Tuple[str, str, str, frozenset], ...] = (
    ("repro.sim.kernel", "Kernel.run", "sim.kernel", SIM),
    ("repro.net.network", "Network.send", "net.network", SIM),
    ("repro.core.proxy", "ClientProxy.submit", "core.proxy", SIM),
    ("repro.core.intro", "IntroductionManager.on_client_update", "core.intro", SIM),
    ("repro.core.intro", "IntroductionManager.on_intro_share", "core.intro", SINGLETON),
    ("repro.core.intro", "IntroductionManager.on_batch_proposal", "core.intro", BATCHED),
    ("repro.core.intro", "IntroductionManager.on_batch_share", "core.intro", BATCHED),
    ("repro.prime.preorder", "PreOrder.inject", "prime.preorder", SIM),
    ("repro.prime.preorder", "PreOrder.on_po_request", "prime.preorder", SIM),
    ("repro.prime.preorder", "PreOrder.on_po_ack", "prime.preorder", SIM),
    ("repro.prime.preorder", "PreOrder.on_po_aru", "prime.preorder", SIM),
    ("repro.prime.order", "GlobalOrder.on_pre_prepare", "prime.order", SIM),
    ("repro.prime.order", "GlobalOrder.on_prepare", "prime.order", SIM),
    ("repro.prime.order", "GlobalOrder.on_commit", "prime.order", SIM),
    ("repro.prime.view_change", "ViewChange.on_suspect", "prime.view_change", RECOVER),
    ("repro.prime.view_change", "ViewChange.on_vc_state", "prime.view_change", RECOVER),
    ("repro.prime.view_change", "ViewChange.on_new_view", "prime.view_change", RECOVER),
    ("repro.core.replica", "ExecutingReplica.store_entry", "core.replica.execute", SIM),
    ("repro.core.app", "KeyValueApplication.execute", "core.replica.execute", SIM),
    ("repro.core.replica", "ExecutingReplica.on_response_share",
     "core.replica.respond", SINGLETON),
    ("repro.core.replica", "ExecutingReplica.on_response_batch_share",
     "core.replica.respond", BATCHED),
    ("repro.core.checkpoint", "CheckpointManager.maybe_generate", "core.checkpoint", SIM),
    ("repro.core.checkpoint", "CheckpointManager.on_checkpoint", "core.checkpoint", SIM),
    ("repro.core.state_transfer", "StateTransferManager.initiate",
     "core.state_transfer", RECOVER),
    ("repro.core.state_transfer", "StateTransferManager.on_solicit",
     "core.state_transfer", RECOVER),
    ("repro.core.state_transfer", "StateTransferManager.on_ordered_request",
     "core.state_transfer", RECOVER),
    ("repro.core.state_transfer", "StateTransferManager.on_response",
     "core.state_transfer", RECOVER),
    ("repro.core.replica", "ReplicaBase.on_state_transfer_done",
     "core.state_transfer", RECOVER),
    ("repro.store.memory", "MemoryStore.append", "store", SIM - RECOVER),
    ("repro.store.filestore", "FileStore.append", "store", RECOVER),
    ("repro.store.filestore", "FileStore.save_checkpoint", "store", RECOVER),
    ("repro.store.filestore", "FileStore.save_delta", "store", RECOVER),
    ("repro.store.filestore", "FileStore.gc", "store", RECOVER),
    ("repro.store.filestore", "FileStore.compact", "store", RECOVER),
    ("repro.store.filestore", "FileStore.load", "store", RECOVER),
    ("repro.core.replica", "ReplicaBase.recover_from_store", "store", RECOVER),
    ("repro.crypto.threshold", "ThresholdKeyShare.sign_partial", "crypto.threshold", SIM),
    ("repro.crypto.threshold", "sign_partial_via", "crypto.threshold", BATCHED),
    ("repro.crypto.threshold", "combine_partials", "crypto.threshold", SIM),
    ("repro.crypto.threshold", "combine_with_retry", "crypto.threshold", SIM),
    ("repro.crypto.threshold", "combine_via", "crypto.threshold", BATCHED),
    ("repro.crypto.threshold", "ThresholdPublicKey.verify", "crypto.threshold", SIM),
    ("repro.crypto.symmetric", "encrypt", "crypto.aes", SIM),
    ("repro.crypto.symmetric", "decrypt", "crypto.aes", SIM),
    ("repro.crypto.rsa", "RsaKeyPair.sign", "crypto.rsa", SIM),
    ("repro.crypto.rsa", "RsaPublicKey.verify", "crypto.rsa", SIM),
    ("repro.net.codec", "encode_message", "net.codec", CODEC),
    ("repro.net.codec", "encode_message_cached", "net.codec", CODEC),
    ("repro.net.codec", "decode_message", "net.codec", CODEC),
    ("repro.rt.wire", "encode_frame", "rt.wire", WIRE),
    ("repro.rt.wire", "extend_frame", "rt.wire", WIRE),
    ("repro.rt.wire", "FrameDecoder.feed", "rt.wire", WIRE),
)

#: Message type -> layer: the layer that processes the message, and the
#: layer its sends are charged to in the message and byte counts.
MESSAGE_LAYER: Dict[str, str] = {
    **dict.fromkeys(("PoRequest", "PoAck", "PoAru", "PoFetch", "PoFetchReply"),
                    "prime.preorder"),
    **dict.fromkeys(("PrePrepare", "Prepare", "Commit", "Heartbeat", "BatchFetch",
                     "BatchFetchReply"), "prime.order"),
    **dict.fromkeys(("Suspect", "VcState", "NewView"), "prime.view_change"),
    **dict.fromkeys(("ClientUpdate", "IntroShare", "BatchProposal", "BatchShare"),
                    "core.intro"),
    **dict.fromkeys(("ResponseShare", "ResponseBatchShare", "ClientResponse",
                     "CertifiedResponse"), "core.replica.respond"),
    **dict.fromkeys(("CheckpointMsg", "CheckpointDeltaMsg"), "core.checkpoint"),
    **dict.fromkeys(("StateXferSolicit", "StateXferResponse"), "core.state_transfer"),
}

#: Kernel-callback rules: (owner class, method name or None for any
#: method, layer, workloads on which the rule must fire). The first rule
#: matching the callback's owner (by isinstance) and name wins. Layer
#: ``None`` on a replica's ``_process_message`` means "by message type".
#: ``load`` is the benchmark's own load generator, not the system.
CALLBACK_RULES: Tuple[Tuple[str, Optional[str], Optional[str], frozenset], ...] = (
    ("repro.core.replica.ReplicaBase", "_process_message", None, SIM),
    ("repro.core.replica.ReplicaBase", "_compaction_tick", "store", RECOVER),
    ("repro.core.replica.ExecutingReplica", "_share_response",
     "core.replica.execute", SINGLETON),
    ("repro.core.replica.ExecutingReplica", "_share_response_batch",
     "core.replica.execute", BATCHED),
    ("repro.core.replica.ExecutingReplica", "_combine_response",
     "core.replica.respond", SINGLETON),
    ("repro.core.replica.ExecutingReplica", "_combine_response_batch",
     "core.replica.respond", BATCHED),
    ("repro.core.replica.ReplicaBase", "network_send", "core.intro", frozenset()),
    ("repro.prime.preorder.PreOrder", None, "prime.preorder", SIM),
    ("repro.prime.order.GlobalOrder", None, "prime.order", SIM),
    ("repro.prime.view_change.ViewChange", None, "prime.view_change", RECOVER),
    ("repro.core.intro.IntroductionManager", None, "core.intro", SIM),
    ("repro.core.checkpoint.CheckpointManager", None, "core.checkpoint", SIM),
    ("repro.core.state_transfer.StateTransferManager", None, "core.state_transfer",
     RECOVER),
    ("repro.system.recovery.RecoveryOrchestrator", None, "core.state_transfer", RECOVER),
    ("repro.core.proxy.ClientProxy", None, "core.proxy", SIM),
    ("repro.net.network.Network", None, "net.network", SIM),
    ("repro.net.attacks.AttackController", None, "net.network", RECOVER),
    ("repro.sim.process.Process", None, "load", SIM),
)

_CODEC = "net.codec:"
_UNMATCHED = object()
_now_ns = time.perf_counter_ns


class LayerClock:
    """Nested wall-time spans, charged as self time per entry.

    Each entry owns a ``[calls, total_ns, self_ns]`` list that its wrapper
    holds directly, so a call costs two clock reads and a few additions.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, list] = {}                     # entry -> [calls, total, self]
        self.layer_of: Dict[str, str] = {}                   # entry -> layer
        #: Calls of a codec entry made directly from another codec entry.
        self.nested_codec_calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self._codec_entry: Dict[int, str] = {}               # id(stat) -> codec entry
        self._stack: List[list] = [[0, None]]                # [child_ns, stat]; root sentinel

    def stat(self, entry: str, layer: str) -> list:
        self.layer_of[entry] = layer
        stat = self.stats.setdefault(entry, [0, 0, 0])
        if entry.startswith(_CODEC):
            self._codec_entry[id(stat)] = entry
        return stat

    def reset(self) -> None:
        """Forget everything measured so far (set-up work)."""
        for stat in self.stats.values():
            stat[:] = [0, 0, 0]
        self.nested_codec_calls.clear()

    def call(self, stat: list, fn: Callable, args, kwargs):
        frame = [0, stat]
        stack = self._stack
        stack.append(frame)
        start = _now_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            spent = _now_ns() - start
            stack.pop()
            stat[0] += 1
            stat[1] += spent
            stat[2] += spent - frame[0]
            stack[-1][0] += spent

    def call_codec(self, stat: list, fn: Callable, args, kwargs):
        parent = self._codec_entry.get(id(self._stack[-1][1]))
        if parent is not None:
            self.nested_codec_calls[(parent, self._codec_entry[id(stat)])] += 1
        return self.call(stat, fn, args, kwargs)

    @property
    def calls(self) -> Dict[str, int]:
        return {entry: stat[0] for entry, stat in self.stats.items()}

    @property
    def total_ns(self) -> Dict[str, int]:
        return {entry: stat[1] for entry, stat in self.stats.items()}

    @property
    def self_ns(self) -> Dict[str, int]:
        return {entry: stat[2] for entry, stat in self.stats.items()}

    def layer_self_ns(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for entry, stat in self.stats.items():
            out[self.layer_of[entry]] += stat[2]
        return out


def _resolve(dotted: str):
    module, _, name = dotted.rpartition(".")
    return getattr(importlib.import_module(module), name)


class Instrumentation:
    """Installs the wrappers for one traced run (one process)."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.clock = LayerClock()
        self._rules: List[Tuple[type, Optional[str], Optional[str], str]] = []
        self._rule_hits: Dict[str, int] = defaultdict(int)
        self._matches: Dict[Tuple[type, str], object] = {}
        self._callback_stats: Dict[str, list] = {}   # layer -> stat
        self._message_stats: Dict[str, list] = {}    # message type -> stat

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point and, for sim workloads, the kernel's
        callback scheduling."""
        # Import every target first, so the by-name sweep below sees every
        # module that imported a wrapped function.
        for module_name, _path, _layer, _must in ENTRY_POINTS:
            importlib.import_module(module_name)
        for module_name, path, layer, _must in ENTRY_POINTS:
            self._wrap_entry(module_name, path, layer)
        if self.workload in SIM:
            self._wrap_kernel_scheduling()

    def _wrap_entry(self, module_name: str, path: str, layer: str) -> None:
        module = importlib.import_module(module_name)
        entry = f"{layer}:{path}"
        stat = self.clock.stat(entry, layer)
        call = self.clock.call_codec if layer == "net.codec" else self.clock.call
        if "." in path:
            cls_name, method = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]

            def method_wrapper(*args, _fn=original, **kwargs):
                return call(stat, _fn, args, kwargs)

            method_wrapper.__name__ = method
            setattr(cls, method, method_wrapper)
            return
        original = getattr(module, path)

        def function_wrapper(*args, _fn=original, **kwargs):
            return call(stat, _fn, args, kwargs)

        function_wrapper.__name__ = original.__name__
        # Replace the function wherever it was imported by name.
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace or not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    namespace[name] = function_wrapper

    def _wrap_kernel_scheduling(self) -> None:
        from repro.sim.kernel import Kernel

        for owner, method, layer, _must in CALLBACK_RULES:
            self._rules.append((_resolve(owner), method, layer, f"{owner}.{method or '*'}"))
        for layer in set(MESSAGE_LAYER.values()) | {
            rule[2] for rule in self._rules if rule[2] is not None
        }:
            self._callback_stats[layer] = self.clock.stat(f"{layer}:callback", layer)
        self._message_stats = {
            name: self._callback_stats[layer] for name, layer in MESSAGE_LAYER.items()
        }
        original_call_at = Kernel.call_at
        original_call_repeating = Kernel.call_repeating
        classify = self._classify
        call = self.clock.call
        no_kwargs: Dict = {}

        def tag(callback, args):
            stat = classify(callback, args)
            if stat is None:
                return callback
            return lambda *a: call(stat, callback, a, no_kwargs)

        def call_at(kernel, when, callback, *args):
            return original_call_at(kernel, when, tag(callback, args), *args)

        def call_repeating(kernel, interval, callback, *args):
            return original_call_repeating(kernel, interval, tag(callback, args), *args)

        Kernel.call_at = call_at
        Kernel.call_repeating = call_repeating

    def _classify(self, callback, args) -> Optional[list]:
        """The stat list of the layer owning ``callback``, or None."""
        owner = getattr(callback, "__self__", None)
        if owner is None:
            return None
        key = (type(owner), callback.__name__)
        match = self._matches.get(key, _UNMATCHED)
        if match is _UNMATCHED:
            match = self._matches[key] = self._match(owner, key[1])
        if match is None:
            return None
        stat, rule_id = match
        self._rule_hits[rule_id] += 1
        if stat is None:  # message processing: by message type
            return self._message_stats.get(type(args[1]).__name__)
        return stat

    def _match(self, owner, name: str):
        for cls, method, layer, rule_id in self._rules:
            if (method is None or method == name) and isinstance(owner, cls):
                return (None if layer is None else self._callback_stats[layer]), rule_id
        return None

    # -- results ---------------------------------------------------------------

    def self_check(self) -> List[str]:
        """Entry points and callback rules that never fired on this
        workload although they are meant to."""
        missing = []
        for _module, path, layer, must in ENTRY_POINTS:
            if self.workload in must and not self.clock.calls.get(f"{layer}:{path}"):
                missing.append(f"entry point {path} ({layer})")
        for owner, method, _layer, must in CALLBACK_RULES:
            rule_id = f"{owner}.{method or '*'}"
            if self.workload in must and not self._rule_hits.get(rule_id):
                missing.append(f"callback rule {rule_id}")
        return missing


# -- per-layer metrics -------------------------------------------------------------

#: Every per-layer metric: (name, unit, better). Metrics of a layer a
#: workload does not exercise read 0 on that workload.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sim.kernel.events_per_update", "count", "lower"),
    ("sim.kernel.self_us_per_update", "us", "lower"),
    ("net.network.self_us_per_msg", "us", "lower"),
    ("net.network.dropped_per_update", "count", "lower"),
    ("core.proxy.self_us_per_update", "us", "lower"),
    ("core.proxy.retransmits_per_update", "count", "lower"),
    ("core.intro.msgs_per_update", "count", "lower"),
    ("core.intro.kb_per_update", "KiB", "lower"),
    ("core.intro.self_us_per_update", "us", "lower"),
    ("core.intro.phase_p50_ms", "ms", "lower"),
    ("core.intro.updates_per_signature", "count", "higher"),
    ("core.intro.shares_per_signature", "count", "lower"),
    ("prime.preorder.msgs_per_update", "count", "lower"),
    ("prime.preorder.kb_per_update", "KiB", "lower"),
    ("prime.preorder.self_us_per_update", "us", "lower"),
    ("prime.order.msgs_per_update", "count", "lower"),
    ("prime.order.kb_per_update", "KiB", "lower"),
    ("prime.order.self_us_per_update", "us", "lower"),
    ("prime.order.phase_p50_ms", "ms", "lower"),
    ("prime.order.updates_per_preprepare", "count", "higher"),
    ("prime.view_change.view_changes", "count", "lower"),
    ("prime.view_change.self_us_total", "us", "lower"),
    ("core.replica.execute.self_us_per_update", "us", "lower"),
    ("core.replica.execute.phase_p50_ms", "ms", "lower"),
    ("core.replica.respond.msgs_per_update", "count", "lower"),
    ("core.replica.respond.self_us_per_update", "us", "lower"),
    ("core.replica.respond.phase_p50_ms", "ms", "lower"),
    ("core.checkpoint.msgs_per_update", "count", "lower"),
    ("core.checkpoint.kb_per_update", "KiB", "lower"),
    ("core.checkpoint.self_us_per_update", "us", "lower"),
    ("core.state_transfer.xfer_kb", "KiB", "lower"),
    ("core.state_transfer.catchup_s", "s", "lower"),
    ("core.state_transfer.self_us_total", "us", "lower"),
    ("system.outage_s", "s", "lower"),
    ("store.append_us_per_update", "us", "lower"),
    ("store.self_us_per_update", "us", "lower"),
    ("store.fsyncs_per_update", "count", "lower"),
    ("store.compaction_reclaimed_frac", "ratio", "higher"),
    ("store.recover_ms", "ms", "lower"),
    ("crypto.threshold_us_per_update", "us", "lower"),
    ("crypto.aes_us_per_update", "us", "lower"),
    ("crypto.rsa_us_per_update", "us", "lower"),
    ("crypto.verify_cache_hit_frac", "ratio", "higher"),
    ("net.codec.encode_us_per_frame", "us", "lower"),
    ("net.codec.decode_us_per_frame", "us", "lower"),
    ("net.codec.bytes_per_frame", "B", "lower"),
    ("net.codec.payload_cache_hit_frac", "ratio", "higher"),
    ("rt.wire.frame_us_per_frame", "us", "lower"),
    ("obs.metrics_overhead_frac", "ratio", "lower"),
    ("obs.tracer_overhead_frac", "ratio", "lower"),
    ("perfbench.trace_overhead_frac", "ratio", "lower"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _counter_sum(counters, name: str, **labels) -> float:
    wanted = set(labels.items())
    return sum(
        value for (cname, key), value in counters.items()
        if cname == name and wanted <= set(key)
    )


def codec_metrics(clock: LayerClock, encodes: int, decodes: int,
                  frame_bytes: int) -> Dict[str, float]:
    """net.codec figures: encode and decode self time per frame encoded
    and decoded, bytes per frame encoded, and payload-cache hits."""
    self_ns = clock.self_ns
    encode_ns = sum(ns for e, ns in self_ns.items() if e.startswith(_CODEC + "encode"))
    decode_ns = sum(ns for e, ns in self_ns.items() if e.startswith(_CODEC + "decode"))
    cached_entry = _CODEC + "encode_message_cached"
    cached_calls = clock.calls.get(cached_entry, 0)
    misses = clock.nested_codec_calls.get((cached_entry, _CODEC + "encode_message"), 0)
    return {
        "net.codec.encode_us_per_frame": _ratio(encode_ns / 1e3, encodes),
        "net.codec.decode_us_per_frame": _ratio(decode_ns / 1e3, decodes),
        "net.codec.bytes_per_frame": _ratio(frame_bytes, encodes),
        "net.codec.payload_cache_hit_frac": _ratio(cached_calls - misses, cached_calls),
    }


def outermost_codec_calls(clock: LayerClock, kind: str) -> int:
    """Codec calls of ``kind`` ("encode" or "decode") not made from inside
    another codec call."""
    prefix = _CODEC + kind
    calls = sum(n for entry, n in clock.calls.items() if entry.startswith(prefix))
    nested = sum(n for (_parent, child), n in clock.nested_codec_calls.items()
                 if child.startswith(prefix))
    return calls - nested


def sim_layer_metrics(clock: LayerClock, deployment, completed: int) -> Dict[str, float]:
    """Per-layer figures of one traced sim run (metrics registry on)."""
    layer_us = {layer: ns / 1e3 for layer, ns in clock.layer_self_ns().items()}
    counters = deployment.metrics.counter_values()
    network = deployment.network
    per_update = lambda value: _ratio(value, completed)  # noqa: E731

    msgs: Dict[str, float] = defaultdict(float)
    kib: Dict[str, float] = defaultdict(float)
    for (name, key), value in counters.items():
        layer = MESSAGE_LAYER.get(dict(key).get("type"))
        if layer is None:
            continue
        if name == "net.send":
            msgs[layer] += value
        elif name == "net.send_bytes":
            kib[layer] += value / 1024.0

    out: Dict[str, float] = {name: 0.0 for name, _unit, _better in PER_LAYER}
    out["sim.kernel.events_per_update"] = per_update(deployment.kernel.events_processed)
    for layer in ("sim.kernel", "core.proxy", "core.intro", "prime.preorder", "prime.order",
                  "core.replica.execute", "core.replica.respond", "core.checkpoint",
                  "store"):
        out[f"{layer}.self_us_per_update"] = per_update(layer_us.get(layer, 0.0))
    for layer in ("core.intro", "prime.preorder", "prime.order", "core.replica.respond",
                  "core.checkpoint"):
        out[f"{layer}.msgs_per_update"] = per_update(msgs[layer])
        if f"{layer}.kb_per_update" in out:
            out[f"{layer}.kb_per_update"] = per_update(kib[layer])
    out["net.network.self_us_per_msg"] = _ratio(layer_us.get("net.network", 0.0),
                                                network.messages_sent)
    out["net.network.dropped_per_update"] = per_update(network.messages_dropped)
    out["core.proxy.retransmits_per_update"] = per_update(
        sum(p.retransmissions for p in deployment.proxies.values())
    )
    intro_combines = _counter_sum(counters, "crypto.threshold.combine", op="intro")
    out["core.intro.updates_per_signature"] = _ratio(completed, intro_combines)
    out["core.intro.shares_per_signature"] = _ratio(
        _counter_sum(counters, "crypto.threshold.partial", op="intro"), intro_combines
    )
    out["prime.order.updates_per_preprepare"] = _ratio(
        _counter_sum(counters, "prime.order.updates_ordered"),
        _counter_sum(counters, "prime.order.batches_executed"),
    )
    out["prime.view_change.view_changes"] = float(
        max(r.engine.view for r in deployment.replicas.values())
    )
    out["prime.view_change.self_us_total"] = layer_us.get("prime.view_change", 0.0)
    out["core.state_transfer.xfer_kb"] = _counter_sum(counters, "xfer.bytes_served") / 1024.0
    out["core.state_transfer.self_us_total"] = layer_us.get("core.state_transfer", 0.0)
    append_ns = sum(ns for e, ns in clock.self_ns.items()
                    if e.startswith("store:") and e.endswith("Store.append"))
    out["store.append_us_per_update"] = per_update(append_ns / 1e3)
    out["store.fsyncs_per_update"] = per_update(_counter_sum(counters, "store.fsyncs"))
    out["store.compaction_reclaimed_frac"] = _ratio(
        _counter_sum(counters, "store.compaction_bytes_reclaimed"),
        _counter_sum(counters, "store.append_bytes"),
    )
    out["store.recover_ms"] = clock.total_ns.get(
        "store:ReplicaBase.recover_from_store", 0) / 1e6
    out["crypto.threshold_us_per_update"] = per_update(layer_us.get("crypto.threshold", 0.0))
    out["crypto.aes_us_per_update"] = per_update(layer_us.get("crypto.aes", 0.0))
    out["crypto.rsa_us_per_update"] = per_update(layer_us.get("crypto.rsa", 0.0))
    out["crypto.verify_cache_hit_frac"] = _ratio(
        _counter_sum(counters, "crypto.verify_cache_hit"),
        _counter_sum(counters, "crypto.verify_cache_hit")
        + _counter_sum(counters, "crypto.verify_cache_miss"),
    )
    # On the sim the codec only runs for durable-store records: a "frame"
    # there is one outermost codec call, and its bytes an appended record's.
    out.update(codec_metrics(clock, outermost_codec_calls(clock, "encode"),
                             outermost_codec_calls(clock, "decode"), 0))
    out["net.codec.bytes_per_frame"] = _ratio(_counter_sum(counters, "store.append_bytes"),
                                              clock.calls.get("store:FileStore.append", 0))
    return out


#: Span phase -> the layer whose phase_p50_ms it is.
PHASE_METRIC = {
    "intro": "core.intro.phase_p50_ms",
    "order": "prime.order.phase_p50_ms",
    "execute": "core.replica.execute.phase_p50_ms",
    "respond": "core.replica.respond.phase_p50_ms",
}


def span_metrics(deployment) -> Dict[str, float]:
    """Phase medians and state-transfer catch-up from a tracer-on run."""
    from workloads import percentile

    durations: Dict[str, List[float]] = defaultdict(list)
    for span in deployment.spans.completed():
        for phase, seconds in span.phase_durations().items():
            durations[phase].append(seconds)
    out = {
        metric: percentile(sorted(durations[phase]), 50) * 1000.0
        for phase, metric in PHASE_METRIC.items()
    }
    started: Dict[str, float] = {}
    catchup = 0.0
    for event in deployment.tracer.events:
        if event.category == "xfer.initiate":
            started.setdefault(event.host, event.time)
        elif event.category == "xfer.complete" and event.host in started:
            catchup = max(catchup, event.time - started.pop(event.host))
    out["core.state_transfer.catchup_s"] = catchup
    return out
