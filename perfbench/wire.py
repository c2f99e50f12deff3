"""wire-replay: the live path's codec/transport CPU, measured in process.

Set-up records every ``(src, dst, message)`` the sim sends during a short
``scada-steady`` run of the given seed. The timed phase then does what a
live node's :class:`~repro.rt.transport.LiveTransport` does with its
defaults (``trace_wire`` on):

* one frame per (payload object, source), built by ``rt.wire.encode_frame``
  and reused across a multicast through an identity-keyed ``FrameCache``;
* a trace context (span id + HLC stamp) attached to every send with
  ``rt.wire.extend_frame``;
* each directed link's byte stream decoded by ``rt.wire.FrameDecoder`` in
  64 KiB reads, the read size the live transport uses.

Every decoded frame must equal the message sent; a decoder error other
than ``ProtocolError`` propagates and fails the run. The sim never calls
the codec for protocol traffic, so this is the only in-process measure of
the per-message cost the live runtime pays on top of the protocol.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Tuple

from speed import SpeedClock
from workloads import (
    DRAIN_S,
    SLICE_S,
    base_config,
    check,
    check_confidential,
    client_streams,
    fingerprint,
    percentile,
    seed_inputs,
)

#: Offered-load window of the recording run (virtual seconds): ~70
#: updates, ~140 ordinals, so every recording holds one checkpoint round.
RECORD_WINDOW_S = 7.0
#: Bytes per decoder read: ``LiveTransport`` reads its sockets 64 KiB at a time.
READ_BYTES = 65536
#: Frames per timed slice of a replay pass.
CHUNK_FRAMES = 4096

Send = Tuple[str, str, object]


def record(seed: int) -> Tuple[List[Send], Dict]:
    """Run scada-steady briefly and capture every send, in order.

    Returns the sends and the recording run's outcome summary; the
    recording (build, start and run) is the set-up, timed like every other
    set-up (``setup_s`` normalized, ``setup_wall_s`` raw).
    """
    from repro.system import build

    clock = SpeedClock()
    config = base_config(update_interval=1.0)

    def build_and_start():
        deployment = build(config)
        deployment.start()
        return deployment

    deployment = clock.time(build_and_start)
    try:
        sends: List[Send] = []
        network = deployment.network
        original_send = network.send

        def recording_send(src, dst, payload, size=None):
            sends.append((src, dst, payload))
            return original_send(src, dst, payload, size)

        # Instance attribute: Network.multicast and every replica reach
        # the network through ``self.send`` / ``network.send``.
        network.send = recording_send
        seed_inputs(deployment, seed, client_streams(deployment))
        start_at = 0.5
        deployment.start_workload(duration=RECORD_WINDOW_S, interval=1.0, start_at=start_at)
        now, until = 0.0, start_at + RECORD_WINDOW_S + DRAIN_S
        while now < until:
            now = min(until, now + SLICE_S)
            clock.time(deployment.run, now)
        check_confidential(deployment)
        digest, latencies = fingerprint(deployment)
        check(len(sends) == network.messages_sent, "recorder missed sends")
        summary = {
            "setup_s": [clock.norm_s],
            "setup_wall_s": [clock.wall_s],
            "completed": len(latencies),
            "msgs": network.messages_sent,
            "bytes": network.bytes_sent,
            "events": deployment.kernel.events_processed,
            "fingerprint": digest,
        }
        return sends, summary
    finally:
        deployment.shutdown()


class FrameEncoder:
    """The send side of ``LiveTransport`` with its default settings."""

    def __init__(self, stamp: bool = True) -> None:
        from repro.cache import FrameCache
        from repro.obs.hlc import HybridLogicalClock

        self._cache = FrameCache(1024)
        self._hlc = HybridLogicalClock(time.monotonic)
        self._span_ids: Dict[str, int] = {}
        self._stamp = stamp

    def frame(self, src: str, payload) -> bytes:
        from repro.rt import wire

        frame = self._cache.get_or_build(
            payload, lambda message: wire.encode_frame(src, message), extra=src
        )
        if not self._stamp:
            return frame
        alias = getattr(payload, "alias", None)
        seq = getattr(payload, "client_seq", None)
        trace_id = wire.span_trace_id(alias, seq) if alias is not None and seq is not None else 0
        span = self._span_ids.get(src)
        if span is None:
            span = self._span_ids[src] = wire.host_span_id(src)
        now = self._hlc.tick()
        context = wire.TraceContext(trace_id, span, now.physical, now.logical)
        return wire.extend_frame(frame, context)


def replay_pass(sends: List[Send], stamp: bool = True) -> Dict:
    """Frame every send, then decode every link's stream; check and time.

    Both phases run in timed slices of about ``CHUNK_FRAMES`` frames.
    Returns raw and normalized seconds for the pass, per-frame normalized
    round-trip latencies (ns) and the count of frames that failed.
    """
    from repro.errors import ProtocolError
    from repro.net import codec
    from repro.rt.wire import FrameDecoder

    codec.clear_payload_cache()  # each pass pays its own first encodes
    encoder = FrameEncoder(stamp)
    ns = time.perf_counter_ns
    clock = SpeedClock()
    frames: List[bytes] = []
    latency_ns = [0.0] * len(sends)
    links: Dict[Tuple[str, str], List[int]] = {}
    for index, (src, dst, _payload) in enumerate(sends):
        links.setdefault((src, dst), []).append(index)

    def encode_chunk(first: int) -> None:
        for index in range(first, min(first + CHUNK_FRAMES, len(sends))):
            src, _dst, payload = sends[index]
            t0 = ns()
            frames.append(encoder.frame(src, payload))
            latency_ns[index] = ns() - t0

    for first in range(0, len(sends), CHUNK_FRAMES):
        clock.time(encode_chunk, first)
        for index in range(first, min(first + CHUNK_FRAMES, len(sends))):
            latency_ns[index] *= clock.last_scale

    def decode_links(group) -> int:
        failed = 0
        for (src, _dst), indices in group:
            stream = b"".join(frames[i] for i in indices)
            decoder = FrameDecoder(include_context=True)
            decoded: List[tuple] = []
            for offset in range(0, len(stream), READ_BYTES):
                t0 = ns()
                try:
                    got = decoder.feed(stream[offset:offset + READ_BYTES])
                except ProtocolError:
                    break  # the rest of this link counts as failed below
                share = (ns() - t0) * clock.last_scale / max(1, len(got))
                # A read's decode time is shared by the frames it completed.
                for i in indices[len(decoded):len(decoded) + len(got)]:
                    latency_ns[i] += share
                decoded.extend(got)
            for i, (got_src, message, context) in zip(indices, decoded):
                if got_src != src or message != sends[i][2] or (context is None) == stamp:
                    failed += 1
            failed += len(indices) - len(decoded)
        return failed

    failed = 0
    group: List = []
    grouped = 0
    for item in links.items():
        group.append(item)
        grouped += len(item[1])
        if grouped >= CHUNK_FRAMES:
            failed += clock.time(decode_links, group)
            group, grouped = [], 0
    if group:
        failed += clock.time(decode_links, group)
    return {
        "wall_s": clock.wall_s,
        "norm_s": clock.norm_s,
        "frame_bytes": sum(len(f) for f in frames),
        "latency_ns": latency_ns,
        "failed": failed,
    }


def run_wire_replay(seed: int, seconds: float) -> Dict:
    """Record, then replay for about ``seconds`` of wall time (at least
    two passes); per-pass figures are reported as medians."""
    sends, summary = record(seed)
    passes = []
    started = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - started < seconds:
        passes.append(replay_pass(sends))
    frames = len(sends)
    failed = sum(p["failed"] for p in passes)
    check(failed == 0, f"{failed} frames did not round-trip unchanged")

    def per_pass_median(fn):
        return statistics.median(fn(p) for p in passes)

    def latency_ms(q):
        return per_pass_median(lambda p: percentile(sorted(p["latency_ns"]), q)) / 1e6

    result = dict(summary)
    result.update(
        attempted=frames * len(passes),
        failed=failed,
        frames=frames,
        passes=len(passes),
        run_wall_s=per_pass_median(lambda p: p["wall_s"]),
        run_norm_s=per_pass_median(lambda p: p["norm_s"]),
        latency_samples=frames,
        latency_p50_ms=latency_ms(50),
        latency_p95_ms=latency_ms(95),
    )
    return result
