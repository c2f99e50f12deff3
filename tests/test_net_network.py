"""Tests for the message transport (latency, queueing, drops, attacks)."""

import pytest

from repro.errors import ConfigurationError
from repro.net import AttackController, AttackEvent, Network, Overlay, east_coast_topology
from repro.net.network import DEFAULT_WAN_BANDWIDTH
from repro.net.topology import CLIENT_SITE, CONTROL_CENTER_A, CONTROL_CENTER_B, DATA_CENTER_1
from repro.obs.registry import MetricsRegistry
from repro.sim import Kernel, RngRegistry, Tracer


@pytest.fixture
def world():
    kernel = Kernel()
    topo = east_coast_topology(2)
    topo.add_host("a1", CONTROL_CENTER_A)
    topo.add_host("a2", CONTROL_CENTER_A)
    topo.add_host("b1", CONTROL_CENTER_B)
    topo.add_host("c1", CLIENT_SITE)
    overlay = Overlay(topo)
    tracer = Tracer(kernel)
    network = Network(kernel, topo, overlay, RngRegistry(1), tracer=tracer)
    return kernel, topo, overlay, network, tracer


def collect(network, host):
    inbox = []
    network.register(host, lambda src, payload: inbox.append((src, payload)))
    return inbox


def test_delivery_with_wan_latency(world):
    kernel, _topo, _overlay, network, _tracer = world
    inbox = collect(network, "b1")
    network.register("a1", lambda *a: None)
    network.send("a1", "b1", "hello")
    kernel.run()
    assert inbox == [("a1", "hello")]
    # One-way cc-a -> cc-b is 8.5 ms plus jitter and serialization.
    assert 0.0085 <= kernel.now <= 0.0100


def test_lan_delivery_is_fast(world):
    kernel, _t, _o, network, _tr = world
    inbox = collect(network, "a2")
    network.register("a1", lambda *a: None)
    network.send("a1", "a2", "hi")
    kernel.run()
    assert inbox
    assert kernel.now < 0.001


def test_unregistered_host_rejected(world):
    _k, _t, _o, network, _tr = world
    with pytest.raises(ConfigurationError):
        network.register("ghost", lambda *a: None)


def test_multicast_excludes_sender(world):
    kernel, _t, _o, network, _tr = world
    a1 = collect(network, "a1")
    a2 = collect(network, "a2")
    b1 = collect(network, "b1")
    network.multicast("a1", ["a1", "a2", "b1"], "fanout")
    kernel.run()
    assert a1 == []
    assert len(a2) == 1 and len(b1) == 1


def test_drop_when_destination_down(world):
    kernel, _t, _o, network, _tr = world
    inbox = collect(network, "b1")
    network.register("a1", lambda *a: None)
    network.set_host_down("b1", True)
    network.send("a1", "b1", "lost")
    kernel.run()
    assert inbox == []
    assert network.messages_dropped == 1


def test_drop_when_site_isolated(world):
    kernel, _t, overlay, network, tracer = world
    inbox = collect(network, "b1")
    network.register("a1", lambda *a: None)
    overlay.isolate_site(CONTROL_CENTER_B)
    assert network.send("a1", "b1", "lost") is False
    kernel.run()
    assert inbox == []
    assert any(e.detail.get("reason") == "no-route" for e in tracer.select("net.drop"))


def test_lan_still_works_inside_isolated_site(world):
    kernel, _t, overlay, network, _tr = world
    inbox = collect(network, "a2")
    network.register("a1", lambda *a: None)
    overlay.isolate_site(CONTROL_CENTER_A)
    network.send("a1", "a2", "local")
    kernel.run()
    assert inbox == [("a1", "local")]


def test_in_flight_message_killed_by_partition(world):
    kernel, _t, overlay, network, _tr = world
    inbox = collect(network, "b1")
    network.register("a1", lambda *a: None)
    network.send("a1", "b1", "doomed")
    kernel.call_later(0.001, overlay.isolate_site, CONTROL_CENTER_B)
    kernel.run()
    assert inbox == []


def test_serialization_delay_queues_large_messages(world):
    kernel, _t, _o, network, _tr = world
    inbox = collect(network, "b1")
    network.register("a1", lambda *a: None)
    # 10 MB at 100 Mbit/s = 0.8 s of serialization on the pipe.
    network.send("a1", "b1", "big", size=10_000_000)
    network.send("a1", "b1", "queued", size=100)
    kernel.run()
    assert [p for _s, p in inbox] == ["big", "queued"]
    assert kernel.now > 0.8


def test_payload_wire_size_used(world):
    kernel, _t, _o, network, _tr = world

    class Sized:
        def wire_size(self):
            return 2_500_000

    collect(network, "b1")
    network.register("a1", lambda *a: None)
    network.send("a1", "b1", Sized())
    kernel.run()
    assert network.bytes_sent == 2_500_000


def test_counters(world):
    kernel, _t, _o, network, _tr = world
    collect(network, "b1")
    network.register("a1", lambda *a: None)
    network.send("a1", "b1", "one")
    kernel.run()
    assert network.messages_sent == 1
    assert network.messages_delivered == 1


def test_isolated_site_drop_is_silent_for_protocol_code(world):
    # BFT protocol code ignores send()'s return value; the drop must not
    # raise, must not deliver later, and must be visible only via counters
    # and the trace.
    kernel, _t, overlay, network, tracer = world
    inbox = collect(network, "b1")
    network.register("a1", lambda *a: None)
    overlay.isolate_site(CONTROL_CENTER_B)
    before = network.messages_dropped
    for _ in range(3):
        network.send("a1", "b1", "swallowed")
    kernel.run(until=1.0)
    assert inbox == []
    assert network.messages_dropped == before + 3
    assert network.messages_delivered == 0
    drops = [e for e in tracer.select("net.drop") if e.detail["reason"] == "no-route"]
    assert len(drops) == 3


def test_reconnect_does_not_resurrect_dropped_messages(world):
    # A message dropped for no-route is gone for good: reconnecting the
    # site must not deliver it retroactively (retransmission is the
    # protocols' job, not the transport's).
    kernel, _t, overlay, network, _tr = world
    inbox = collect(network, "b1")
    network.register("a1", lambda *a: None)
    overlay.isolate_site(CONTROL_CENTER_B)
    network.send("a1", "b1", "lost-forever")
    overlay.reconnect_site(CONTROL_CENTER_B)
    network.send("a1", "b1", "after-reconnect")
    kernel.run()
    assert [p for _s, p in inbox] == ["after-reconnect"]


def test_per_pipe_fifo_order_under_congestion(world):
    # Many same-size messages racing down one directed site pair must
    # arrive in send order: the pipe serializes them FIFO and jitter is
    # bounded below the serialization spacing.
    kernel, _t, _o, network, _tr = world
    inbox = collect(network, "b1")
    network.register("a1", lambda *a: None)
    for index in range(20):
        network.send("a1", "b1", index, size=200_000)  # 16 ms each at 100 Mbit/s
    kernel.run()
    assert [p for _s, p in inbox] == list(range(20))


def test_congestion_delays_scale_with_queue_depth(world):
    kernel, _t, _o, network, _tr = world
    arrivals = []
    network.register("b1", lambda src, p: arrivals.append(kernel.now))
    network.register("a1", lambda *a: None)
    for _ in range(5):
        network.send("a1", "b1", "chunk", size=1_250_000)  # 0.1 s serialization
    kernel.run()
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    # Each message waits for the pipe: spacing ~ its serialization time,
    # modulo per-message jitter on the propagation delay.
    for gap in gaps:
        assert 0.09 <= gap <= 0.11


def test_jitter_stays_within_configured_bound(world):
    kernel, _t, _o, network, _tr = world
    arrivals = []
    network.register("b1", lambda src, p: arrivals.append(kernel.now))
    network.register("a1", lambda *a: None)
    base_latency = 0.0085  # one-way cc-a -> cc-b on the east-coast topology
    sent_at = []
    for i in range(50):
        sent_at.append(kernel.now)
        network.send("a1", "b1", i, size=100)
        kernel.run(until=kernel.now + 0.05)  # drain before the next send
    assert len(arrivals) == 50
    tx = 100 / (100e6 / 8)
    for sent, arrived in zip(sent_at, arrivals):
        flight = arrived - sent - tx
        assert base_latency <= flight <= base_latency * 1.05 + 1e-12


def test_wan_loss_window_drops_then_restores(world):
    kernel, _t, _o, network, tracer = world
    inbox = collect(network, "b1")
    network.register("a1", lambda *a: None)
    network.set_wan_loss(1.0)
    network.send("a1", "b1", "doomed")
    network.set_wan_loss(0.0)
    network.send("a1", "b1", "survives")
    kernel.run()
    assert [p for _s, p in inbox] == ["survives"]
    assert any(e.detail["reason"] == "loss" for e in tracer.select("net.drop"))
    windows = [e.detail["probability"] for e in tracer.select("net.loss-window")]
    assert windows == [1.0, 0.0]


def test_delivery_skew_delays_arrivals_into_site(world):
    kernel, _t, _o, network, _tr = world
    inbox = collect(network, "b1")
    network.register("a1", lambda *a: None)
    network.set_delivery_skew(CONTROL_CENTER_B, 0.5)
    network.send("a1", "b1", "late")
    kernel.run()
    assert inbox == [("a1", "late")]
    assert kernel.now >= 0.5 + 0.0085


def test_delivery_skew_clear_and_negative_rejected(world):
    _k, _t, _o, network, _tr = world
    network.set_delivery_skew(CONTROL_CENTER_B, 0.25)
    assert network.delivery_skew(CONTROL_CENTER_B) == 0.25
    network.clear_delivery_skew(CONTROL_CENTER_B)
    assert network.delivery_skew(CONTROL_CENTER_B) == 0.0
    with pytest.raises(ConfigurationError):
        network.set_delivery_skew(CONTROL_CENTER_B, -0.1)


def test_degraded_site_slows_but_does_not_sever(world):
    kernel, _t, _o, network, _tr = world
    inbox = collect(network, "b1")
    network.register("a1", lambda *a: None)
    network.degrade_site(CONTROL_CENTER_B, bandwidth_divisor=10.0,
                         added_latency=0.050, loss_probability=0.0)
    network.send("a1", "b1", "slow")
    kernel.run()
    assert inbox == [("a1", "slow")]
    assert kernel.now >= 0.0085 + 0.050
    network.restore_site(CONTROL_CENTER_B)
    assert not network.site_is_degraded(CONTROL_CENTER_B)


def test_route_changes_take_effect_on_a_warmed_up_network():
    """Per-message lookups (host sites, counter handles, cached routes)
    must never freeze a route: every isolate/reconnect, cut/restore and
    degrade/restore applies to the very next send or delivery."""
    kernel = Kernel()
    topo = east_coast_topology(2)
    topo.add_host("a1", CONTROL_CENTER_A)
    topo.add_host("b1", CONTROL_CENTER_B)
    topo.add_host("d1", DATA_CENTER_1)
    overlay = Overlay(topo)
    metrics = MetricsRegistry()
    network = Network(
        kernel, topo, overlay, RngRegistry(1), metrics=metrics, jitter_fraction=0.0
    )
    arrivals = []
    network.register("a1", lambda *a: None)
    network.register("b1", lambda src, payload: arrivals.append(payload))
    network.register("d1", lambda src, payload: arrivals.append(payload))
    size = 1000
    tx = size / DEFAULT_WAN_BANDWIDTH

    def flight(dst, payload):
        """One send from a1, run to quiescence: the one-way delay, or
        None if the message was not delivered."""
        sent_at = kernel.now
        network.send("a1", dst, payload, size=size)
        kernel.run()
        if arrivals and arrivals[-1] == payload:
            return kernel.now - sent_at
        return None

    # Warm up every path the test uses.
    assert flight("b1", "warm-b") == pytest.approx(0.0085 + tx)
    assert flight("d1", "warm-d") == pytest.approx(0.0040 + tx)

    overlay.isolate_site(CONTROL_CENTER_B)
    assert network.send("a1", "b1", "isolated", size=size) is False
    assert flight("d1", "other-site-unaffected") == pytest.approx(0.0040 + tx)
    overlay.reconnect_site(CONTROL_CENTER_B)
    assert flight("b1", "reconnected") == pytest.approx(0.0085 + tx)

    # Isolated while in flight: dropped on arrival, then reconnected.
    network.send("a1", "b1", "in-flight", size=size)
    kernel.call_later(0.001, overlay.isolate_site, CONTROL_CENTER_B)
    kernel.run()
    overlay.reconnect_site(CONTROL_CENTER_B)
    assert flight("b1", "after-partition") == pytest.approx(0.0085 + tx)

    # A cut link detours over dc-2 (6 + 2 ms), and restoring it undoes that.
    overlay.cut_link(CONTROL_CENTER_A, DATA_CENTER_1)
    assert flight("d1", "detoured") == pytest.approx(0.0080 + tx)
    overlay.restore_link(CONTROL_CENTER_A, DATA_CENTER_1)
    assert flight("d1", "restored-link") == pytest.approx(0.0040 + tx)

    network.degrade_site(DATA_CENTER_1, bandwidth_divisor=10.0,
                         added_latency=0.020, loss_probability=0.0)
    assert flight("d1", "degraded") == pytest.approx(0.0040 + 0.020 + 10 * tx)
    assert flight("b1", "undegraded-site") == pytest.approx(0.0085 + tx)
    network.restore_site(DATA_CENTER_1)
    assert flight("d1", "restored-site") == pytest.approx(0.0040 + tx)

    assert arrivals == [
        "warm-b", "warm-d", "other-site-unaffected", "reconnected",
        "after-partition", "detoured", "restored-link", "degraded",
        "undegraded-site", "restored-site",
    ]

    def count(name, **labels):
        return metrics.counter(name, type="str", **labels).value

    assert count("net.send") == 12
    assert count("net.send_bytes") == 12 * size
    assert count("net.recv") == 10
    assert count("net.recv_bytes") == 10 * size
    assert count("net.drop", reason="no-route") == 1
    assert count("net.drop", reason="partitioned") == 1
    assert network.messages_dropped == 2


class TestAttackController:
    def test_schedule_executes_timeline(self, world):
        kernel, _t, overlay, _n, tracer = world
        controller = AttackController(kernel, overlay, tracer=tracer)
        controller.install_schedule(
            [
                AttackEvent(1.0, "isolate", CONTROL_CENTER_A),
                AttackEvent(2.0, "reconnect", CONTROL_CENTER_A),
            ]
        )
        kernel.run(until=1.5)
        assert overlay.is_isolated(CONTROL_CENTER_A)
        kernel.run(until=2.5)
        assert not overlay.is_isolated(CONTROL_CENTER_A)
        assert len(controller.log) == 2

    def test_link_actions(self, world):
        kernel, _t, overlay, _n, _tr = world
        controller = AttackController(kernel, overlay)
        controller.install_schedule(
            [AttackEvent(1.0, "cut_link", f"{CONTROL_CENTER_A}|{CONTROL_CENTER_B}")]
        )
        kernel.run(until=1.5)
        assert overlay.route(CONTROL_CENTER_A, CONTROL_CENTER_B)[1] > 1

    def test_invalid_action_rejected(self):
        with pytest.raises(ValueError):
            AttackEvent(1.0, "nuke", "cc-a")
