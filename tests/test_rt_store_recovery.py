"""Live crash recovery from disk: SIGKILL a node, respawn, replay locally.

The slowest StoreLab test: a real f=1 fleet over localhost TCP runs a
workload with file-backed stores while a data-center replica is SIGKILLed
mid-run and respawned. The respawned process must recover its pre-crash
prefix from its own segment files (``store.recovered_bytes`` > 0) before
asking the network for the missing suffix, and the workload must still
complete.
"""

import asyncio
import json
import time

import pytest

from repro.rt.bootstrap import RtConfig
from repro.rt.launcher import Launcher

# The module fixture runs a live fleet through a crash and a respawn.
pytestmark = pytest.mark.slow

TARGET = "dc-1-r0"


async def _run(config: RtConfig, timeout: float):
    launcher = Launcher.with_epoch(config)
    try:
        await launcher.launch()
        started = time.time()
        # Let the workload put real records into the target's store first.
        await asyncio.sleep(4.0)
        launcher.crash(TARGET)
        await asyncio.sleep(1.0)
        await launcher.restart(TARGET)
        finished = await launcher.wait_for_workload(
            timeout - (time.time() - started)
        )
    finally:
        await launcher.shutdown()
    launcher.merge()
    return launcher, finished


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    out = tmp_path_factory.mktemp("rt-store")
    config = RtConfig(
        seed=7,
        num_clients=2,
        updates_per_client=60,
        update_interval=0.15,
        base_port=22600,
        out_dir=str(out),
    )
    launcher, finished = asyncio.run(_run(config, timeout=120.0))
    return out, launcher, finished


def _counters(out, host):
    raw = json.loads((out / "nodes" / host / "metrics_raw.json").read_text())
    return {
        (c["name"], tuple(tuple(l) for l in c["labels"])): c["value"]
        for c in raw["counters"]
    }


def _counter_total(out, host, name):
    return sum(v for (n, _labels), v in _counters(out, host).items() if n == name)


def test_workload_completes_through_the_crash(deployment):
    out, launcher, finished = deployment
    assert finished
    results = launcher.client_results()
    assert len(results) == 2
    for result in results.values():
        assert result["completed"] == result["updates"]


def test_respawned_node_recovered_from_its_own_disk(deployment):
    out, _launcher, _ = deployment
    assert _counter_total(out, TARGET, "store.recovered_bytes") > 0
    assert _counter_total(out, TARGET, "store.recovered_records") > 0


def test_recovery_trace_shows_disk_before_network(deployment):
    out, _launcher, _ = deployment
    events = [
        json.loads(line)
        for line in (out / "nodes" / TARGET / "trace.jsonl").read_text().splitlines()
        if line.strip()
    ]
    recovered = [e for e in events if e["category"] == "store.recovered"]
    assert recovered
    assert recovered[0]["detail"]["records"] > 0
    initiated = [e for e in events if e["category"] == "xfer.initiate"]
    # The disk-recovery solicit advertises what local replay restored.
    assert initiated
    assert initiated[0]["detail"].get("have_seq", 0) > 0


def test_store_files_survive_on_disk(deployment):
    out, _launcher, _ = deployment
    segments = list((out / "nodes" / TARGET / "store" / "segments").glob("seg-*.log"))
    assert segments
