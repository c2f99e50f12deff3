"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

They run real (short) workloads in worker processes, so they take about a
minute; the repository's tier-1 suite does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import wire  # noqa: E402
from workloads import CompletionLog  # noqa: E402


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]


def test_sim_outcomes_repeat_and_wrappers_do_not_move_them():
    first = run.run_worker("scada-steady", 3, "plain")
    second = run.run_worker("scada-steady", 3, "plain")
    wrapped = run.run_worker("scada-steady", 3, "layers")
    run.check_repeatable([first, second, wrapped])
    assert first["fingerprint"] == second["fingerprint"] == wrapped["fingerprint"]
    assert first["failed"] == 0 and first["completed"] >= 200
    assert wrapped["missing_wrappers"] == []
    assert wrapped["layers"]["sim.kernel.self_us_per_update"] > 0


def test_wire_replay_round_trips_every_frame():
    sends, summary = wire.record(5)
    assert len(sends) == summary["msgs"] > 0
    stamped = wire.replay_pass(sends)
    plain = wire.replay_pass(sends, stamp=False)
    assert stamped["failed"] == plain["failed"] == 0
    assert stamped["frame_bytes"] > plain["frame_bytes"]  # 28-byte context per frame


def test_outage_starts_at_fault_onsets():
    log = CompletionLog.__new__(CompletionLog)
    log.times = [1.0, 1.2, 3.0, 3.1, 6.0]
    assert log.outage([]) == 0.0
    # The gap from 1.2 (within 2 s of the onset) to 3.0 counts; the one
    # after 3.1 does not, because 3.1 is 2 s after the onset.
    assert abs(log.outage([1.1]) - 1.8) < 1e-9
    assert abs(log.outage([3.05]) - 2.9) < 1e-9
    assert abs(log.outage([4.0]) - 2.0) < 1e-9


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scada-steady", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
