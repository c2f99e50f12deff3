"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scada-steady --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
separate traced run and prints every per-layer metric. Each repetition runs
in a fresh interpreter (``worker.py``). The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. A failed
correctness check exits with code 1; a missing source tree with code 2.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from layers import PER_LAYER  # noqa: E402  (neither imports a repro module)
from workloads import UNREGISTERED_WORKLOADS, WORKLOADS  # noqa: E402

#: Wall seconds one plain repetition takes on the reference machine (a
#: 2-core x86 container); a run makes round(seconds / this) repetitions,
#: at least one, so the amount of work depends on --seconds alone.
NOMINAL_REP_S = {
    "scada-steady": 20.0,
    "burst-batched": 20.0,
    "recover-store": 16.0,
    "wire-replay": 7.0,
}
#: Replay time per wire-replay repetition (wall seconds; at least 2 passes).
REPLAY_S = 2.5
#: Per-worker limit, well inside the 180 s a whole run may take.
WORKER_TIMEOUT_S = 170

#: Registered end-to-end metrics: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("norm_updates_per_s", "1/s"),
    ("norm_frames_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("completed_frac", "ratio"),
    ("msgs_per_update", "count"),
    ("kb_per_update", "KiB"),
    ("peak_rss_mb", "MB"),
)

#: Printed with the end-to-end metrics but not registered: raw wall rates
#: swing with the host's speed, a rate that is 0 on healthy runs cannot
#: carry a relative bound, and outage_s exists only where faults do.
UNREGISTERED = (
    ("wall_updates_per_s", "1/s"),
    ("wall_frames_per_s", "1/s"),
    ("setup_wall_s", "s"),
    ("failed_frac", "ratio"),
    ("outage_s", "s"),
)

#: Simulated outcomes that must repeat exactly for a fixed seed.
REPEATABLE = ("fingerprint", "attempted", "completed", "msgs", "bytes", "events")


class RunFailed(Exception):
    """A worker failed or a correctness check did not hold."""


def run_worker(workload: str, seed: int, arm: str, **options) -> Dict:
    """Run one repetition in a fresh interpreter and parse its result."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--arm", arm]
    for key, value in options.items():
        command += [f"--{key.replace('_', '-')}", str(value)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload}/{arm} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RunFailed(
            f"{workload}/{arm} worker exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_repeatable(results: List[Dict], keys=REPEATABLE) -> None:
    """Simulated outcomes must be identical across repetitions and arms."""
    first = results[0]
    for other in results[1:]:
        for key in keys:
            if key in first and first[key] != other.get(key):
                raise RunFailed(
                    f"simulated outcome {key!r} differs between runs of one seed: "
                    f"{first[key]!r} != {other.get(key)!r}"
                )


def median(values) -> float:
    return statistics.median(list(values))


def end_to_end(workload: str, seed: int, seconds: float, work_dir: Path):
    reps = max(1, round(seconds / NOMINAL_REP_S[workload]))
    if workload == "wire-replay":
        results = [run_worker(workload, seed, "plain", replay_seconds=REPLAY_S)
                   for _ in range(reps)]
        check_repeatable(results, ("fingerprint", "msgs", "bytes", "events", "frames"))
        work = "frames"
    else:
        # With one repetition, set up three times in it; otherwise twice each.
        setup_repeats = 3 if reps == 1 else 2
        results = [run_worker(workload, seed, "plain", setup_repeats=setup_repeats,
                              work_dir=work_dir) for _ in range(reps)]
        check_repeatable(results)
        work = "msgs"
    first = results[0]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {
        "setup_s": median(s for r in results for s in r["setup_s"]),
        "norm_updates_per_s": median(r["completed"] / r["run_norm_s"] for r in results),
        "norm_frames_per_s": median(r[work] / r["run_norm_s"] for r in results),
        "latency_p50_ms": median(r["latency_p50_ms"] for r in results),
        "latency_p95_ms": median(r["latency_p95_ms"] for r in results),
        "completed_frac": (attempted - failed) / attempted,
        "msgs_per_update": first["msgs"] / first["completed"],
        "kb_per_update": first["bytes"] / 1024.0 / first["completed"],
        "peak_rss_mb": median(r["peak_rss_mb"] for r in results),
        "wall_updates_per_s": median(r["completed"] / r["run_wall_s"] for r in results),
        "wall_frames_per_s": median(r[work] / r["run_wall_s"] for r in results),
        "setup_wall_s": median(s for r in results for s in r["setup_wall_s"]),
        "failed_frac": failed / attempted,
        "outage_s": first.get("outage_s", 0.0),
    }
    notes = [f"repetitions={reps}", f"latency samples={first['latency_samples']}",
             f"fingerprint={first['fingerprint']}"]
    registered = {name: (metrics[name], unit) for name, unit in END_TO_END}
    extra = {name: (metrics[name], unit) for name, unit in UNREGISTERED}
    return attempted, failed, registered, extra, notes


def traced(workload: str, seed: int, work_dir: Path):
    if workload == "wire-replay":
        result = run_worker(workload, seed, "traced")
        values = dict(result["layers"])
        arms = [result]
    else:
        arms = [run_worker(workload, seed, arm, work_dir=work_dir)
                for arm in ("plain", "layers", "spans", "nometrics")]
        # Wrappers, tracer and metrics are observers: they must not move
        # any simulated outcome.
        check_repeatable(arms)
        plain, wrapped, spans, nometrics = (a["run_norm_s"] for a in arms)
        values = dict(arms[1]["layers"])
        values.update(arms[2]["spans"])
        values["obs.metrics_overhead_frac"] = plain / nometrics - 1.0
        values["obs.tracer_overhead_frac"] = spans / plain - 1.0
        values["perfbench.trace_overhead_frac"] = wrapped / plain - 1.0
        result = arms[1]
    values["system.outage_s"] = arms[0]["outage_s"]
    missing = result["missing_wrappers"]
    if missing:
        raise RunFailed("wrapped entry points never fired: " + "; ".join(missing))
    notes = [f"untraced wall {arms[0]['run_wall_s']:.3f} s",
             f"fingerprint={result['fingerprint']}"]
    metrics = {name: (values[name], unit) for name, unit, _better in PER_LAYER}
    return arms[0]["attempted"], arms[0]["failed"], metrics, {}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + UNREGISTERED_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    work_dir = ROOT / ".perfbench-work"
    try:
        if args.trace:
            attempted, failed, metrics, extra, notes = traced(
                args.workload, args.seed, work_dir
            )
        else:
            attempted, failed, metrics, extra, notes = end_to_end(
                args.workload, args.seed, args.seconds, work_dir
            )
    except RunFailed as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: " + ", ".join(notes))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    for name, (value, unit) in extra.items():
        print(f"{name:40s} {value:16.6f} {unit}  (not registered)")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
