"""One measured repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so that module-level
caches (``symmetric._CIPHER_CACHE``, ``threshold._FDH_CACHE`` and
``_SHARE_VERIFY_CACHE``, ``codec._PAYLOAD_CACHE``) and the peak RSS never
carry over between repetitions or workloads. The last line of standard
output is one JSON object; a failed correctness check exits with code 3.

Arms (the ``--arm`` option):

``plain``      the end-to-end measurement: wrappers off, sim tracer off.
``layers``     per-layer wrappers on (see ``layers.py``).
``spans``      the sim's own event tracer on, for span phases.
``nometrics``  the metrics registry off.
``traced``     wire-replay only: plain, no-trace-context and wrapped
               replay passes over one recording.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import layers
import wire
import workloads
from workloads import CheckFailed


class LayersHooks:
    """Per-layer wrappers: reset after set-up, report after the run."""

    def __init__(self, workload: str) -> None:
        self.instrumentation = layers.Instrumentation(workload)
        self.instrumentation.install()

    def config_overrides(self):
        return {}

    def attach(self, deployment) -> None:
        self.instrumentation.clock.reset()

    def finish(self, deployment, result) -> None:
        result["layers"] = layers.sim_layer_metrics(
            self.instrumentation.clock, deployment, result["completed"]
        )
        result["missing_wrappers"] = self.instrumentation.self_check()


class SpansHooks:
    """The sim's event tracer on: span phases and state-transfer times."""

    def config_overrides(self):
        return {"tracing": True}

    def attach(self, deployment) -> None:
        pass

    def finish(self, deployment, result) -> None:
        result["spans"] = layers.span_metrics(deployment)


class NoMetricsHooks:
    """The metrics registry off (every instrument a no-op)."""

    def config_overrides(self):
        return {"metrics_enabled": False}

    def attach(self, deployment) -> None:
        pass

    def finish(self, deployment, result) -> None:
        pass


ARM_HOOKS = {
    "plain": lambda workload: None,
    "layers": LayersHooks,
    "spans": lambda workload: SpansHooks(),
    "nometrics": lambda workload: NoMetricsHooks(),
}


def run_sim(args) -> dict:
    hooks = ARM_HOOKS[args.arm](args.workload)
    if args.workload == "recover-store":
        return workloads.run_recover_store(
            args.seed, Path(args.work_dir), args.setup_repeats, hooks
        )
    return workloads.SIM_RUNNERS[args.workload](args.seed, args.setup_repeats, hooks)


def run_wire_traced(seed: int) -> dict:
    """Replay passes for the traced run: with and without trace-context
    stamping (the live tracer's own cost), then with the wrappers on."""
    sends, summary = wire.record(seed)
    frames = len(sends)
    plain, unstamped = [], []
    for _ in range(2):
        plain.append(wire.replay_pass(sends))
        unstamped.append(wire.replay_pass(sends, stamp=False))
    instrumentation = layers.Instrumentation("wire-replay")
    instrumentation.install()
    traced = wire.replay_pass(sends)
    clock = instrumentation.clock
    plain_s = min(p["norm_s"] for p in plain)
    out = {name: 0.0 for name, _unit, _better in layers.PER_LAYER}
    out.update(layers.codec_metrics(clock, frames, frames, traced["frame_bytes"]))
    out["rt.wire.frame_us_per_frame"] = clock.layer_self_ns().get("rt.wire", 0) / 1e3 / frames
    out["obs.tracer_overhead_frac"] = plain_s / min(p["norm_s"] for p in unstamped) - 1.0
    out["perfbench.trace_overhead_frac"] = traced["norm_s"] / plain_s - 1.0
    passes = plain + unstamped + [traced]
    summary.update(
        attempted=frames * len(passes),
        failed=sum(p["failed"] for p in passes),
        layers=out,
        missing_wrappers=instrumentation.self_check(),
        run_wall_s=min(p["wall_s"] for p in plain),
        outage_s=0.0,
    )
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + workloads.UNREGISTERED_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--arm", default="plain",
                        choices=sorted(ARM_HOOKS) + ["traced"])
    parser.add_argument("--setup-repeats", type=int, default=1)
    parser.add_argument("--replay-seconds", type=float, default=0.0)
    parser.add_argument("--work-dir", default="perfbench-work")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    try:
        if args.workload == "wire-replay":
            if args.arm == "traced":
                result = run_wire_traced(args.seed)
            else:
                result = wire.run_wire_replay(args.seed, args.replay_seconds)
        else:
            result = run_sim(args)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3
    result["worker_wall_s"] = time.perf_counter() - started
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
