"""Saturation sweeps: step offered load, find the knee.

A sweep runs the open-loop generator at a ladder of offered rates and
records, per rate, what the system actually delivered: admitted/s,
goodput/s (completions within the SLO deadline), drops, timeouts, and
latency percentiles. Plotting goodput against offered load gives the
saturation curve; :func:`detect_knee` finds the last rung where the
system still keeps up.

Because the simulation measures *virtual* time, every number here is
exactly reproducible on any machine — which is why ``--check`` can
enforce hard floors (a knee must exist, the batched knee must not fall
below the singleton knee, and neither may regress against the committed
baseline) instead of fuzzy wall-clock comparisons. This is the same
trick ``bench_shard_scaling --check`` uses.

Results land in ``benchmarks/results/BENCH_load.json`` with one curve
per configuration (``singleton`` = intro_batch_size 1, ``batched`` =
intro_batch_size 8), generated from ≥1000 distinct client aliases.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.load.generator import LoadConfig, LoadGenerator

REPO_ROOT = Path(__file__).resolve().parents[3]
DEFAULT_RESULTS_PATH = Path("benchmarks") / "results" / "BENCH_load.json"

#: A rung still "keeps up" when goodput is at least this fraction of the
#: offered rate; the knee is the last such rung.
KNEE_GOODPUT_FRACTION = 0.85

#: The two configurations every sweep measures, per the acceptance bar.
SWEEP_CONFIGS = {"singleton": 1, "batched": 8}

FULL = {
    "rates": (5.0, 10.0, 20.0, 40.0, 80.0, 160.0),
    "aliases": 1000,
    "duration": 8.0,
    "clients": 10,
}
QUICK = {
    "rates": (5.0, 80.0),
    "aliases": 200,
    "duration": 4.0,
    "clients": 8,
}


def run_point(
    rate: float,
    *,
    profile: str = "poisson",
    aliases: int = 1000,
    duration: float = 8.0,
    clients: int = 10,
    seed: int = 11,
    intro_batch_size: int = 1,
    shards: int = 1,
    max_inflight: int = 4,
    deadline: float = 4.0,
    drain: float = 4.0,
    profile_params: Optional[Dict[str, float]] = None,
) -> Dict:
    """One open-loop run at one offered rate; returns the stats dict."""
    from repro.shard.builder import build_sharded
    from repro.system.config import SystemConfig

    config = SystemConfig(
        seed=seed,
        f=1,
        num_clients=clients,
        # The closed-loop workload never starts; the generator is the
        # only traffic source. Tracing off keeps big sweeps fast.
        update_interval=1.0,
        checkpoint_interval=50,
        intro_batch_size=intro_batch_size,
        shards=shards,
        tracing=False,
    )
    deployment = build_sharded(config)
    deployment.start()
    generator = LoadGenerator(
        deployment,
        LoadConfig(
            profile=profile,
            rate=rate,
            profile_params=dict(profile_params or {}),
            aliases=aliases,
            duration=duration,
            max_inflight=max_inflight,
            deadline=deadline,
        ),
    )
    generator.start()
    deployment.run(until=generator.config.start_at + duration + drain)
    stats = generator.stats()
    deployment.shutdown()
    doc = stats.to_dict()
    doc["intro_batch_size"] = intro_batch_size
    doc["shards"] = shards
    return doc


def detect_knee(points: Sequence[Dict],
                fraction: float = KNEE_GOODPUT_FRACTION) -> Optional[Dict]:
    """The saturation knee of one curve.

    The knee is the last point (in offered-rate order) whose goodput is
    at least ``fraction`` of its offered rate. Returns ``None`` when even
    the lowest rung is past saturation; otherwise a dict with the knee's
    rate/goodput and ``saturated`` — whether any higher rung fell below
    the fraction (False means the sweep never reached saturation and the
    knee is only a lower bound).
    """
    ordered = sorted(points, key=lambda p: p["offered_rate"])
    knee_idx = None
    saturated = False
    for idx, point in enumerate(ordered):
        if point["goodput_per_s"] >= fraction * point["offered_per_s"]:
            knee_idx = idx
        else:
            saturated = True
    if knee_idx is None:
        return None
    knee = ordered[knee_idx]
    return {
        "offered_rate": knee["offered_rate"],
        "offered_per_s": knee["offered_per_s"],
        "goodput_per_s": knee["goodput_per_s"],
        "latency_p99_ms": knee["latency_p99_ms"],
        "saturated": saturated,
    }


def run_sweep(
    quick: bool = False,
    seed: int = 11,
    profile: str = "poisson",
    rates: Optional[Sequence[float]] = None,
) -> Dict:
    """Sweep offered load for every configuration in :data:`SWEEP_CONFIGS`."""
    params = QUICK if quick else FULL
    ladder = tuple(rates) if rates else tuple(params["rates"])
    configs: Dict[str, Dict] = {}
    for name, batch_size in SWEEP_CONFIGS.items():
        points = [
            run_point(
                rate,
                profile=profile,
                aliases=params["aliases"],
                duration=params["duration"],
                clients=params["clients"],
                seed=seed,
                intro_batch_size=batch_size,
            )
            for rate in ladder
        ]
        configs[name] = {
            "intro_batch_size": batch_size,
            "points": points,
            "knee": detect_knee(points),
        }
    return {
        "benchmark": "load_sweep",
        "quick": quick,
        "seed": seed,
        "profile": profile,
        "aliases": params["aliases"],
        "duration": params["duration"],
        "clients": params["clients"],
        "rates": list(ladder),
        "knee_goodput_fraction": KNEE_GOODPUT_FRACTION,
        "configs": configs,
    }


def check_load(result: Dict, baseline: Optional[Dict],
               tolerance: float = 0.25) -> List[str]:
    """Machine-independent regression guard over a sweep result.

    Floors enforced unconditionally:

    * every configuration has a detected knee;
    * the batched knee's offered rate is no lower than the singleton's
      (batch amortization must not *reduce* capacity);
    * every point's accounting balances (offered = admitted + dropped).

    When a comparable baseline (same quick flag) is given, each
    configuration's knee goodput must stay within ``tolerance`` of the
    baseline's.
    """
    failures: List[str] = []
    knees: Dict[str, Dict] = {}
    for name, curve in result.get("configs", {}).items():
        knee = curve.get("knee")
        if knee is None:
            failures.append(f"{name}: no saturation knee detected "
                            "(every rung past saturation)")
            continue
        knees[name] = knee
        for point in curve.get("points", ()):
            if point["offered"] != point["admitted"] + point["dropped"]:
                failures.append(
                    f"{name}@{point['offered_rate']}: accounting imbalance "
                    f"(offered {point['offered']} != admitted "
                    f"{point['admitted']} + dropped {point['dropped']})"
                )
    if "singleton" in knees and "batched" in knees:
        if knees["batched"]["offered_rate"] < knees["singleton"]["offered_rate"]:
            failures.append(
                f"batched knee ({knees['batched']['offered_rate']}/s) below "
                f"singleton knee ({knees['singleton']['offered_rate']}/s)"
            )
    if baseline is not None and baseline.get("quick") == result.get("quick"):
        for name, knee in knees.items():
            base_knee = baseline.get("configs", {}).get(name, {}).get("knee")
            if base_knee is None:
                continue
            floor = base_knee["goodput_per_s"] * (1 - tolerance)
            if knee["goodput_per_s"] < floor:
                failures.append(
                    f"{name}: knee goodput {knee['goodput_per_s']}/s regressed "
                    f"below baseline {base_knee['goodput_per_s']}/s "
                    f"(tolerance {tolerance:.0%})"
                )
    return failures


def write_results(result: Dict, path: Optional[Path] = None) -> Path:
    out = path or (REPO_ROOT / DEFAULT_RESULTS_PATH)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return out


def load_results(path: Optional[Path] = None) -> Optional[Dict]:
    src = path or (REPO_ROOT / DEFAULT_RESULTS_PATH)
    if not Path(src).exists():
        return None
    return json.loads(Path(src).read_text())
