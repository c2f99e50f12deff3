"""CompactLab: background log compaction + delta checkpoint chains.

Four contracts:

1. compactor mechanics on a bare FileStore — dead records (below-stable
   and replayed duplicates) are dropped, the per-tick budget bounds the
   work, a second pass is a no-op, and every crash window of the swap
   repairs to exactly one intact copy on the next open;
2. trace identity — enabling background compaction changes *no* trace:
   the compactor works only on sealed files and reports only metrics;
3. delta chains — a deployment running delta checkpoints converges, and
   a rejoin after >= 10 checkpoint intervals of traffic moves strictly
   fewer wire bytes than the full-snapshot baseline (the whole point);
4. FaultLab — ``crash_during_compaction`` / ``crash_mid_delta`` runs are
   green across seeds and both kinds stay out of the random generator.
"""

import pytest

from repro.core.messages import BatchRecord, EncryptedUpdate, ResumePoint
from repro.faultlab import (
    FaultLabConfig,
    FaultSchedule,
    generate_schedule,
    make_event,
    plant_leak,
    run_schedule,
    schedule_for_seed,
    shrink,
    validate_schedule,
)
from repro.faultlab.schedule import ScheduleSpace
from repro.store.filestore import (
    FileStore,
    flip_byte,
    interrupt_compaction_files,
)
from repro.store.inspect import inspect_store, verify_store
from repro.system import Mode, SystemConfig, build

TARGET = "dc-2-r0"
LIVE = "dc-1-r0"


# ---------------------------------------------------------------------------
# 1. Compactor mechanics on a bare FileStore
# ---------------------------------------------------------------------------


def record(seq: int, payload_bytes: int = 1200) -> BatchRecord:
    return BatchRecord(
        batch_seq=seq,
        resume=ResumePoint(batch_seq=seq, ordinal=seq, ordered_through=()),
        entries=(
            (seq, EncryptedUpdate(alias="abcd" * 4, client_seq=seq,
                                  ciphertext=b"\x01" * payload_bytes)),
        ),
    )


def open_store(tmp_path, **kwargs):
    kwargs.setdefault("fsync", "never")
    kwargs.setdefault("segment_bytes", 4096)
    return FileStore(tmp_path / "store", **kwargs)


def segment_files(store):
    return sorted(store.segments_dir.glob("seg-*.log"))


def loaded_seqs(store):
    return [r.batch_seq for r in store.load().records]


class TestCompactor:
    def test_drops_below_stable_records(self, tmp_path):
        store = open_store(tmp_path)
        for seq in range(1, 13):
            store.append(record(seq))
        assert len(segment_files(store)) > 2
        # Stable point in the middle of a sealed segment: gc() alone
        # cannot free it (it still holds live records), compaction can
        # rewrite it down to the live suffix.
        store.gc(stable_ordinal=0, stable_seq=8)
        before = sum(p.stat().st_size for p in segment_files(store))
        stats = store.compact(budget_segments=10)
        after = sum(p.stat().st_size for p in segment_files(store))
        assert stats["records_dropped"] > 0
        assert stats["bytes_reclaimed"] > 0
        assert after < before
        assert loaded_seqs(store) == list(range(8, 13))
        store.close()

    def test_drops_replayed_duplicates(self, tmp_path):
        store = open_store(tmp_path)
        for seq in (1, 2, 3):
            store.append(record(seq))
        for seq in (2, 3, 4, 5):  # re-append: newer copies shadow the old
            store.append(record(seq))
        store.append(record(6))  # roll past the duplicates
        store.append(record(7))
        assert len(segment_files(store)) >= 3
        stats = store.compact(budget_segments=10)
        assert stats["records_dropped"] >= 2
        # Load is last-copy-wins either way; compaction must not change it.
        assert loaded_seqs(store) == list(range(1, 8))
        report = inspect_store(store.root)
        assert report["dead_records"] == 0
        store.close()

    def test_budget_bounds_segments_per_tick(self, tmp_path):
        store = open_store(tmp_path)
        for seq in range(1, 13):
            store.append(record(seq))
        for seq in range(1, 13):  # shadow every first-pass record
            store.append(record(seq))
        assert len(segment_files(store)) > 4
        stats = store.compact(budget_segments=1)
        assert stats["segments"] == 1
        rest = store.compact(budget_segments=10)
        assert rest["segments"] >= 2
        assert loaded_seqs(store) == list(range(1, 13))
        store.close()

    def test_second_pass_is_a_noop(self, tmp_path):
        store = open_store(tmp_path)
        for seq in range(1, 13):
            store.append(record(seq))
        store.gc(stable_ordinal=0, stable_seq=9)
        store.compact(budget_segments=10)
        sizes = [p.stat().st_size for p in segment_files(store)]
        again = store.compact(budget_segments=10)
        assert again["segments"] == 0
        assert again["records_dropped"] == 0
        assert [p.stat().st_size for p in segment_files(store)] == sizes
        store.close()

    def test_never_touches_the_live_segment(self, tmp_path):
        store = open_store(tmp_path)
        store.append(record(1))
        store.gc(stable_ordinal=0, stable_seq=2)  # everything below stable
        stats = store.compact(budget_segments=10)
        # The only segment is the open one: nothing may be rewritten.
        assert stats["segments"] == 0
        assert loaded_seqs(store) == [1]
        store.close()

    def test_skips_damaged_segments(self, tmp_path):
        store = open_store(tmp_path)
        for seq in range(1, 13):
            store.append(record(seq))
        store.close()
        sealed = segment_files(store)[0]
        flip_byte(sealed, offset=32)
        reopened = open_store(tmp_path)
        for seq in range(1, 13):  # shadow everything in the sealed files
            reopened.append(record(seq))
        before = sealed.read_bytes()
        stats = reopened.compact(budget_segments=10)
        # Healthy dead segments get rewritten; the damaged one is left
        # byte-for-byte for load() to classify — a compactor must never
        # launder corruption into a fresh file.
        assert stats["segments"] > 0
        assert sealed.read_bytes() == before
        assert reopened.load().corrupt_segments > 0
        reopened.close()

    @pytest.mark.parametrize("stage", [1, 2, 3])
    def test_interrupted_swap_repairs_on_open(self, tmp_path, stage):
        store = open_store(tmp_path)
        for seq in range(1, 13):
            store.append(record(seq))
        expected = loaded_seqs(store)
        store.close()
        target = segment_files(store)[0]
        interrupt_compaction_files(target, stage)
        reopened = open_store(tmp_path)
        assert loaded_seqs(reopened) == expected
        assert not list(reopened.segments_dir.glob("*.compact.tmp"))
        assert not list(reopened.segments_dir.glob("*.log.old"))
        _report, ok = verify_store(reopened.root)
        assert ok
        reopened.close()

    def test_interrupted_swap_counts_as_artifacts_before_repair(self, tmp_path):
        store = open_store(tmp_path)
        for seq in range(1, 13):
            store.append(record(seq))
        store.close()
        interrupt_compaction_files(segment_files(store)[0], stage=2)
        report = inspect_store(store.root)
        assert report["compaction_artifacts"] > 0


# ---------------------------------------------------------------------------
# 2 + 3. Simulation: trace identity, delta-chain convergence + wire bytes
# ---------------------------------------------------------------------------


def deploy(tmp_path, *, delta_interval=0, compaction_interval=0.0, seed=31,
           checkpoint_interval=25, update_interval=0.25):
    config = SystemConfig(
        mode=Mode.CONFIDENTIAL,
        f=1,
        num_clients=5,
        seed=seed,
        update_interval=update_interval,
        checkpoint_interval=checkpoint_interval,
        checkpoint_delta_interval=delta_interval,
        store_compaction_interval=compaction_interval,
        store_dir=str(tmp_path),
        store_fsync="never",
    )
    deployment = build(config)
    deployment.start()
    return deployment


def close_stores(deployment):
    for replica in deployment.replicas.values():
        replica.store.close()


def trace_tuples(deployment):
    return [
        (e.time, e.category, e.host, tuple(sorted(e.detail.items())))
        for e in deployment.tracer.events
    ]


def counter(deployment, name, host):
    total = 0.0
    for (metric, labels), value in deployment.metrics.counter_values().items():
        if metric == name and ("host", host) in labels:
            total += value
    return total


class TestCompactionTraceIdentity:
    def test_background_compaction_changes_no_trace(self, tmp_path):
        baseline = deploy(tmp_path / "off")
        baseline.start_workload(duration=12.0)
        baseline.run(until=15.0)
        close_stores(baseline)

        compacting = deploy(tmp_path / "on", compaction_interval=1.0)
        compacting.start_workload(duration=12.0)
        compacting.run(until=15.0)
        close_stores(compacting)

        assert trace_tuples(baseline) == trace_tuples(compacting)
        # ... and the compactor really ran behind the seam.
        assert counter(compacting, "store.compaction_runs", LIVE) > 0
        assert counter(baseline, "store.compaction_runs", LIVE) == 0


@pytest.mark.slow  # the class fixture runs two recovery deployments
class TestDeltaChain:
    # The rejoin happens after well over 10 checkpoint intervals of
    # traffic, inside one full-snapshot period (delta_interval=10 ->
    # fulls every 250 ordinals), so the survivors can serve the delta
    # suffix instead of a fresh full snapshot.
    CRASH_AT = 8.0
    OUTAGE = 3.0
    END = CRASH_AT + OUTAGE + 10.0

    def run_recovery(self, tmp_path, delta_interval):
        deployment = deploy(tmp_path, delta_interval=delta_interval)
        deployment.start_workload(duration=self.END - 3.0)
        deployment.recovery.schedule_recovery(TARGET, self.CRASH_AT, self.OUTAGE)
        deployment.run(until=self.END)
        close_stores(deployment)
        return deployment

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        with_deltas = self.run_recovery(tmp_path_factory.mktemp("deltas"), 10)
        baseline = self.run_recovery(tmp_path_factory.mktemp("full"), 0)
        return with_deltas, baseline

    def test_both_runs_converge(self, runs):
        for deployment in runs:
            target = deployment.replicas[TARGET]
            live = deployment.replicas[LIVE]
            assert target.executed_ordinal() == live.executed_ordinal()
            assert live.executed_ordinal() > 0

    def test_traffic_spans_ten_checkpoint_intervals(self, runs):
        with_deltas, _ = runs
        live = with_deltas.replicas[LIVE]
        assert live.checkpoints.stable is not None
        # checkpoint_interval=25: >= 10 intervals means ordinal >= 250.
        assert live.executed_ordinal() >= 250

    def test_deltas_were_generated_and_persisted(self, runs):
        with_deltas, baseline = runs
        assert counter(with_deltas, "store.delta_checkpoints_saved", LIVE) > 0
        assert counter(baseline, "store.delta_checkpoints_saved", LIVE) == 0
        live = with_deltas.replicas[LIVE]
        assert live.checkpoints.stable_deltas

    def test_delta_recovery_moves_strictly_fewer_wire_bytes(self, runs):
        with_deltas, baseline = runs
        delta_wire = counter(with_deltas, "xfer.bytes_received", TARGET)
        full_wire = counter(baseline, "xfer.bytes_received", TARGET)
        assert delta_wire > 0 and full_wire > 0
        assert delta_wire < full_wire

    def test_delta_files_verify_on_disk(self, runs, tmp_path_factory):
        with_deltas, _ = runs
        root = with_deltas.replicas[LIVE].store.root
        report, ok = verify_store(root)
        assert ok, report
        assert report["chain"]["chain_length"] > 0

    def test_chain_recovery_comes_from_disk(self, runs):
        with_deltas, _ = runs
        recovered = [e for e in with_deltas.tracer.events
                     if e.category == "store.recovered" and e.host == TARGET]
        assert recovered
        assert recovered[0].detail["ordinal"] > 0


# ---------------------------------------------------------------------------
# 4. FaultLab: new storage kinds
# ---------------------------------------------------------------------------


COMPACT_LAB = FaultLabConfig(store_compaction_interval=1.0)
DELTA_LAB = FaultLabConfig(checkpoint_delta_interval=4)


def store_schedule(kind, seed=3, **params):
    return FaultSchedule(
        seed=seed,
        horizon=9.0,
        events=(make_event(6.0, kind, target=TARGET, duration=3.0, **params),),
    )


class TestFaultLabCompactionKinds:
    @pytest.mark.parametrize("stage", [1, 2, 3])
    def test_crash_during_compaction_is_green(self, stage):
        result = run_schedule(
            store_schedule("crash_during_compaction", stage=stage),
            COMPACT_LAB,
            keep_deployment=True,
        )
        assert result.ok, result.report.summary()
        assert "durable-recovery" in result.report.checked
        damage = [e for e in result.deployment.tracer.events
                  if e.category == "fault.store-damage"]
        assert damage and damage[0].detail["applied"]

    def test_crash_mid_delta_is_green(self):
        result = run_schedule(
            store_schedule("crash_mid_delta"),
            DELTA_LAB,
            keep_deployment=True,
        )
        assert result.ok, result.report.summary()
        assert "durable-recovery" in result.report.checked
        damage = [e for e in result.deployment.tracer.events
                  if e.category == "fault.store-damage"]
        assert damage and damage[0].detail["applied"]

    @pytest.mark.slow
    def test_crash_during_compaction_twenty_seed_sweep(self):
        for seed in range(20):
            schedule = store_schedule(
                "crash_during_compaction", seed=seed, stage=(seed % 3) + 1
            )
            result = run_schedule(schedule, COMPACT_LAB)
            assert result.ok, f"seed {seed}: {result.report.summary()}"

    def test_new_kinds_validate_and_roundtrip(self):
        for kind in ("crash_during_compaction", "crash_mid_delta"):
            schedule = store_schedule(kind)
            validate_schedule(schedule)  # must not raise
            assert FaultSchedule.from_json(schedule.to_json()) == schedule

    def test_new_kinds_never_generated_randomly(self):
        # Both kinds only matter with compaction/deltas enabled, which the
        # random sweep's trace-identity baseline keeps off — they are
        # explicit opt-ins, like ``leak``.
        space = ScheduleSpace(
            on_premises_hosts=tuple(
                f"cc-{cc}-r{i}" for cc in "ab" for i in range(4)
            ),
            data_center_hosts=tuple(
                f"dc-{dc}-r{i}" for dc in (1, 2) for i in range(3)
            ),
            sites=("cc-a", "cc-b", "dc-1", "dc-2"),
            f=1,
        )
        for seed in range(100):
            kinds = {e.kind for e in generate_schedule(seed, space).events}
            assert "crash_during_compaction" not in kinds
            assert "crash_mid_delta" not in kinds

    @pytest.mark.slow
    def test_shrinker_handles_schedules_with_new_kinds(self):
        # A failing schedule that also carries the new storage kinds must
        # shrink cleanly: the minimizer drops the benign storage events
        # and keeps the planted leak.
        base = plant_leak(schedule_for_seed(5, COMPACT_LAB))
        extra = (
            make_event(5.5, "crash_during_compaction", target=TARGET,
                       duration=3.0, stage=2),
        )
        events = tuple(sorted(base.events + extra, key=lambda e: e.at))
        schedule = FaultSchedule(base.seed, base.horizon, events)
        shrunk = shrink(schedule, COMPACT_LAB)
        assert not shrunk.final.ok
        assert "confidentiality" in shrunk.failing_invariants
        assert any(e.kind == "leak" for e in shrunk.minimal.events)
