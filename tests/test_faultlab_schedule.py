"""FaultLab schedule model: generation, validation, serialization."""

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.faultlab import (
    FaultEvent,
    FaultLabConfig,
    FaultSchedule,
    ScheduleSpace,
    generate_schedule,
    make_event,
    schedule_for_seed,
    validate_schedule,
)

SPACE = ScheduleSpace(
    on_premises_hosts=tuple(f"cc-{cc}-r{i}" for cc in "ab" for i in range(4)),
    data_center_hosts=("dc-1-r0", "dc-1-r1", "dc-1-r2", "dc-2-r0", "dc-2-r1", "dc-2-r2"),
    sites=("cc-a", "cc-b", "dc-1", "dc-2"),
    f=1,
)


class TestGenerator:
    def test_same_seed_same_schedule(self):
        assert generate_schedule(42, SPACE) == generate_schedule(42, SPACE)

    def test_different_seeds_differ_somewhere(self):
        schedules = {generate_schedule(seed, SPACE).to_json() for seed in range(20)}
        assert len(schedules) > 10

    def test_all_windows_inside_start_and_horizon(self):
        for seed in range(30):
            schedule = generate_schedule(seed, SPACE)
            for event in schedule.events:
                assert event.at >= SPACE.start
                if event.until is not None:
                    assert event.until <= SPACE.horizon

    def test_events_sorted_by_time(self):
        for seed in range(30):
            times = [e.at for e in generate_schedule(seed, SPACE).events]
            assert times == sorted(times)

    def test_at_most_f_concurrent_compromises(self):
        for seed in range(60):
            windows = [
                (e.at, e.until)
                for e in generate_schedule(seed, SPACE).events
                if e.kind == "compromise"
            ]
            for i, (a1, u1) in enumerate(windows):
                overlaps = sum(
                    1 for j, (a2, u2) in enumerate(windows)
                    if i != j and a1 < u2 and a2 < u1
                )
                assert overlaps < SPACE.f, f"seed {seed}: >f concurrent compromises"

    def test_site_attacks_never_overlap_each_other(self):
        for seed in range(60):
            windows = [
                (e.at, e.until)
                for e in generate_schedule(seed, SPACE).events
                if e.kind in ("isolate", "degrade", "skew")
            ]
            for i, (a1, u1) in enumerate(windows):
                for j, (a2, u2) in enumerate(windows):
                    if i != j:
                        assert not (a1 < u2 and a2 < u1)

    def test_generated_schedules_validate(self):
        for seed in range(30):
            validate_schedule(generate_schedule(seed, SPACE))  # must not raise

    def test_leak_never_generated(self):
        # The deliberate confidentiality breach is opt-in only.
        for seed in range(100):
            kinds = {e.kind for e in generate_schedule(seed, SPACE).events}
            assert "leak" not in kinds


class TestSerialization:
    def test_json_roundtrip_preserves_value(self):
        schedule = generate_schedule(7, SPACE)
        assert FaultSchedule.from_json(schedule.to_json()) == schedule

    def test_params_roundtrip(self):
        event = make_event(1.0, "degrade", "cc-a", 2.0,
                           bandwidth_divisor=8.0, added_latency=0.01, loss=0.02)
        restored = FaultEvent.from_dict(event.to_dict())
        assert restored == event
        assert restored.param("bandwidth_divisor") == 8.0
        assert restored.param("missing", "fallback") == "fallback"

    def test_from_json_validates(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule.from_json(
                '{"seed": 1, "horizon": 9.0, '
                '"events": [{"at": 1.0, "kind": "frobnicate", "target": "x"}]}'
            )


class TestValidationAndSubset:
    def test_window_kinds_need_until(self):
        schedule = FaultSchedule(1, 9.0, (make_event(1.0, "isolate", "cc-a"),))
        with pytest.raises(ConfigurationError):
            validate_schedule(schedule)

    def test_empty_window_rejected(self):
        schedule = FaultSchedule(
            1, 9.0, (make_event(2.0, "isolate", "cc-a", until=2.0),)
        )
        with pytest.raises(ConfigurationError):
            validate_schedule(schedule)

    def test_compromise_needs_known_behaviors(self):
        schedule = FaultSchedule(
            1, 9.0,
            (make_event(1.0, "compromise", "cc-a-r0", 2.0, behaviors=["sulk"]),),
        )
        with pytest.raises((ConfigurationError, ValueError)):
            validate_schedule(schedule)

    def test_subset_keeps_order_and_drops_rest(self):
        schedule = generate_schedule(11, SPACE)
        if len(schedule) < 2:
            schedule = generate_schedule(13, SPACE)
        assert len(schedule) >= 2
        reduced = schedule.subset([0])
        assert reduced.events == (schedule.events[0],)
        assert reduced.seed == schedule.seed
        # Indices are deduplicated and sorted.
        assert schedule.subset([1, 0, 0]).events == schedule.events[:2]

    def test_clear_time_covers_recover_tail(self):
        schedule = FaultSchedule(
            1, 9.0,
            (
                make_event(2.0, "recover", "cc-a-r0", duration=3.0),
                make_event(1.0, "isolate", "cc-b", until=4.0),
            ),
        )
        assert schedule.clear_time == 5.0

    def test_describe_mentions_every_event(self):
        schedule = generate_schedule(17, SPACE)
        text = schedule.describe()
        for event in schedule.events:
            assert event.kind in text


class TestScheduleForSeed:
    """Sweep schedules are pinned: a change here regenerates every seed."""

    @staticmethod
    def digest(lab, seeds):
        h = hashlib.sha256()
        for seed in seeds:
            h.update((schedule_for_seed(seed, lab).to_json() + "\n").encode())
        return h.hexdigest()[:16]

    def test_classic_schedules_are_pinned(self):
        assert self.digest(FaultLabConfig(), range(1, 26)) == "8228fe4ed23f80ae"

    def test_shard_schedules_are_pinned(self):
        lab = FaultLabConfig.sharded(shards=2)
        assert self.digest(lab, range(1, 21)) == "18297334ac7b1a85"
