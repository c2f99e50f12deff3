"""FaultLab shard-scoped faults: schedules, installation, verdicts."""

from repro.errors import ConfigurationError
from repro.faultlab.runner import FaultLabConfig, run_schedule
from repro.faultlab.schedule import (
    SHARD_KINDS,
    FaultSchedule,
    generate_shard_schedule,
    make_event,
    validate_schedule,
)

import pytest


class TestShardSchedule:
    def test_generation_is_deterministic(self):
        lab = FaultLabConfig.sharded()
        assert generate_shard_schedule(5, lab) == generate_shard_schedule(5, lab)
        assert generate_shard_schedule(5, lab) != generate_shard_schedule(6, lab)

    def test_generated_schedules_are_shard_scoped_and_valid(self):
        lab = FaultLabConfig.sharded()
        for seed in range(1, 11):
            schedule = generate_shard_schedule(seed, lab)
            validate_schedule(schedule)
            for event in schedule.events:
                assert event.kind in SHARD_KINDS
                assert event.target in {f"s{i}" for i in range(lab.shards)}

    def test_shard_target_must_name_a_shard(self):
        bad = FaultSchedule(
            seed=1,
            horizon=9.0,
            events=(make_event(2.0, "shard_kill_proposers", "cc-a-r0"),),
        )
        with pytest.raises(ConfigurationError, match="must name a shard"):
            validate_schedule(bad)

    def test_partition_needs_a_window(self):
        bad = FaultSchedule(
            seed=1, horizon=9.0, events=(make_event(2.0, "shard_partition", "s0"),)
        )
        with pytest.raises(ConfigurationError, match="needs 'until'"):
            validate_schedule(bad)

    def test_staggered_kills_extend_clear_time(self):
        schedule = FaultSchedule(
            seed=1,
            horizon=9.0,
            events=(
                make_event(
                    4.0, "shard_kill_proposers", "s1",
                    count=2, duration=2.0, stagger=0.6,
                ),
            ),
        )
        assert schedule.clear_time == pytest.approx(4.0 + 2.0 + 0.6)


class TestRunShardSchedule:
    #: One partition over shard s1's leader site, opened while the
    #: cross-shard workload (every 3rd update) is mid-flight. Small
    #: horizon keeps this in CI-test territory.
    LAB = FaultLabConfig.sharded(
        num_clients=6,
        cross_shard_every=3,
        horizon=5.0,
        quiescence=6.0,
        update_interval=0.4,
    )

    @pytest.fixture(scope="class")
    def result(self):
        schedule = FaultSchedule(
            seed=19,
            horizon=self.LAB.horizon,
            events=(
                make_event(2.2, "shard_partition", "s1", 4.2, site_index=0),
            ),
        )
        return run_schedule(schedule, self.LAB, keep_deployment=True)

    def test_invariants_hold_per_shard(self, result):
        assert len(result.shard_reports) == 2
        for report in result.shard_reports:
            assert report.ok, report.summary()

    def test_cross_shard_commits_drained_through_the_partition(self, result):
        assert result.ok, result.summary()
        assert result.cross_committed > 0
        assert result.cross_rejected == 0
        assert result.deployment.coordinator.outstanding == 0

    def test_partition_actually_fired(self, result):
        actions = [
            e.detail.get("action")
            for e in result.deployment.tracer.events
            if e.category == "attack"
        ]
        assert "isolate" in actions and "reconnect" in actions

    def test_rejects_host_scoped_kinds(self):
        schedule = FaultSchedule(
            seed=1,
            horizon=5.0,
            events=(make_event(2.0, "recover", "s0.cc-a-r0", duration=1.0),),
        )
        with pytest.raises(ConfigurationError, match="non-shard fault kind"):
            run_schedule(schedule, self.LAB)

    def test_rejects_out_of_range_shard(self):
        schedule = FaultSchedule(
            seed=1,
            horizon=5.0,
            events=(make_event(2.0, "shard_partition", "s7", 3.5),),
        )
        with pytest.raises(ConfigurationError, match="only"):
            run_schedule(schedule, self.LAB)


class TestSingleShard:
    """Shard kinds target ``shards[i]`` for any shard count, S = 1 too."""

    LAB = FaultLabConfig(horizon=5.0, quiescence=6.0)

    def test_shard_partition_isolates_and_reconnects_the_single_group(self):
        schedule = FaultSchedule(
            seed=19,
            horizon=self.LAB.horizon,
            events=(make_event(2.2, "shard_partition", "s0", 4.2, site_index=1),),
        )
        result = run_schedule(schedule, self.LAB, keep_deployment=True)
        assert result.ok, result.summary()
        assert len(result.shard_reports) == 1
        assert result.cross_committed == result.cross_rejected == 0
        attacks = [
            (e.detail.get("action"), e.detail.get("target"))
            for e in result.deployment.tracer.events
            if e.category == "attack"
        ]
        site = sorted({
            result.deployment.shards[0].site_of_host(host)
            for host in result.deployment.shards[0].on_premises_hosts
        })[1]
        assert ("isolate", site) in attacks and ("reconnect", site) in attacks
