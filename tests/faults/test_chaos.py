"""Chaos runtime: conservation, recovery, determinism, acceptance."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.faults import (
    FaultsConfig,
    InputFaultConfig,
    RecoveryConfig,
    WorkerCrash,
    WorkerFaultSchedule,
    WorkerStall,
    default_chaos_scenario,
)
from repro.faults.cli import fault_free
from repro.serve import FleetConfig, FleetRuntime, ServeConfig, run_fleet


def chaos_config(serve: ServeConfig, **faults) -> FleetConfig:
    """A one-shard fleet carrying a faults block."""
    return FleetConfig(serve=serve, n_shards=1, faults=FaultsConfig(**faults))


def small_config(**overrides) -> FleetConfig:
    serve = ServeConfig(
        n_sessions=6,
        duration_s=0.8,
        n_workers=2,
        reuse_displacement_deg=0.3,
        seed=3,
    )
    defaults = dict(fault_seed=3)
    defaults.update(overrides)
    return chaos_config(serve, **defaults)


def assert_conservation(config: FleetConfig, report) -> None:
    """Every generated frame must land in exactly one terminal bucket."""
    expected = config.serve.n_sessions * config.serve.frames_per_session
    assert report.total_frames == expected
    for stats in report.sessions:
        assert (
            stats.completed + stats.shed + stats.pending + stats.lost_input
            == config.serve.frames_per_session
        )


class TestConservation:
    def test_fault_free_chaos_accounts_every_frame(self):
        config = small_config()
        report = run_fleet(config)
        assert_conservation(config, report)
        assert report.lost_input_frames == 0
        assert report.faults.batch_failures == 0

    def test_dropped_frames_are_counted_not_vanished(self):
        config = small_config(
            input_faults=InputFaultConfig(frame_drop_rate=0.25)
        )
        report = run_fleet(config)
        assert_conservation(config, report)
        assert report.lost_input_frames > 0
        assert report.lost_input_frames == report.faults.input_dropped

    def test_batcher_ledger_closes(self):
        config = small_config(
            worker_faults=WorkerFaultSchedule(
                stalls=(WorkerStall(worker_id=0, start_s=0.2, stop_s=0.4),)
            )
        )
        runtime = FleetRuntime(config)
        report = runtime.run()
        batcher = runtime.shards[0].batcher
        assert len(batcher) == 0
        assert (
            batcher.admitted_total + batcher.requeued_total
            == batcher.taken_total
        )
        assert_conservation(config, report)


class TestRecovery:
    def test_stall_trips_breaker_and_degrades_instead_of_dropping(self):
        config = small_config(
            worker_faults=WorkerFaultSchedule(
                stalls=(WorkerStall(worker_id=0, start_s=0.1, stop_s=0.5),)
            ),
            recovery=RecoveryConfig(breaker_threshold=2, breaker_cooldown_s=0.1),
        )
        report = run_fleet(config)
        faults = report.faults
        assert faults.worker_stall_timeouts > 0
        assert faults.breaker_opens >= 1
        # Stall timeouts outlive the 10 ms deadline, so the frames are
        # degraded to reuse, never retried into a guaranteed miss.
        assert faults.deadline_degraded > 0
        assert_conservation(config, report)

    def test_fast_failure_is_retried_and_served(self):
        # A generous deadline and a snappy dispatch timeout: failed frames
        # can beat their deadline on retry instead of degrading.
        serve = ServeConfig(
            n_sessions=6,
            duration_s=0.8,
            n_workers=2,
            reuse_displacement_deg=0.3,
            deadline_frames=10.0,  # 100 ms budget
            seed=3,
        )
        config = chaos_config(
            serve,
            worker_faults=WorkerFaultSchedule(
                stalls=(WorkerStall(worker_id=0, start_s=0.3, stop_s=0.5),)
            ),
            recovery=RecoveryConfig(dispatch_timeout_s=5e-3, max_retries=3),
            fault_seed=3,
        )
        report = run_fleet(config)
        faults = report.faults
        assert faults.retries_scheduled > 0
        assert faults.frames_requeued == faults.retries_scheduled
        assert_conservation(config, report)

    def test_single_worker_crash_recovers_after_downtime(self):
        # One worker, crashed mid-run: the queue must wait out the
        # downtime via wake scheduling, then drain — nothing lost.
        serve = ServeConfig(
            n_sessions=4,
            duration_s=0.8,
            n_workers=1,
            reuse_displacement_deg=0.3,
            seed=5,
        )
        config = chaos_config(
            serve,
            worker_faults=WorkerFaultSchedule(
                crashes=(WorkerCrash(worker_id=0, at_s=0.3, down_s=0.2),)
            ),
            fault_seed=5,
        )
        report = run_fleet(config)
        assert_conservation(config, report)
        assert report.pending_at_shutdown == 0

    def test_occluded_predict_frames_degrade_to_reuse(self):
        config = small_config(
            input_faults=InputFaultConfig(
                occlusion_rate_hz=2.0,
                occlusion_duration_s=0.3,
                occlusion_level=(0.95, 1.0),
            )
        )
        report = run_fleet(config)
        assert report.faults.occluded_frames > 0
        assert_conservation(config, report)


class TestDeterminism:
    def test_same_seed_bitwise_identical_fault_telemetry(self):
        config = default_chaos_scenario(seed=1)
        first = run_fleet(config)
        second = run_fleet(config)
        assert first.faults == second.faults
        assert first.summary() == second.summary()
        for a, b in zip(first.sessions, second.sessions):
            assert a.latencies_s == b.latencies_s
            assert a.counts == b.counts

    def test_different_fault_seed_differs(self):
        base = default_chaos_scenario(seed=0)
        other = replace(base, faults=replace(base.faults, fault_seed=99))
        assert run_fleet(base).faults != run_fleet(other).faults


@pytest.mark.chaos
class TestAcceptanceScenario:
    """The ISSUE's acceptance criteria on the canonical scenario."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return default_chaos_scenario(seed=0)

    @pytest.fixture(scope="class")
    def report(self, scenario):
        return run_fleet(scenario)

    @pytest.fixture(scope="class")
    def baseline(self, scenario):
        return run_fleet(fault_free(scenario))

    def test_zero_silently_dropped_frames(self, scenario, report):
        assert_conservation(scenario, report)
        assert report.pending_at_shutdown == 0

    def test_deadline_misses_within_2x_of_fault_free(self, report, baseline):
        assert report.deadline_miss_rate <= 2.0 * baseline.deadline_miss_rate + 1e-9

    def test_fault_machinery_actually_exercised(self, report):
        faults = report.faults
        assert faults.input_dropped > 0
        assert faults.noise_burst_frames > 0
        assert faults.occluded_frames > 0
        assert faults.mipi_corrupted_frames > 0
        assert faults.worker_stall_timeouts > 0
        assert faults.breaker_opens >= 1
        assert faults.watchdog_reuse_frames > 0
        assert faults.widened_delta_theta_deg > 2.92

    def test_telemetry_identical_across_two_runs(self, scenario, report):
        again = run_fleet(scenario)
        assert again.faults == report.faults
        assert again.summary() == report.summary()
