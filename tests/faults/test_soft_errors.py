"""Soft-error composition with the chaos runtime (one merged FaultReport)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.faults import FaultsConfig, SoftErrorConfig, default_chaos_scenario
from repro.faults.cli import fault_free
from repro.serve import FleetConfig, FleetRuntime, ServeConfig, run_fleet
from repro.serve.telemetry import format_fault_report

SOFT = SoftErrorConfig(fit_per_mbit=600.0, acceleration=5e10, seed=3)


def soft_config(**overrides) -> FleetConfig:
    serve = ServeConfig(
        n_sessions=6,
        duration_s=1.0,
        n_workers=2,
        reuse_displacement_deg=0.3,
        seed=3,
    )
    defaults = dict(soft_errors=SOFT, fault_seed=3)
    defaults.update(overrides)
    return FleetConfig(serve=serve, n_shards=1, faults=FaultsConfig(**defaults))


class TestComposition:
    def test_soft_errors_compose_with_sensor_and_worker_faults(self):
        base = default_chaos_scenario(seed=0)
        config = replace(base, faults=replace(base.faults, soft_errors=SOFT))
        report = run_fleet(config)
        faults = report.faults
        # One merged report carries both fault families.
        assert faults.input_dropped > 0
        assert faults.worker_stall_timeouts > 0
        assert faults.soft_errors_injected > 0
        text = format_fault_report(faults)
        assert "Soft errors:" in text
        assert "silent data corruption" in text

    def test_counters_consistent(self):
        report = run_fleet(soft_config())
        faults = report.faults
        assert faults.soft_errors_injected > 0
        assert (
            faults.sdc_detected
            == faults.sdc_recomputed + faults.sdc_fallback_degraded
        )
        assert faults.summary()["soft_errors_injected"] == faults.soft_errors_injected

    def test_default_scenario_has_no_soft_errors(self):
        config = default_chaos_scenario(seed=0)
        assert not config.faults.soft_errors.active
        faults = run_fleet(config).faults
        assert faults.soft_errors_injected == 0
        assert faults.sdc_detected == 0
        assert "Soft errors:" not in format_fault_report(faults)

    def test_fault_free_disables_soft_errors(self):
        config = fault_free(soft_config())
        assert not config.faults.soft_errors.active
        assert run_fleet(config).faults.soft_errors_injected == 0


class TestDeterminism:
    def test_same_seed_identical_soft_error_telemetry(self):
        config = soft_config()
        first = run_fleet(config)
        second = run_fleet(config)
        assert first.faults == second.faults
        assert first.summary() == second.summary()

    def test_soft_error_seed_changes_outcome(self):
        base = run_fleet(soft_config()).faults
        other = run_fleet(
            soft_config(soft_errors=replace(SOFT, seed=11))
        ).faults
        assert base != other


class TestSnapshot:
    def test_state_roundtrip_midrun(self):
        """SDC queues, persistent offsets, and guards all snapshot."""
        config = soft_config()
        runtime = FleetRuntime(config)
        runtime.start()
        for _ in range(150):
            runtime.step()
        state = runtime.state_dict()

        restored = FleetRuntime(config)
        restored.load_state(state)
        assert restored.state_dict() == state

    def test_crash_recovery_bit_identical_with_soft_errors(self, tmp_path):
        from repro.faults import ProcessKill, SimulatedCrash
        from repro.recover import (
            fleet_report_bytes,
            resume,
            run_with_checkpoints,
        )

        config = soft_config()
        baseline = FleetRuntime(config).run()
        assert baseline.faults.soft_errors_injected > 0
        with pytest.raises(SimulatedCrash):
            run_with_checkpoints(
                FleetRuntime(config), tmp_path, every=60,
                kill=ProcessKill(at_event=200),
            )
        recovered = resume(tmp_path)
        assert fleet_report_bytes(recovered) == fleet_report_bytes(baseline)
        assert recovered.faults == baseline.faults
