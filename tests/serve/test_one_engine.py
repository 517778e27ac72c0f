"""One serving engine: ``serve`` and ``chaos`` are one-shard fleets.

The golden digests pin the simulated results to the last release that
still had standalone serve/chaos runtimes: sha256 of the canonical
report state (the ``shards`` section aside — it did not exist there).
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.faults import FaultsConfig, ShardKill, default_chaos_scenario
from repro.faults.cli import config_from_params
from repro.faults.netfaults import LinkProfile, PartitionWindow
from repro.recover.codec import canonical_json
from repro.serve import (
    AdmissionPolicy,
    FleetConfig,
    RebalancerConfig,
    ServeConfig,
    SessionMigration,
    fleet_report_state,
    run_fleet,
    serve_fleet,
)
from repro.serve.fleet import NetConfig

BASE = dict(
    n_sessions=16,
    duration_s=0.5,
    n_workers=1,
    reuse_displacement_deg=0.05,
    queue_budget_deadlines=0.8,
    seed=3,
)


def digest(report) -> str:
    state = fleet_report_state(report)
    state.pop("shards")
    return hashlib.sha256(canonical_json(state).encode()).hexdigest()


def fake_inference(batch):
    return np.array(
        [[r.session_id + 0.25 * len(batch), r.frame_index * 0.01] for r in batch]
    )


def serve_run(admission: str):
    config = ServeConfig(admission=AdmissionPolicy(admission), **BASE)
    return serve_fleet(config)


GOLDEN = {
    "always": (
        lambda: serve_run("always"),
        "d16f029e4bf5504fda95d4f1bfb995016f667e9feed54a56f18bfb4f5554c542",
    ),
    "degrade": (
        lambda: serve_run("degrade"),
        "808b2424227994d166eb709c5715149bb9e69b4690f6675be0aa3c0e543b69f0",
    ),
    "shed": (
        lambda: serve_run("shed"),
        "70dc553bb4b574ff89d9e1e9f7f1d28fcd24619b5d95ffdb724ce459e1b0d905",
    ),
    "inference": (
        lambda: serve_fleet(ServeConfig(**BASE), inference=fake_inference),
        "72d879cb33f5f5a0fc8f193eebe83ab657040604d4fe43341add08a6ff09401f",
    ),
    "chaos": (
        lambda: run_fleet(config_from_params({"seed": 0})),
        "4e3fde61e586ae74462fac6f0693e7415b4ae744cca8c1cfac0681d8968b723c",
    ),
    "chaos_soft_errors": (
        lambda: run_fleet(config_from_params({"seed": 0, "soft_error_fit": 800.0})),
        "18255cab70fbffb7e3efd522618391980428df4202d913922629f4abc66856a2",
    ),
    "chaos_fault_free": (
        lambda: run_fleet(config_from_params({"seed": 0, "fault_free": True})),
        "8d606b79899a31291879dbca823f5d21c36dee0957f71f3e7f301dd9c7e39f4a",
    ),
}


class TestGoldenDigests:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_report_matches_golden_digest(self, name):
        run, expected = GOLDEN[name]
        assert digest(run()) == expected

    def test_golden_runs_exercise_what_they_pin(self):
        degrade, shed = serve_run("degrade"), serve_run("shed")
        assert degrade.degrade_rate > 0 and shed.shed_rate > 0
        report = serve_fleet(ServeConfig(**BASE), inference=fake_inference)
        assert len(report.predictions) > 0


def full_digest(report) -> str:
    return hashlib.sha256(
        canonical_json(fleet_report_state(report)).encode()
    ).hexdigest()


MULTI_SHARD_SERVE = ServeConfig(**{**BASE, "n_sessions": 24})

#: Multi-shard runs, pinned (whole report state) before fresh arrivals
#: left the shard heaps: they fix where a moved-in session's frames
#: queue on its new shard, and where the router's sends rank.
MULTI_SHARD_GOLDEN = {
    "kill_migrate_rebalance": (
        FleetConfig(
            serve=MULTI_SHARD_SERVE,
            n_shards=3,
            kills=(ShardKill(shard_id=1, at_s=0.2),),
            migration_rate_hz=20.0,
            rebalancer=RebalancerConfig(
                interval_s=0.05, p95_high_s=3e-3, p95_low_s=2.9e-3,
                cooldown_s=0.05,
            ),
        ),
        "4ebccbcf7721b96c79a4012e55724b2f5edcc05d79c280470fd41d6f296c7616",
    ),
    "net_partition": (
        FleetConfig(
            serve=MULTI_SHARD_SERVE,
            n_shards=3,
            kills=(ShardKill(shard_id=2, at_s=0.25),),
            net=NetConfig(
                enabled=True,
                seed=1,
                link=LinkProfile(drop_rate=0.1, dup_rate=0.1, jitter_s=1e-3),
                ack_timeout_s=4e-3,
                max_retransmits=8,
                partitions=(
                    PartitionWindow(start_s=0.1, stop_s=0.2, shard_ids=(1,)),
                ),
            ),
        ),
        "2840e14448306ca445e19f8ed685e76a77408a4006fa8ac6af139164714ccd7d",
    ),
}


class TestMultiShardGoldenDigests:
    @pytest.mark.parametrize("name", sorted(MULTI_SHARD_GOLDEN))
    def test_report_matches_golden_digest(self, name):
        config, expected = MULTI_SHARD_GOLDEN[name]
        assert full_digest(run_fleet(config)) == expected

    def test_golden_runs_exercise_what_they_pin(self):
        fleet = run_fleet(MULTI_SHARD_GOLDEN["kill_migrate_rebalance"][0]).shards
        assert fleet.rehomed_sessions > 0 and fleet.log.migrations
        assert fleet.log.rebalance_spawns > 0 and fleet.log.rebalance_drains > 0
        net = run_fleet(MULTI_SHARD_GOLDEN["net_partition"][0]).net
        assert net.counters["retransmits"] > 0
        assert net.counters["false_suspects"] > 0 and net.counters["heals"] > 0


class TestOneShardFleet:
    def test_serve_report_carries_one_shard(self):
        report = serve_run("always")
        assert [row["shard_id"] for row in report.shards.shard_rows] == [0]

    def test_chaos_scenario_is_a_one_shard_fleet_with_faults(self):
        config = default_chaos_scenario(seed=0)
        assert config.n_shards == 1
        assert isinstance(config.faults, FaultsConfig)


class TestFaultsTopologyRefusals:
    """Each faults x topology pair is refused with a declared reason."""

    REFUSED = {
        "n_shards>1": dict(n_shards=2),
        "kills": dict(kills=(ShardKill(shard_id=0, at_s=0.2),)),
        "migrations": dict(migrations=(SessionMigration(at_s=0.1, session_id=0),)),
        "rebalancer": dict(rebalancer=RebalancerConfig(interval_s=0.1)),
        "net": dict(net=NetConfig(enabled=True)),
    }

    @pytest.mark.parametrize("pair", sorted(REFUSED))
    def test_pair_is_refused_by_name(self, pair):
        base = default_chaos_scenario(seed=0)
        fields = {"n_shards": 1, **self.REFUSED[pair]}
        with pytest.raises(ValueError, match=f"faults x {pair}") as err:
            replace(base, **fields)
        assert "does not migrate" in str(err.value)

    def test_migration_rate_is_refused_as_migrations(self):
        with pytest.raises(ValueError, match="faults x migrations"):
            replace(default_chaos_scenario(seed=0), migration_rate_hz=5.0)

    def test_worker_fault_outside_the_pool_is_refused(self):
        base = default_chaos_scenario(seed=0)
        with pytest.raises(ValueError, match="crash targets worker 1 but the pool has 1"):
            FleetConfig(
                serve=replace(base.serve, n_workers=1),
                n_shards=1,
                faults=replace(
                    base.faults,
                    worker_faults=replace(
                        base.faults.worker_faults,
                        crashes=(replace(base.faults.worker_faults.crashes[0], worker_id=1),),
                    ),
                ),
            )
