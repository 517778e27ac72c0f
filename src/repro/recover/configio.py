"""Config <-> dict codecs for the checkpoint manifest.

A checkpoint must be restorable from the directory alone, so the
manifest embeds the *complete* run configuration — the fleet config
(serve template, topology, faults block) and the batch service model.
These codecs are explicit (not a generic pickle) so the on-disk format
stays a documented, versioned JSON schema: enums go by value, tuples
round-trip through lists, and reconstruction re-runs every dataclass
validator.

The experiment-campaign layer (``repro.exp``) reuses these codecs as
its config canonicalizer: a run's identity is the
:func:`~repro.recover.codec.config_hash` of the *fully resolved* config
dict these functions emit, so defaults, dict ordering, and equivalent
spellings all collapse to one hash.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.faults.config import (
    FaultsConfig,
    InputFaultConfig,
    RecoveryConfig,
    SoftErrorConfig,
)
from repro.serve.config import AdmissionPolicy, BatchServiceModel, ServeConfig
from repro.serve.workers import (
    LatencySpike,
    WorkerCrash,
    WorkerFaultSchedule,
    WorkerStall,
)
from repro.system.tfr import TrackerSystemProfile
from repro.system.watchdog import WatchdogConfig


def serve_config_to_dict(config: ServeConfig) -> dict:
    state = asdict(config)
    state["admission"] = config.admission.value
    return state


def serve_config_from_dict(state: dict) -> ServeConfig:
    kwargs = dict(state)
    kwargs["admission"] = AdmissionPolicy(kwargs["admission"])
    return ServeConfig(**kwargs)


def service_model_to_dict(service: BatchServiceModel) -> dict:
    return asdict(service)


def service_model_from_dict(state: dict) -> BatchServiceModel:
    return BatchServiceModel(**state)


def faults_config_to_dict(config: FaultsConfig) -> dict:
    faults = config.worker_faults
    return {
        "input_faults": asdict(config.input_faults),
        "worker_faults": {
            "crashes": [asdict(c) for c in faults.crashes],
            "stalls": [asdict(s) for s in faults.stalls],
            "spikes": [asdict(s) for s in faults.spikes],
        },
        "recovery": asdict(config.recovery),
        "watchdog": asdict(config.watchdog),
        "profile": asdict(config.profile),
        "soft_errors": asdict(config.soft_errors),
        "fault_seed": config.fault_seed,
    }


def faults_config_from_dict(state: dict) -> FaultsConfig:
    input_faults = dict(state["input_faults"])
    input_faults["occlusion_level"] = tuple(input_faults["occlusion_level"])
    faults = state["worker_faults"]
    return FaultsConfig(
        input_faults=InputFaultConfig(**input_faults),
        worker_faults=WorkerFaultSchedule(
            crashes=tuple(WorkerCrash(**c) for c in faults["crashes"]),
            stalls=tuple(WorkerStall(**s) for s in faults["stalls"]),
            spikes=tuple(LatencySpike(**s) for s in faults["spikes"]),
        ),
        recovery=RecoveryConfig(**state["recovery"]),
        watchdog=WatchdogConfig(**state["watchdog"]),
        profile=TrackerSystemProfile(**state["profile"]),
        # Configs resolved before soft errors existed ran without them.
        soft_errors=SoftErrorConfig(**state["soft_errors"])
        if "soft_errors" in state
        else SoftErrorConfig.inactive(),
        fault_seed=int(state["fault_seed"]),
    )


def net_config_to_dict(config) -> dict:
    """Serialize a :class:`~repro.serve.fleet.transport.NetConfig`."""
    return {
        "enabled": config.enabled,
        "seed": config.seed,
        "link": asdict(config.link),
        "partitions": [
            {
                "start_s": w.start_s,
                "stop_s": w.stop_s,
                "shard_ids": list(w.shard_ids),
            }
            for w in config.partitions
        ],
        "gray": [asdict(w) for w in config.gray],
        "ack_timeout_s": config.ack_timeout_s,
        "backoff_factor": config.backoff_factor,
        "max_retransmits": config.max_retransmits,
        "heartbeat_s": config.heartbeat_s,
        "detect_every_s": config.detect_every_s,
        "phi_threshold": config.phi_threshold,
        "on_exhaust": config.on_exhaust,
    }


def net_config_from_dict(state: dict):
    from repro.faults.netfaults import GraySlow, LinkProfile, PartitionWindow
    from repro.serve.fleet.transport import NetConfig

    return NetConfig(
        enabled=bool(state["enabled"]),
        seed=int(state["seed"]),
        link=LinkProfile(**state["link"]),
        partitions=tuple(
            PartitionWindow(
                start_s=float(w["start_s"]),
                stop_s=float(w["stop_s"]),
                shard_ids=tuple(int(s) for s in w["shard_ids"]),
            )
            for w in state["partitions"]
        ),
        gray=tuple(GraySlow(**w) for w in state["gray"]),
        ack_timeout_s=float(state["ack_timeout_s"]),
        backoff_factor=float(state["backoff_factor"]),
        max_retransmits=int(state["max_retransmits"]),
        heartbeat_s=float(state["heartbeat_s"]),
        detect_every_s=float(state["detect_every_s"]),
        phi_threshold=float(state["phi_threshold"]),
        on_exhaust=str(state["on_exhaust"]),
    )


def fleet_config_to_dict(config) -> dict:
    """Serialize a :class:`~repro.serve.fleet.FleetConfig`.

    The ``net`` and ``faults`` keys are present only when the transport
    is enabled / the faults block is set, so config hashes of plain
    fleet runs do not depend on those features existing.
    """
    return {
        "serve": serve_config_to_dict(config.serve),
        "n_shards": config.n_shards,
        "vnodes": config.vnodes,
        "ring_seed": config.ring_seed,
        "kills": [asdict(k) for k in config.kills],
        "migrations": [asdict(m) for m in config.migrations],
        "migration_rate_hz": config.migration_rate_hz,
        "migration_seed": config.migration_seed,
        "failover": asdict(config.failover),
        "rebalancer": asdict(config.rebalancer),
        **(
            {"net": net_config_to_dict(config.net)}
            if config.net.enabled
            else {}
        ),
        **(
            {"faults": faults_config_to_dict(config.faults)}
            if config.faults is not None
            else {}
        ),
    }


def fleet_config_from_dict(state: dict):
    from repro.faults.injectors import ShardKill
    from repro.serve.fleet.config import (
        FailoverConfig,
        FleetConfig,
        RebalancerConfig,
        SessionMigration,
    )
    from repro.serve.fleet.transport import NetConfig

    return FleetConfig(
        serve=serve_config_from_dict(state["serve"]),
        n_shards=int(state["n_shards"]),
        vnodes=int(state["vnodes"]),
        ring_seed=int(state["ring_seed"]),
        kills=tuple(ShardKill(**k) for k in state["kills"]),
        migrations=tuple(SessionMigration(**m) for m in state["migrations"]),
        migration_rate_hz=float(state["migration_rate_hz"]),
        migration_seed=int(state["migration_seed"]),
        failover=FailoverConfig(**state["failover"]),
        rebalancer=RebalancerConfig(**state["rebalancer"]),
        net=(
            net_config_from_dict(state["net"])
            if "net" in state
            else NetConfig()
        ),
        faults=(
            faults_config_from_dict(state["faults"])
            if "faults" in state
            else None
        ),
    )


def sdc_campaign_to_dict(config) -> dict:
    """Serialize an :class:`~repro.reliability.campaign.SdcCampaignConfig`.

    Tuples round-trip through lists (canonical JSON has no tuples); the
    field set is exactly the dataclass's, so unknown keys in a stored
    dict fail reconstruction loudly.
    """
    state = asdict(config)
    state["fit_rates"] = list(config.fit_rates)
    state["protections"] = list(config.protections)
    return state


def sdc_campaign_from_dict(state: dict):
    from repro.reliability.campaign import SdcCampaignConfig

    kwargs = dict(state)
    kwargs["fit_rates"] = tuple(float(f) for f in kwargs["fit_rates"])
    kwargs["protections"] = tuple(str(p) for p in kwargs["protections"])
    return SdcCampaignConfig(**kwargs)
