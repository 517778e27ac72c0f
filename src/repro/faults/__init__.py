"""Fault injection and graceful degradation for the serving stack.

Deterministic, seedable chaos engineering for the multi-session runtime:
input faults on the sensing chain (frame drops, noise bursts, eyelid
occlusion, MIPI bit errors), serving faults with recovery (worker
crashes/stalls/latency spikes, retry + backoff, per-worker circuit
breakers), and a tracking-quality watchdog that trades foveal-region
size and prediction freshness for robustness before falling back to
full-resolution rendering.  A scenario is a one-shard fleet whose config
carries a :class:`FaultsConfig` block; ``python -m repro chaos`` runs one.
"""

from repro.faults.breaker import BreakerState, CircuitBreaker
from repro.faults.config import (
    DEFAULT_TRACKER_PROFILE,
    FaultsConfig,
    InputFaultConfig,
    LatencySpike,
    RecoveryConfig,
    SoftErrorConfig,
    WorkerCrash,
    WorkerFaultSchedule,
    WorkerStall,
    default_chaos_scenario,
)
from repro.faults.injectors import (
    OCCLUSION_BLIND_OPENNESS,
    FaultyMipiLink,
    FaultySensor,
    InputFaultTrace,
    ProcessKill,
    ShardKill,
    SimulatedCrash,
    inject_input_faults,
)
from repro.faults.netfaults import GraySlow, LinkProfile, PartitionWindow
from repro.faults.runtime import ChaosRuntime, build_chaos_fleet

__all__ = [
    "BreakerState",
    "ChaosRuntime",
    "CircuitBreaker",
    "DEFAULT_TRACKER_PROFILE",
    "FaultsConfig",
    "FaultyMipiLink",
    "FaultySensor",
    "GraySlow",
    "InputFaultConfig",
    "InputFaultTrace",
    "LatencySpike",
    "LinkProfile",
    "OCCLUSION_BLIND_OPENNESS",
    "PartitionWindow",
    "ProcessKill",
    "RecoveryConfig",
    "ShardKill",
    "SimulatedCrash",
    "SoftErrorConfig",
    "WorkerCrash",
    "WorkerFaultSchedule",
    "WorkerStall",
    "build_chaos_fleet",
    "default_chaos_scenario",
    "inject_input_faults",
]
