"""The serving fleet: consistent-hash routing, live session migration,
and shard failover under chaos.

The fleet is the repo's one serving runtime.  It runs N
:class:`~repro.serve.fleet.shard.ShardRuntime` event cores behind a
seeded consistent-hash ring (``python -m repro serve`` is a one-shard
fleet; ``chaos`` is a one-shard fleet with a faults block) while keeping
the repo's two core guarantees intact:

* **determinism** — one merged global event order (control events, then
  shards by id) makes two same-config runs byte-identical, and the full
  ``repro.recover`` checkpoint/journal protocol applies to the whole
  fleet (``RUNTIME_KIND = "fleet"``).
* **conservation** — every generated frame ends in exactly one ledger
  bucket fleet-wide; a shard kill loses *only* the frames physically on
  the shard at the kill instant (queued or in flight), recorded
  ``lost_shard``, never silently.
"""

from repro.faults.injectors import ShardKill
from repro.faults.netfaults import GraySlow, LinkProfile, PartitionWindow
from repro.serve.fleet.config import (
    FailoverConfig,
    FleetConfig,
    RebalancerConfig,
    SessionMigration,
    planned_migrations,
    rebalance_ticks,
)
from repro.serve.fleet.report import FleetLog, FleetSection, NetSection
from repro.serve.fleet.ring import HashRing
from repro.serve.fleet.runtime import FleetRuntime, run_fleet, serve_fleet
from repro.serve.fleet.shard import InferenceFn, MigrationPayload, ShardRuntime
from repro.serve.fleet.transport import FleetTransport, NetConfig

__all__ = [
    "FailoverConfig",
    "FleetConfig",
    "FleetLog",
    "FleetRuntime",
    "FleetSection",
    "FleetTransport",
    "GraySlow",
    "HashRing",
    "InferenceFn",
    "LinkProfile",
    "MigrationPayload",
    "NetConfig",
    "NetSection",
    "PartitionWindow",
    "RebalancerConfig",
    "SessionMigration",
    "ShardKill",
    "ShardRuntime",
    "planned_migrations",
    "rebalance_ticks",
    "run_fleet",
    "serve_fleet",
]
