"""``python -m repro fleet`` — run a sharded fleet simulation.

Routes N sessions onto shards by consistent hashing, optionally kills
shards mid-run (``--kill-shard 2@0.6``), live-migrates sessions
(``--migrate 7@0.3`` or a seeded ``--migration-rate``), and prints the
fleet report with its shard section.  ``--compare-no-kill`` replays the
identical fleet without the chaos schedule so the failover cost is a
byte-level diff away.

``--net`` (or any partition/gray window) routes every frame over the
simulated lossy transport: ``--net-drop/--net-dup/--net-jitter-ms``
shape the links, ``--partition 1,2@0.2:0.35`` cuts shards off the
router for a window, ``--gray-shard 1@0.2:0.4`` makes one alive but
slow, and the heartbeat failure detector — not the omniscient kill
event — drives failover.  ``--compare-no-fault`` replays the identical
fleet with a *clean* network (protocol still on) so the fault cost is
isolated from the protocol overhead.
"""

from __future__ import annotations

import argparse
from dataclasses import fields

from repro.faults.injectors import ShardKill
from repro.faults.netfaults import GraySlow, LinkProfile, PartitionWindow
from repro.obs.cli import (
    add_obs_arguments,
    add_slo_arguments,
    emit_obs_artifacts,
    emit_slo_artifacts,
    obs_from_args,
    resolve_obs_out,
)
from repro.recover.cli import add_checkpoint_arguments, run_checkpointed_cli
from repro.serve.config import BatchServiceModel, ServeConfig
from repro.serve.fleet.config import (
    FailoverConfig,
    FleetConfig,
    RebalancerConfig,
    SessionMigration,
)
from repro.serve.fleet.runtime import FleetRuntime, run_fleet
from repro.serve.fleet.transport import NetConfig
from repro.serve.telemetry import FleetReport, format_fleet_report


def _parse_int(token: str, what: str, flag: str, spec: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(
            f"{flag}: {token!r} is not an integer {what} in {spec!r}"
        ) from None


def _parse_time(token: str, flag: str, spec: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(
            f"{flag}: {token!r} is not a time in seconds in {spec!r}"
        ) from None


def _parse_at(spec: str, flag: str) -> tuple[int, float]:
    """Parse an ``ID@SECONDS`` spec (e.g. ``--kill-shard 2@0.6``),
    naming the exact bad token on failure."""
    ident, sep, at_s = spec.partition("@")
    if not sep or not ident or not at_s:
        raise ValueError(f"{flag} expects ID@SECONDS, got {spec!r}")
    return (
        _parse_int(ident, "id", flag, spec),
        _parse_time(at_s, flag, spec),
    )


def _parse_span(token: str, flag: str, spec: str) -> tuple[float, float]:
    start, sep, stop = token.partition(":")
    if not sep or not start or not stop:
        raise ValueError(
            f"{flag} expects a START:STOP window in seconds, got {spec!r}"
        )
    return (
        _parse_time(start, flag, spec),
        _parse_time(stop, flag, spec),
    )


def _parse_partition(spec: str, flag: str = "--partition") -> PartitionWindow:
    """Parse ``SHARDS@START:STOP`` (e.g. ``1,2@0.2:0.35``)."""
    shards, sep, window = spec.partition("@")
    if not sep or not shards or not window:
        raise ValueError(f"{flag} expects SHARDS@START:STOP, got {spec!r}")
    shard_ids = tuple(
        _parse_int(token, "shard id", flag, spec)
        for token in shards.split(",")
        if token != ""
    )
    if not shard_ids:
        raise ValueError(f"{flag} names no shards in {spec!r}")
    start_s, stop_s = _parse_span(window, flag, spec)
    return PartitionWindow(start_s=start_s, stop_s=stop_s, shard_ids=shard_ids)


def _parse_gray(spec: str, delay_factor: float) -> GraySlow:
    """Parse ``ID@START:STOP`` (e.g. ``--gray-shard 1@0.2:0.4``)."""
    flag = "--gray-shard"
    ident, sep, window = spec.partition("@")
    if not sep or not ident or not window:
        raise ValueError(f"{flag} expects ID@START:STOP, got {spec!r}")
    start_s, stop_s = _parse_span(window, flag, spec)
    return GraySlow(
        shard_id=_parse_int(ident, "shard id", flag, spec),
        start_s=start_s,
        stop_s=stop_s,
        delay_factor=delay_factor,
    )


def _net_from_params(raw: dict) -> NetConfig:
    """Build a :class:`NetConfig` from a partial campaign sub-dict
    (nested ``link`` / ``partitions`` / ``gray`` blocks optional)."""
    raw = dict(raw)
    link = LinkProfile(**raw.pop("link", {}))
    partitions = tuple(
        PartitionWindow(
            start_s=float(w["start_s"]),
            stop_s=float(w["stop_s"]),
            shard_ids=tuple(int(s) for s in w["shard_ids"]),
        )
        for w in raw.pop("partitions", [])
    )
    gray = tuple(GraySlow(**w) for w in raw.pop("gray", []))
    return NetConfig(link=link, partitions=partitions, gray=gray, **raw)


# ----------------------------------------------------------------------
# Campaign entry point (repro.exp)
# ----------------------------------------------------------------------
def resolve_run_config(params: dict) -> dict:
    """Validate campaign params -> the fully resolved canonical dict.

    Params are flat :class:`FleetConfig` field overrides, with ``serve``
    and ``service`` sub-dicts for the template / service model, ``kills``
    as ``[{"shard_id", "at_s"}, ...]``, ``migrations`` as
    ``[{"at_s", "session_id", "to_shard"?}, ...]``, and ``failover`` /
    ``rebalancer`` sub-dicts.
    """
    params = dict(params)
    try:
        service = BatchServiceModel(**params.pop("service", {}))
        serve = ServeConfig(**params.pop("serve", {}))
        kills = tuple(
            ShardKill(**k) for k in params.pop("kills", [])
        )
        migrations = tuple(
            SessionMigration(**m) for m in params.pop("migrations", [])
        )
        failover = FailoverConfig(**params.pop("failover", {}))
        rebalancer = RebalancerConfig(**params.pop("rebalancer", {}))
        net = _net_from_params(params.pop("net", {}))
    except TypeError as err:
        raise ValueError(f"bad fleet params: {err}") from err
    known = {f.name for f in fields(FleetConfig)} - {
        "serve", "kills", "migrations", "failover", "rebalancer", "net",
        "faults",
    }
    unknown = sorted(set(params) - known)
    if unknown:
        raise ValueError(
            f"unknown fleet params: {unknown} (known: {sorted(known)})"
        )
    config = FleetConfig(
        serve=serve,
        kills=kills,
        migrations=migrations,
        failover=failover,
        rebalancer=rebalancer,
        net=net,
        **params,
    )
    return resolved_config(config, service)


def runtime_from_resolved(resolved: dict, obs=None) -> FleetRuntime:
    """The runtime of one resolved config (``{"kind": "fleet", "config",
    "service"}``) — what the ``serve``, ``chaos`` and ``fleet`` campaign
    runners and the recover probe execute."""
    from repro.recover.configio import (
        fleet_config_from_dict,
        service_model_from_dict,
    )

    return FleetRuntime(
        fleet_config_from_dict(resolved["config"]),
        service=service_model_from_dict(resolved["service"]),
        obs=obs,
    )


def run_from_config(params: dict, obs=None) -> FleetReport:
    """Campaign entry point: params dict -> the run's FleetReport."""
    return runtime_from_resolved(resolve_run_config(params), obs=obs).run()


def resolved_config(config: FleetConfig, service: BatchServiceModel) -> dict:
    """The canonical ``{"kind": "fleet", ...}`` dict of one run."""
    from repro.recover.configio import (
        fleet_config_to_dict,
        service_model_to_dict,
    )

    return {
        "kind": "fleet",
        "config": fleet_config_to_dict(config),
        "service": service_model_to_dict(service),
    }


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def run_cli(
    config: FleetConfig,
    service: BatchServiceModel,
    args: argparse.Namespace,
    parser: argparse.ArgumentParser,
    name: str,
):
    """The run shared by the ``serve``, ``chaos`` and ``fleet`` CLIs.

    Honours the shared checkpoint / obs / SLO flags, prints the report
    (plus SLO verdicts) and writes the obs artifacts under
    ``obs-out/<name>-<config-hash>`` by default.  Returns the
    :class:`FleetReport`, or ``EXIT_SIMULATED_CRASH`` when
    ``--kill-at-event`` fired.
    """
    if args.kill_at_event is not None and args.checkpoint_dir is None:
        parser.error("--kill-at-event requires --checkpoint-dir")
    if args.slo is not None and args.checkpoint_dir is not None:
        parser.error("--slo and --checkpoint-dir are mutually exclusive "
                     "(the SLO engine is not checkpointed)")
    obs = obs_from_args(args)
    slo_engine = None
    if args.slo is not None:
        from repro.obs.config import Obs, ObsConfig
        from repro.obs.slo import SloConfigError, SloEngine, resolve_slo_config

        if obs is None:
            obs = Obs(ObsConfig(top_k=args.obs_top))
        try:
            slo_config = resolve_slo_config(args.slo, config.serve.deadline_s)
        except SloConfigError as err:
            parser.error(str(err))
        slo_engine = SloEngine(slo_config, obs)
    runtime = FleetRuntime(config, service=service, obs=obs)
    if args.checkpoint_dir is not None:
        report = run_checkpointed_cli(runtime, args, parser)
        if not isinstance(report, FleetReport):
            return report
    else:
        if slo_engine is not None:
            runtime.attach_slo(slo_engine)
        report = runtime.run()
    print(format_fleet_report(report, max_session_rows=args.max_session_rows))
    if slo_engine is not None:
        from repro.obs.slo import evaluate_summary, format_summary_verdicts
        from repro.serve.telemetry import fleet_summary_metrics

        print("\n--- SLO verdicts ---\n")
        print(slo_engine.format_verdicts())
        summary_objectives = slo_engine.config.summary_objectives
        if summary_objectives:
            rows = evaluate_summary(
                summary_objectives, fleet_summary_metrics(report)
            )
            print()
            print(format_summary_verdicts(rows))
    if args.obs:
        out_dir = resolve_obs_out(
            args.obs_out, name, resolved_config(config, service)
        )
        emit_obs_artifacts(obs, out_dir, top_k=args.obs_top)
        if slo_engine is not None:
            emit_slo_artifacts(slo_engine, out_dir)
    return report


def build_parser() -> argparse.ArgumentParser:
    serve = ServeConfig()
    fleet = FleetConfig()
    failover = FailoverConfig()
    rebalancer = RebalancerConfig()
    parser = argparse.ArgumentParser(
        prog="python -m repro fleet",
        description="Simulate a sharded serving fleet with consistent-hash "
        "routing, live migration, and shard failover.",
    )
    parser.add_argument("--sessions", type=int, default=serve.n_sessions,
                        help="fleet-total session count")
    parser.add_argument("--shards", type=int, default=fleet.n_shards)
    parser.add_argument("--duration", type=float, default=serve.duration_s,
                        help="simulated window in seconds")
    parser.add_argument("--fps", type=float, default=serve.fps,
                        help="per-session frame rate")
    parser.add_argument("--workers", type=int, default=serve.n_workers,
                        help="workers PER SHARD")
    parser.add_argument("--max-batch", type=int, default=serve.max_batch)
    parser.add_argument("--queue-budget", type=float,
                        default=serve.queue_budget_deadlines,
                        help="admission budget in units of the frame deadline")
    parser.add_argument("--reuse-displacement", type=float,
                        default=serve.reuse_displacement_deg,
                        help="Algorithm-1 reuse threshold in degrees")
    parser.add_argument("--seed", type=int, default=serve.seed)
    parser.add_argument("--vnodes", type=int, default=fleet.vnodes,
                        help="virtual nodes per shard on the hash ring")
    parser.add_argument("--ring-seed", type=int, default=fleet.ring_seed)
    parser.add_argument("--kill-shard", action="append", default=[],
                        metavar="ID@T",
                        help="kill shard ID at T seconds (repeatable)")
    parser.add_argument("--migrate", action="append", default=[],
                        metavar="SID@T",
                        help="live-migrate session SID at T seconds "
                        "(repeatable; ring picks the target)")
    parser.add_argument("--migration-rate", type=float,
                        default=fleet.migration_rate_hz,
                        help="seeded random migrations per second")
    parser.add_argument("--migration-seed", type=int,
                        default=fleet.migration_seed)
    parser.add_argument("--rebalance-interval", type=float,
                        default=rebalancer.interval_s,
                        help="rebalancer tick period in seconds (0 disables)")
    parser.add_argument("--rebalance-high-ms", type=float,
                        default=rebalancer.p95_high_s * 1e3,
                        help="P95 queue wait above which a shard is hot")
    parser.add_argument("--rebalance-low-ms", type=float,
                        default=rebalancer.p95_low_s * 1e3,
                        help="P95 queue wait below which the fleet may shrink")
    parser.add_argument("--guard", type=float, default=failover.guard_s,
                        help="breaker-guarded window after a re-home, seconds")
    net = NetConfig()
    group = parser.add_argument_group(
        "net transport",
        "simulated lossy router<->shard network (any --partition or "
        "--gray-shard implies --net)",
    )
    group.add_argument("--net", action="store_true",
                       help="route frames over the simulated transport")
    group.add_argument("--net-seed", type=int, default=net.seed)
    group.add_argument("--net-drop", type=float, default=0.0,
                       metavar="P", help="per-message drop probability")
    group.add_argument("--net-dup", type=float, default=0.0,
                       metavar="P", help="per-message duplication probability")
    group.add_argument("--net-delay-ms", type=float, default=0.5,
                       help="base one-way link delay")
    group.add_argument("--net-jitter-ms", type=float, default=0.0,
                       help="uniform extra delay (reordering source)")
    group.add_argument("--net-ack-timeout-ms", type=float,
                       default=net.ack_timeout_s * 1e3,
                       help="first retransmit timeout")
    group.add_argument("--net-max-retransmits", type=int,
                       default=net.max_retransmits)
    group.add_argument("--net-backoff", type=float,
                       default=net.backoff_factor,
                       help="exponential backoff factor between retransmits")
    group.add_argument("--net-heartbeat-ms", type=float,
                       default=net.heartbeat_s * 1e3,
                       help="shard heartbeat period")
    group.add_argument("--net-detect-ms", type=float,
                       default=net.detect_every_s * 1e3,
                       help="failure-detector evaluation period")
    group.add_argument("--net-phi", type=float, default=net.phi_threshold,
                       help="suspicion threshold in heartbeat intervals")
    group.add_argument("--partition", action="append", default=[],
                       metavar="SHARDS@T1:T2",
                       help="cut shards off the router for [T1,T2) "
                       "(e.g. 1,2@0.2:0.35; repeatable)")
    group.add_argument("--gray-shard", action="append", default=[],
                       metavar="ID@T1:T2",
                       help="gray failure: shard alive but slow for "
                       "[T1,T2) (repeatable)")
    group.add_argument("--gray-factor", type=float, default=25.0,
                       help="delay multiplier of gray-slow windows")
    group.add_argument("--net-on-exhaust", choices=("degrade", "drop"),
                       default=net.on_exhaust,
                       help="what the router does with a frame whose "
                       "retransmits are exhausted")
    parser.add_argument("--compare-no-kill", action="store_true",
                        help="also run the same fleet without the chaos "
                        "schedule and print both reports")
    parser.add_argument("--compare-no-fault", action="store_true",
                        help="also run the same fleet over a CLEAN network "
                        "(transport protocol on, faults and kills off) and "
                        "print both reports")
    parser.add_argument("--max-session-rows", type=int, default=8)
    add_checkpoint_arguments(parser)
    add_obs_arguments(parser)
    add_slo_arguments(parser)
    return parser


def fleet_config_from_args(args: argparse.Namespace) -> FleetConfig:
    serve = ServeConfig(
        n_sessions=args.sessions,
        duration_s=args.duration,
        fps=args.fps,
        n_workers=args.workers,
        max_batch=args.max_batch,
        queue_budget_deadlines=args.queue_budget,
        reuse_displacement_deg=args.reuse_displacement,
        seed=args.seed,
    )
    kills = tuple(
        ShardKill(shard_id=sid, at_s=at_s)
        for sid, at_s in (
            _parse_at(spec, "--kill-shard") for spec in args.kill_shard
        )
    )
    migrations = tuple(
        SessionMigration(at_s=at_s, session_id=sid)
        for sid, at_s in (
            _parse_at(spec, "--migrate") for spec in args.migrate
        )
    )
    partitions = tuple(_parse_partition(spec) for spec in args.partition)
    gray = tuple(
        _parse_gray(spec, args.gray_factor) for spec in args.gray_shard
    )
    net_enabled = args.net or bool(partitions) or bool(gray)
    net = NetConfig(
        enabled=net_enabled,
        seed=args.net_seed,
        link=LinkProfile(
            drop_rate=args.net_drop,
            dup_rate=args.net_dup,
            delay_s=args.net_delay_ms * 1e-3,
            jitter_s=args.net_jitter_ms * 1e-3,
        ),
        partitions=partitions,
        gray=gray,
        ack_timeout_s=args.net_ack_timeout_ms * 1e-3,
        backoff_factor=args.net_backoff,
        max_retransmits=args.net_max_retransmits,
        heartbeat_s=args.net_heartbeat_ms * 1e-3,
        detect_every_s=args.net_detect_ms * 1e-3,
        phi_threshold=args.net_phi,
        on_exhaust=args.net_on_exhaust,
    )
    return FleetConfig(
        serve=serve,
        n_shards=args.shards,
        vnodes=args.vnodes,
        ring_seed=args.ring_seed,
        kills=kills,
        migrations=migrations,
        migration_rate_hz=args.migration_rate,
        migration_seed=args.migration_seed,
        failover=FailoverConfig(guard_s=args.guard),
        rebalancer=RebalancerConfig(
            interval_s=args.rebalance_interval,
            p95_high_s=args.rebalance_high_ms * 1e-3,
            p95_low_s=args.rebalance_low_ms * 1e-3,
        ),
        net=net,
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = fleet_config_from_args(args)
    except ValueError as err:
        parser.error(str(err))
    if args.compare_no_fault and not config.net.enabled:
        parser.error("--compare-no-fault requires the net transport "
                     "(--net, --partition, or --gray-shard)")
    report = run_cli(config, BatchServiceModel(), args, parser, "fleet")
    if not isinstance(report, FleetReport):
        return report  # simulated crash exit code
    if args.compare_no_kill:
        from dataclasses import replace

        baseline = run_fleet(replace(config, kills=()))
        print("\n--- no-kill baseline (same fleet, no chaos schedule) ---\n")
        print(
            format_fleet_report(
                baseline, max_session_rows=args.max_session_rows
            )
        )
        print(
            f"\nFailover cost: goodput {report.predict_goodput_fps:.0f} vs "
            f"{baseline.predict_goodput_fps:.0f} fresh predictions/s, "
            f"{report.lost_shard_frames} frames lost with killed shards "
            f"(baseline {baseline.lost_shard_frames})"
        )
    if args.compare_no_fault:
        from dataclasses import replace

        clean_net = replace(
            config.net,
            link=LinkProfile(delay_s=config.net.link.delay_s),
            partitions=(),
            gray=(),
        )
        baseline = run_fleet(replace(config, kills=(), net=clean_net))
        print("\n--- clean-network baseline (same fleet + protocol, "
              "no faults) ---\n")
        print(
            format_fleet_report(
                baseline, max_session_rows=args.max_session_rows
            )
        )
        faulted = report.net.counters
        clean = baseline.net.counters
        print(
            f"\nFault cost: goodput {report.predict_goodput_fps:.0f} vs "
            f"{baseline.predict_goodput_fps:.0f} fresh predictions/s | "
            f"retransmits {faulted['retransmits']} vs "
            f"{clean['retransmits']} | degraded+lost "
            f"{faulted['exhausted_degraded'] + faulted['exhausted_lost']} "
            f"vs {clean['exhausted_degraded'] + clean['exhausted_lost']} | "
            f"{report.lost_shard_frames} frames died with killed shards "
            f"(baseline {baseline.lost_shard_frames})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
