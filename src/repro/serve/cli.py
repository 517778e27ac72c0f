"""``python -m repro serve`` — run a fleet-serving simulation.

Simulates N concurrent HMD clients multiplexed onto a worker pool — a
one-shard fleet — and prints the fleet report.  ``--compare-sequential``
additionally replays the identical fleet with cross-session batching
disabled (``max_batch=1``) and prints both reports plus the goodput
ratio.
"""

from __future__ import annotations

import argparse
from dataclasses import fields

from repro.obs.cli import add_obs_arguments, add_slo_arguments
from repro.recover.cli import add_checkpoint_arguments
from repro.serve.config import AdmissionPolicy, BatchServiceModel, ServeConfig
from repro.serve.fleet.cli import resolved_config, run_cli
from repro.serve.fleet.config import FleetConfig
from repro.serve.fleet.runtime import serve_fleet
from repro.serve.request import build_fleet
from repro.serve.telemetry import FleetReport, format_fleet_report


# ----------------------------------------------------------------------
# Campaign entry point (repro.exp)
# ----------------------------------------------------------------------
def resolve_run_config(params: dict) -> dict:
    """Validate campaign params -> the fully resolved canonical dict.

    Params are flat :class:`ServeConfig` field overrides plus an optional
    ``"service"`` sub-dict of :class:`BatchServiceModel` overrides;
    unknown keys are rejected, and the returned dict spells out *every*
    knob of the one-shard fleet (defaults applied) so the campaign
    config hash is stable across equivalent spellings.
    """
    params = dict(params)
    try:
        service = BatchServiceModel(**params.pop("service", {}))
    except TypeError as err:
        raise ValueError(f"bad serve service params: {err}") from err
    known = {f.name for f in fields(ServeConfig)}
    unknown = sorted(set(params) - known)
    if unknown:
        raise ValueError(
            f"unknown serve params: {unknown} (known: {sorted(known)})"
        )
    if isinstance(params.get("admission"), str):
        params["admission"] = AdmissionPolicy(params["admission"])
    return resolved_config(single_shard(ServeConfig(**params)), service)


def single_shard(config: ServeConfig) -> FleetConfig:
    """The one-shard fleet that serves ``config``."""
    return FleetConfig(serve=config, n_shards=1)


def build_parser() -> argparse.ArgumentParser:
    defaults = ServeConfig()
    service = BatchServiceModel()
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Simulate serving a fleet of gaze-tracked HMD sessions.",
    )
    parser.add_argument("--sessions", type=int, default=defaults.n_sessions)
    parser.add_argument("--duration", type=float, default=defaults.duration_s,
                        help="simulated window in seconds")
    parser.add_argument("--fps", type=float, default=defaults.fps,
                        help="per-session frame rate")
    parser.add_argument("--workers", type=int, default=defaults.n_workers)
    parser.add_argument("--max-batch", type=int, default=defaults.max_batch)
    parser.add_argument("--batch-window-ms", type=float,
                        default=defaults.batch_window_s * 1e3,
                        help="dynamic batching window in milliseconds")
    parser.add_argument("--admission",
                        choices=[p.value for p in AdmissionPolicy],
                        default=defaults.admission.value)
    parser.add_argument("--queue-budget", type=float,
                        default=defaults.queue_budget_deadlines,
                        help="admission budget in units of the frame deadline")
    parser.add_argument("--deadline-frames", type=float,
                        default=defaults.deadline_frames,
                        help="per-frame deadline in frame periods")
    parser.add_argument("--reuse-displacement", type=float,
                        default=defaults.reuse_displacement_deg,
                        help="Algorithm-1 reuse threshold in degrees "
                        "(smaller => more predict-path load)")
    parser.add_argument("--service-fixed-ms", type=float,
                        default=service.fixed_s * 1e3,
                        help="per-dispatch overhead of one batch")
    parser.add_argument("--service-per-sample-ms", type=float,
                        default=service.per_sample_s * 1e3,
                        help="marginal per-sample service time")
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--compare-sequential", action="store_true",
                        help="also run the max_batch=1 baseline on the same fleet")
    parser.add_argument("--max-session-rows", type=int, default=8)
    add_checkpoint_arguments(parser)
    add_obs_arguments(parser)
    add_slo_arguments(parser)
    return parser


def config_from_args(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
        n_sessions=args.sessions,
        duration_s=args.duration,
        fps=args.fps,
        n_workers=args.workers,
        max_batch=args.max_batch,
        batch_window_s=args.batch_window_ms * 1e-3,
        admission=AdmissionPolicy(args.admission),
        queue_budget_deadlines=args.queue_budget,
        deadline_frames=args.deadline_frames,
        reuse_displacement_deg=args.reuse_displacement,
        seed=args.seed,
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        service = BatchServiceModel(
            fixed_s=args.service_fixed_ms * 1e-3,
            per_sample_s=args.service_per_sample_ms * 1e-3,
        )
    except ValueError as err:
        parser.error(str(err))
    report = run_cli(single_shard(config), service, args, parser, "serve")
    if not isinstance(report, FleetReport):
        return report  # simulated crash exit code
    if args.compare_sequential:
        baseline = serve_fleet(
            config.sequential_baseline(), service=service,
            fleet=build_fleet(config),
        )
        print("\n--- sequential baseline (max_batch=1) ---\n")
        print(format_fleet_report(baseline, max_session_rows=args.max_session_rows))
        batched = report.predict_goodput_fps
        solo = baseline.predict_goodput_fps
        ratio = batched / solo if solo > 0 else float("inf")
        print(
            f"\nCross-session batching: {batched:.0f} vs {solo:.0f} "
            f"fresh predictions/s ({ratio:.2f}x)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
