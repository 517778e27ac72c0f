"""``python -m repro chaos`` — run a reproducible chaos scenario.

Starts from the canonical acceptance scenario (10% sensor frame drops,
noise-burst/occlusion mix, one worker crash, one latency-spike window)
and lets flags scale or disable each fault class.  The printed report is
byte-identical across runs of the same flags — ``--compare-fault-free``
additionally replays the identical fleet with every fault disabled and
prints the degradation budget actually consumed.
"""

from __future__ import annotations

import argparse
from dataclasses import fields, replace

from repro.faults.config import (
    InputFaultConfig,
    SoftErrorConfig,
    WorkerFaultSchedule,
    default_chaos_scenario,
)
from repro.obs.cli import add_obs_arguments, add_slo_arguments
from repro.recover.cli import add_checkpoint_arguments
from repro.serve.config import AdmissionPolicy, BatchServiceModel, ServeConfig
from repro.serve.fleet.cli import resolved_config, run_cli
from repro.serve.fleet.config import FleetConfig
from repro.serve.fleet.runtime import run_fleet
from repro.serve.telemetry import FleetReport, format_fleet_report


def _checked_overrides(overrides: dict, cls, what: str) -> dict:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ValueError(
            f"unknown {what} params: {unknown} (known: {sorted(known)})"
        )
    return dict(overrides)


def config_from_params(params: dict) -> FleetConfig:
    """Campaign params -> a validated one-shard :class:`FleetConfig`
    carrying the faults block.

    Starts from :func:`default_chaos_scenario` (exactly like the CLI)
    and applies overrides: ``"serve"`` / ``"input_faults"`` sub-dicts of
    dataclass field overrides, plus the scalar knobs the CLI exposes
    (``seed``, ``no_worker_faults``, ``soft_error_fit``,
    ``soft_error_accel``, ``fault_free``).  Unknown keys are rejected.
    """
    params = dict(params)
    seed = int(params.pop("seed", 0))
    base_fleet = default_chaos_scenario(seed=seed)
    base = base_fleet.faults

    serve_over = _checked_overrides(params.pop("serve", {}), ServeConfig, "chaos serve")
    if isinstance(serve_over.get("admission"), str):
        serve_over["admission"] = AdmissionPolicy(serve_over["admission"])
    serve = replace(base_fleet.serve, **serve_over)

    faults_over = _checked_overrides(
        params.pop("input_faults", {}), InputFaultConfig, "chaos input-fault"
    )
    if "occlusion_level" in faults_over:
        faults_over["occlusion_level"] = tuple(faults_over["occlusion_level"])
    input_faults = replace(base.input_faults, **faults_over)

    no_worker_faults = bool(params.pop("no_worker_faults", False))
    worker_faults = base.worker_faults
    if no_worker_faults or any(
        c.worker_id >= serve.n_workers for c in worker_faults.crashes
    ):
        worker_faults = WorkerFaultSchedule()

    fit = float(params.pop("soft_error_fit", 0.0))
    accel = float(params.pop("soft_error_accel", 5e10))
    soft_errors = SoftErrorConfig.inactive()
    if fit > 0:
        soft_errors = SoftErrorConfig(
            fit_per_mbit=fit, acceleration=accel, seed=seed
        )

    no_faults = bool(params.pop("fault_free", False))
    if params:
        raise ValueError(
            f"unknown chaos params: {sorted(params)} (known: "
            "['fault_free', 'input_faults', 'no_worker_faults', 'seed', "
            "'serve', 'soft_error_accel', 'soft_error_fit'])"
        )
    faults = replace(
        base,
        input_faults=input_faults,
        worker_faults=worker_faults,
        soft_errors=soft_errors,
    )
    config = replace(base_fleet, serve=serve, faults=faults)
    return fault_free(config) if no_faults else config


def fault_free(config: FleetConfig) -> FleetConfig:
    """The same fleet with every fault disabled (the baseline run)."""
    return replace(config, faults=config.faults.fault_free())


# ----------------------------------------------------------------------
# Campaign entry point (repro.exp)
# ----------------------------------------------------------------------
def resolve_run_config(params: dict) -> dict:
    """Validate campaign params -> the fully resolved canonical dict."""
    return resolved_config(config_from_params(params), BatchServiceModel())


def build_parser() -> argparse.ArgumentParser:
    base = default_chaos_scenario()
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Run a seeded fault-injection scenario on the serving fleet.",
    )
    parser.add_argument("--sessions", type=int, default=base.serve.n_sessions)
    parser.add_argument("--duration", type=float, default=base.serve.duration_s,
                        help="simulated window in seconds")
    parser.add_argument("--workers", type=int, default=base.serve.n_workers)
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds both the fleet and the fault streams")
    parser.add_argument("--drop-rate", type=float,
                        default=base.faults.input_faults.frame_drop_rate,
                        help="i.i.d. sensor frame-drop probability")
    parser.add_argument("--noise-burst-rate", type=float,
                        default=base.faults.input_faults.noise_burst_rate_hz,
                        help="tracking noise bursts per second per session")
    parser.add_argument("--occlusion-rate", type=float,
                        default=base.faults.input_faults.occlusion_rate_hz,
                        help="eyelid occlusion episodes per second per session")
    parser.add_argument("--bit-error-rate", type=float,
                        default=base.faults.input_faults.bit_error_rate,
                        help="MIPI per-bit transient error probability")
    parser.add_argument("--no-worker-faults", action="store_true",
                        help="disable the crash/stall/spike schedule")
    parser.add_argument("--soft-error-fit", type=float, default=0.0,
                        help="silicon soft-error FIT/Mbit rate composed onto "
                        "the scenario (0 disables; see repro.reliability)")
    parser.add_argument("--soft-error-accel", type=float, default=5e10,
                        help="soft-error acceleration factor (wall-time "
                        "compression of the FIT rate)")
    parser.add_argument("--fault-free", action="store_true",
                        help="disable every fault (baseline run)")
    parser.add_argument("--compare-fault-free", action="store_true",
                        help="also run the zero-fault baseline and print the "
                        "degradation budget consumed")
    parser.add_argument("--max-session-rows", type=int, default=8)
    add_checkpoint_arguments(parser)
    add_obs_arguments(parser)
    add_slo_arguments(parser)
    return parser


def config_from_args(args: argparse.Namespace) -> FleetConfig:
    return config_from_params(
        {
            "seed": args.seed,
            "serve": {
                "n_sessions": args.sessions,
                "duration_s": args.duration,
                "n_workers": args.workers,
            },
            "input_faults": {
                "frame_drop_rate": args.drop_rate,
                "noise_burst_rate_hz": args.noise_burst_rate,
                "occlusion_rate_hz": args.occlusion_rate,
                "bit_error_rate": args.bit_error_rate,
            },
            "no_worker_faults": args.no_worker_faults,
            "soft_error_fit": args.soft_error_fit,
            "soft_error_accel": args.soft_error_accel,
            "fault_free": args.fault_free,
        }
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as err:
        parser.error(str(err))
    report = run_cli(config, BatchServiceModel(), args, parser, "chaos")
    if not isinstance(report, FleetReport):
        return report  # simulated crash exit code
    if args.compare_fault_free and not args.fault_free:
        baseline = run_fleet(fault_free(config))
        print("\n--- fault-free baseline ---\n")
        print(format_fleet_report(baseline, max_session_rows=args.max_session_rows))
        miss = report.deadline_miss_rate
        base_miss = baseline.deadline_miss_rate
        ratio = miss / base_miss if base_miss > 0 else float("inf")
        print(
            f"\nDeadline misses under faults: {miss:.2%} vs {base_miss:.2%} "
            f"fault-free ({ratio:.2f}x)"
            if base_miss > 0
            else f"\nDeadline misses under faults: {miss:.2%} "
            f"(fault-free baseline missed none)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
