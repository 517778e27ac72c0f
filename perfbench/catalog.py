"""What the benchmark measures: workloads and metrics, with their targets.

This is the single source of the benchmark's declared surface.
``BENCHMARK.json`` repeats the names, units and directions (the smoke test
checks that the two agree) and adds nothing else, so what the JSON file
cannot hold lives here: each workload's size (``SIZES``) and seed, and
for every per-layer metric the end-to-end metric and workload it should
move.

Host metrics are wall-clock measurements of the simulator on the machine
running the benchmark.  Metrics named ``sim_*`` and the modelled
``serve.*`` / ``fleet.*`` / ``net.*`` counts are on the simulated clock
and repeat exactly for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass


#: Workload sizes: ``full`` is what the benchmark measures, ``tiny`` is
#: the smoke test's toy size.  Each workload's ``why`` line and the size
#: line a run prints are built from these values.
SIZES = {
    "full": {
        "fleet-predict": {"sessions": 256, "duration_s": 1.5},
        "fleet-durable": {"sessions": 120, "duration_s": 1.0, "every": 20_000},
        "tracker": {"participants": 4, "frames": 60, "passes": 3},
    },
    "tiny": {
        "fleet-predict": {"sessions": 48, "duration_s": 0.6},
        "fleet-durable": {"sessions": 12, "duration_s": 0.4, "every": 1_000},
        "tracker": {"participants": 2, "frames": 24, "passes": 2},
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: Reason for the workload; ``{field}`` placeholders are filled from
    #: its ``full`` size.
    reason: str
    seed: str

    @property
    def why(self) -> str:
        return self.reason.format(**SIZES["full"][self.name])


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: Regression bound (share of the parent's median); end-to-end only.
    bound: "float | None" = None
    #: Which end-to-end metric, on which workload, this metric should move.
    targets: str = ""


WORKLOADS = (
    Workload(
        "fleet-predict",
        reason=(
            "{sessions} sessions x {duration_s:g} s, fixations sent to the pool; "
            "p95 rebalancer, a mid-run shard kill and live migration: "
            "admission, batching, workers and the shard merge"
        ),
        seed="--seed is ServeConfig.seed, ring_seed and migration_seed",
    ),
    Workload(
        "fleet-durable",
        reason=(
            "{sessions} sessions x {duration_s:g} s over the lossy transport "
            "(drops, dups, jitter, a partition, a kill), checkpoints every "
            "{every} events, then a killed run restored"
        ),
        seed="--seed is ServeConfig.seed, ring_seed and the transport's NetConfig.seed",
    ),
    Workload(
        "tracker",
        reason=(
            "{participants} participants x {frames} rendered near-eye frames, "
            "{passes} passes through PoloNet.process_frame with a pruned INT8 "
            "compact POLOViT: the only workload running core and nn"
        ),
        seed="--seed seeds synthesize_dataset and the POLOViT init; the saccade RNN init uses --seed + 1",
    ),
)

#: Metrics in the ``--trace 0`` JSON: present, non-zero and bounded on
#: every workload.
END_TO_END = (
    Metric(
        "sim_frames_per_s", "1/s", "higher", bound=0.25,
        targets="frames processed per host second in the run phase",
    ),
    Metric(
        "setup_s", "s", "lower", bound=0.25,
        targets="config to a started runtime or a ready tracker (median of the run's set-ups)",
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", bound=0.1,
        targets="peak resident set size of the benchmark process",
    ),
)

#: End-to-end metrics that exist on some workloads only.  Each is printed
#: by name in the ``--trace 0`` report of every workload it applies to,
#: and carried in the ``--trace 1`` JSON (0 where it does not apply),
#: because the ``--trace 0`` JSON may hold only metrics that every
#: workload produces and that are never 0.
WORKLOAD_END_TO_END = (
    Metric("restore_s", "s", "lower", targets="fleet-durable: restore_runtime load + journal replay"),
    Metric("disk_mb", "MB", "lower", targets="fleet-durable: checkpoint + journal bytes"),
    Metric("frame_host_ms_p50", "ms", "lower", targets="tracker: per-frame host time"),
    Metric("frame_host_ms_p99", "ms", "lower", targets="tracker: per-frame host time"),
    Metric("sim_latency_p50_ms", "ms", "lower", targets="fleets: served-frame latency"),
    Metric("sim_latency_p99_ms", "ms", "lower", targets="fleets: served-frame latency"),
    Metric("sim_goodput_fps", "1/s", "higher", targets="fleets: fresh predictions served per sim second"),
    Metric("sim_miss_rate", "ratio", "lower", targets="fleets: late or failed frames over attempted"),
    Metric("sim_degrade_rate", "ratio", "lower", targets="fleets: degraded frames over attempted"),
    Metric("failed_share", "ratio", "lower", targets="all: shed/lost/pending frames, or tracker frames without a result"),
)

LAYERS = (
    Metric("eye.generate_s", "s", "lower", targets="setup_s on fleet-predict and fleet-durable"),
    Metric("eye.render_s", "s", "lower", targets="setup_s on tracker"),
    Metric("system.decide_paths_s", "s", "lower", targets="setup_s on fleet-predict and fleet-durable"),
    Metric("system.predict_share", "ratio", "lower", targets="the decision mix; a simulator-only change must not move it"),
    Metric("serve.fleet_requests_s", "s", "lower", targets="setup_s on fleet-predict and fleet-durable"),
    Metric("serve.shard_step_s", "s", "lower", targets="sim_frames_per_s on fleet-predict and fleet-durable"),
    Metric("serve.shard_steps", "count", "lower", targets="sim_frames_per_s on fleet-predict and fleet-durable"),
    Metric("serve.shard_step_us", "us", "lower", targets="sim_frames_per_s on fleet-predict and fleet-durable"),
    Metric("serve.batcher_s", "s", "lower", targets="sim_frames_per_s on fleet-predict (~0 on bypass-heavy fleet-durable)"),
    Metric("serve.dispatch_s", "s", "lower", targets="sim_frames_per_s on fleet-predict (~0 on bypass-heavy fleet-durable)"),
    Metric("serve.queue_wait_p95_ms", "ms", "lower", targets="sim_latency_p99_ms on fleet-predict"),
    Metric("serve.mean_batch", "count", "higher", targets="sim_goodput_fps on fleet-predict"),
    Metric("serve.worker_utilization", "ratio", "higher", targets="sim_goodput_fps on fleet-predict"),
    Metric("serve.degraded", "count", "lower", targets="sim_degrade_rate on fleet-predict"),
    Metric("serve.shed", "count", "lower", targets="failed_share on fleet-predict"),
    Metric("fleet.self_s", "s", "lower", targets="sim_frames_per_s on fleet-predict (~10 shards) against fleet-durable (4)"),
    Metric("fleet.shards_peak", "count", "lower", targets="sim_frames_per_s on fleet-predict (~10 shards) against fleet-durable (4)"),
    Metric("fleet.finish_s", "s", "lower", targets="sim_frames_per_s on every fleet workload"),
    Metric("fleet.migrations", "count", "lower", targets="failed_share and sim_degrade_rate on fleet-predict"),
    Metric("fleet.rehomed", "count", "lower", targets="failed_share and sim_degrade_rate on fleet-predict"),
    Metric("fleet.lost_frames", "count", "lower", targets="failed_share on fleet-predict"),
    Metric("fleet.breaker_degraded", "count", "lower", targets="sim_degrade_rate on fleet-predict"),
    Metric("net.handle_s", "s", "lower", targets="sim_frames_per_s on fleet-durable (0 elsewhere)"),
    Metric("net.handle_calls", "count", "lower", targets="sim_frames_per_s on fleet-durable (0 elsewhere)"),
    Metric("net.useful_ratio", "ratio", "higher", targets="failed_share and sim_latency_p99_ms on fleet-durable"),
    Metric("net.retransmits", "count", "lower", targets="failed_share and sim_latency_p99_ms on fleet-durable"),
    Metric("net.dead_letters", "count", "lower", targets="failed_share on fleet-durable"),
    Metric("net.exhausted", "count", "lower", targets="failed_share and sim_latency_p99_ms on fleet-durable"),
    Metric("recover.checkpoint_s", "s", "lower", targets="sim_frames_per_s on fleet-durable"),
    Metric("recover.checkpoints", "count", "lower", targets="sim_frames_per_s and disk_mb on fleet-durable"),
    Metric("recover.checkpoint_bytes_t0", "B", "lower", targets="disk_mb on fleet-durable"),
    Metric("recover.checkpoint_bytes", "B", "lower", targets="disk_mb on fleet-durable"),
    Metric("recover.journal_s", "s", "lower", targets="sim_frames_per_s on fleet-durable"),
    Metric("recover.journal_records", "count", "lower", targets="disk_mb on fleet-durable"),
    Metric("recover.load_s", "s", "lower", targets="restore_s on fleet-durable"),
    Metric("recover.replayed_events", "count", "lower", targets="restore_s on fleet-durable"),
    Metric("core.binarize_s", "s", "lower", targets="frame_host_ms_p50 on tracker"),
    Metric("core.saccade_s", "s", "lower", targets="frame_host_ms_p50 on tracker"),
    Metric("core.reuse_s", "s", "lower", targets="frame_host_ms_p50 on tracker"),
    Metric("core.crop_s", "s", "lower", targets="frame_host_ms_p50 on tracker"),
    Metric("core.vit_s", "s", "lower", targets="frame_host_ms_p99 and sim_frames_per_s on tracker"),
    Metric("core.vit_calls", "count", "lower", targets="frame_host_ms_p99 and sim_frames_per_s on tracker"),
    Metric("core.tokens_kept_ratio", "ratio", "lower", targets="frame_host_ms_p99 and sim_frames_per_s on tracker"),
    Metric("nn.linear_s", "s", "lower", targets="frame_host_ms_p99 on tracker"),
    Metric("nn.gelu_s", "s", "lower", targets="frame_host_ms_p99 on tracker"),
    Metric("nn.softmax_s", "s", "lower", targets="frame_host_ms_p99 on tracker"),
    Metric("nn.layer_norm_s", "s", "lower", targets="frame_host_ms_p99 on tracker"),
    Metric("nn.stall_calls", "count", "lower", targets="frame_host_ms_p99 on tracker"),
    Metric("host.cpu_per_wall", "ratio", "lower", targets="near 1 with one BLAS thread; above 1 means threads spin; every workload"),
    Metric("trace.overhead_share", "ratio", "lower", targets="traced against untraced wall time; every workload"),
)

#: Metrics in the ``--trace 1`` JSON.
PER_LAYER = WORKLOAD_END_TO_END + LAYERS


def workload(name: str) -> Workload:
    for entry in WORKLOADS:
        if entry.name == name:
            return entry
    raise KeyError(name)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this catalog declares."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 36,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
