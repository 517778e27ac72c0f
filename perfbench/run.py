"""Host-time benchmark of the POLO simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet-predict --seed 1 --seconds 36 --trace 0

One process runs one workload.  It repeats the workload (set-up, run,
checks) until ``--seconds`` have passed: one warm-up repetition, whose
timings no metric uses, then at least three measured ones.  Throughput
is pooled over the measured repetitions' run phases; set-up and restore
times are medians.  With ``--trace 0`` it prints every
end-to-end metric; with ``--trace 1`` it alternates untraced and traced
repetitions and prints the per-layer metrics, measured by wrapping the
program's public functions from this directory (``perfbench/tracing.py``).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every correctness check passed.

BLAS runs one thread.  With one thread per vCPU, a spinning OpenBLAS
worker slows the tracker 2-3x whenever anything else on the host wants a
CPU, so a default-threads run measures the scheduler, not the program.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import catalog

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MIN_REPS = 3
MIN_TRACED_PAIRS = 1
MAX_REPS = 64

#: Per-layer metric -> (span names, phase, field).  Times are self times:
#: span duration minus the part covered by nested wrapped spans.
SPAN_METRICS = {
    "eye.generate_s": (("eye.generate",), "setup", "self_s"),
    "eye.render_s": (("eye.render",), "setup", "self_s"),
    "system.decide_paths_s": (("system.decide_paths",), "setup", "self_s"),
    "serve.fleet_requests_s": (("serve.fleet_requests",), "setup", "self_s"),
    "serve.shard_step_s": (("serve.shard_step",), "run", "self_s"),
    "serve.shard_steps": (("serve.shard_step",), "run", "calls"),
    "serve.batcher_s": (("serve.batcher",), "run", "self_s"),
    "serve.dispatch_s": (("serve.dispatch",), "run", "self_s"),
    "fleet.self_s": (("fleet.step",), "run", "self_s"),
    "fleet.finish_s": (("fleet.finish",), "run", "self_s"),
    "net.handle_s": (("net.handle",), "run", "self_s"),
    "net.handle_calls": (("net.handle",), "run", "calls"),
    "recover.checkpoint_s": (("recover.checkpoint",), "run", "self_s"),
    "recover.journal_s": (("recover.journal_append", "recover.journal_sync"), "run", "self_s"),
    "recover.load_s": (("recover.load",), "restore", "self_s"),
    "core.binarize_s": (("core.binarize",), "run", "self_s"),
    "core.saccade_s": (("core.saccade",), "run", "self_s"),
    "core.reuse_s": (("core.reuse",), "run", "self_s"),
    "core.crop_s": (("core.crop",), "run", "self_s"),
    "core.vit_s": (("core.vit",), "run", "self_s"),
    "core.vit_calls": (("core.vit",), "run", "calls"),
    "nn.linear_s": (("nn.linear",), "run", "self_s"),
    "nn.gelu_s": (("nn.gelu",), "run", "self_s"),
    "nn.softmax_s": (("nn.softmax",), "run", "self_s"),
    "nn.layer_norm_s": (("nn.layer_norm",), "run", "self_s"),
}

#: A ViT call slower than this multiple of the run's median is a stall.
STALL_FACTOR = 5.0


def install_spans(tracer, queue_waits: list) -> None:
    """Wrap each layer's public entry points where their callers look
    them up.  ``queue_waits`` collects the modelled wait of every frame
    the batcher hands to a worker."""
    from repro.core import preprocessing
    from repro.core.gaze_vit import PoloViT
    from repro.core.saccade import SaccadeDetector
    from repro.eye.motion import OculomotorModel
    from repro.eye.renderer import NearEyeRenderer
    from repro.nn import functional
    from repro.recover import manager
    from repro.recover.checkpoint import CheckpointStore
    from repro.recover.journal import JournalWriter
    from repro.serve import request
    from repro.serve.batcher import DynamicBatcher
    from repro.serve.fleet import runtime
    from repro.serve.fleet.runtime import FleetRuntime
    from repro.serve.fleet.shard import ShardRuntime
    from repro.serve.fleet.transport import FleetTransport
    from repro.serve.workers import WorkerPool

    taken: list = []

    def on_take(args, batch):
        taken[:] = batch

    def on_dispatch(args, done_s):
        now = args[3]  # WorkerPool.dispatch(self, worker, batch_size, now)
        queue_waits.extend(now - r.arrival_s for r in taken)

    wrap = tracer.wrap
    wrap(OculomotorModel, "generate", "eye.generate")
    wrap(NearEyeRenderer, "render", "eye.render")
    wrap(request, "decide_paths", "system.decide_paths")
    wrap(runtime, "fleet_requests", "serve.fleet_requests")
    wrap(ShardRuntime, "step", "serve.shard_step")
    for name in ("enqueue", "requeue", "ready", "next_deadline_s", "extract_session", "drain"):
        wrap(DynamicBatcher, name, "serve.batcher")
    wrap(DynamicBatcher, "take", "serve.batcher", observe=on_take)
    for name in ("idle_worker", "complete"):
        wrap(WorkerPool, name, "serve.dispatch")
    wrap(WorkerPool, "dispatch", "serve.dispatch", observe=on_dispatch)
    wrap(FleetRuntime, "step", "fleet.step")
    wrap(FleetRuntime, "finish", "fleet.finish")
    wrap(FleetTransport, "handle", "net.handle")
    wrap(CheckpointStore, "write", "recover.checkpoint")
    wrap(JournalWriter, "append", "recover.journal_append")
    wrap(JournalWriter, "sync", "recover.journal_sync")
    wrap(CheckpointStore, "latest_valid", "recover.load")
    wrap(manager, "read_journal", "recover.load")
    wrap(FleetRuntime, "load_state", "recover.load")
    wrap(preprocessing, "binary_map", "core.binarize")
    wrap(SaccadeDetector, "step", "core.saccade")
    wrap(preprocessing, "frame_difference", "core.reuse")
    wrap(preprocessing, "find_pupil_center", "core.crop")
    wrap(preprocessing, "crop_frame", "core.crop")
    wrap(PoloViT, "predict_single", "core.vit")
    for name in ("linear", "gelu", "softmax", "layer_norm"):
        wrap(functional, name, f"nn.{name}")


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if len(values) else 0.0


def layer_values(tracer, queue_waits: list) -> dict:
    """Per-layer metrics of the traced repetition just run."""
    from workloads import PHASE_IDS

    by_phase = {phase: tracer.totals(pid) for phase, pid in PHASE_IDS.items()}
    values = {}
    for metric, (spans, phase, field) in SPAN_METRICS.items():
        totals = by_phase[phase]
        values[metric] = float(
            sum(totals[s][field] for s in spans if s in totals)
        )
    steps = values["serve.shard_steps"]
    values["serve.shard_step_us"] = (
        values["serve.shard_step_s"] / steps * 1e6 if steps else 0.0
    )
    vit = tracer.durations_s(PHASE_IDS["run"], "core.vit")
    values["nn.stall_calls"] = (
        float((vit > STALL_FACTOR * float(statistics.median(vit))).sum()) if vit.size else 0.0
    )
    values["serve.queue_wait_p95_ms"] = _percentile(queue_waits, 95) * 1e3
    return values


def run_reps(workload: str, seed: int, seconds: float, size: str, trace: bool):
    """Repeat the workload until ``seconds`` have passed.

    The first repetition is an untraced warm-up that pays the first-call
    costs; no metric uses its timings.  After it, untraced, at least
    :data:`MIN_REPS` repetitions; traced, (traced, untraced) pairs, so the
    untraced repetitions the tracing overhead is measured against run
    under the same conditions as the traced ones.  The run phase of the
    first traced repetition is written as a Chrome trace.  Returns
    (untraced reps with the warm-up first, traced reps, per-layer values
    of each traced rep).
    """
    from tracing import Tracer
    from workloads import PHASE_IDS, REPS, Phases

    scratch = OUT / f"{workload}-{seed}"

    def once(phases):
        gc.collect()
        return REPS[workload](workload, seed, catalog.SIZES[size][workload], phases, scratch)

    tracer = Tracer() if trace else None
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    try:
        plain.append(once(Phases()))
        while len(plain) < MAX_REPS:
            if trace:
                waits: list = []
                install_spans(tracer, waits)
                try:
                    traced.append(once(Phases(tracer)))
                finally:
                    tracer.uninstall()
                layers.append(layer_values(tracer, waits))
                if len(traced) == 1:
                    trace_file = OUT / f"trace-{workload}.json"
                    written = tracer.write_chrome(trace_file, run_id=PHASE_IDS["run"])
                    print(f"trace: {written} run-phase spans of {len(tracer)} recorded "
                          f"in traced rep 0 written to {trace_file.relative_to(ROOT)}")
                tracer.reset()
            plain.append(once(Phases()))
            enough = len(traced) >= MIN_TRACED_PAIRS if trace else len(plain) > MIN_REPS
            if enough and time.perf_counter() >= deadline:
                break
    finally:
        if scratch.exists():
            scratch.rmdir()
    return plain, traced, layers


def _total_s(rep) -> float:
    return sum(rep.phases.wall_s.values())


def end_to_end(reps) -> dict:
    """Every end-to-end metric that applies to the workload, over the
    measured (post-warm-up) untraced repetitions ``reps``."""
    first = reps[0].values
    out = {
        # Work completed per second: frames over the summed run phases.
        # The host alternates, seconds at a time, between a fast state and
        # one about 1.6x slower, so per-repetition rates are bimodal: their
        # median jumps between the modes, the pooled rate moves smoothly
        # with the share of slow time.
        "sim_frames_per_s": sum(r.frames for r in reps)
        / sum(r.phases.wall_s["run"] for r in reps),
        "setup_s": _median([r.phases.wall_s["setup"] for r in reps]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for metric in catalog.WORKLOAD_END_TO_END:
        if metric.name in first:
            out[metric.name] = first[metric.name]
    if "restore" in reps[0].phases.wall_s:
        out["restore_s"] = _median([r.phases.wall_s["restore"] for r in reps])
    frame_ms = [ms for r in reps for ms in r.frame_ms]
    if frame_ms:
        out["frame_host_ms_p50"] = _percentile(frame_ms, 50)
        out["frame_host_ms_p99"] = _percentile(frame_ms, 99)
    return out


def per_layer(plain, traced, layers) -> dict:
    """Every per-layer metric, 0 where the workload does not exercise it.

    Besides the layers this carries the end-to-end metrics that exist on
    some workloads only (``catalog.WORKLOAD_END_TO_END``), from the
    untraced repetitions.
    """
    warm = plain[1:]  # plain[0] is the warm-up
    measured = {**warm[0].values, **end_to_end(warm)}
    for name in layers[0]:
        measured[name] = _median([layer[name] for layer in layers])
    measured["host.cpu_per_wall"] = _median(
        [r.phases.cpu_s["run"] / r.phases.wall_s["run"] for r in warm]
    )
    measured["trace.overhead_share"] = (
        _median([_total_s(r) for r in traced]) / _median([_total_s(r) for r in warm]) - 1.0
    )
    return {m.name: float(measured.get(m.name, 0.0)) for m in catalog.PER_LAYER}


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w.name for w in catalog.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny runs the same workload at toy size (smoke test)",
    )
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {src / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from workloads import describe

    spec = catalog.workload(args.workload)
    size = catalog.SIZES[args.size][args.workload]
    print(f"workload {spec.name} ({args.size} size): {describe(spec.name, size)}")
    print(f"seed {args.seed}: {spec.seed}")
    plain, traced, layers = run_reps(
        args.workload, args.seed, args.seconds, args.size, bool(args.trace)
    )
    for label, reps in (("warm-up rep", plain[:1]), ("rep", plain[1:]), ("traced rep", traced)):
        for i, rep in enumerate(reps):
            timings = ", ".join(f"{k} {v:.3f} s" for k, v in rep.phases.wall_s.items())
            print(f"{label} {i}: {timings}; {rep.frames} frames")

    outcomes: dict[str, list] = {}
    for rep in plain + traced:
        for name, ok, detail in rep.checks:
            outcomes.setdefault(name, []).append((ok, detail))
    checks = []
    for name, results in outcomes.items():
        failing = [detail for ok, detail in results if not ok]
        summary = failing[0] if failing else results[0][1]
        checks.append((name, not failing, f"{len(results) - len(failing)}/{len(results)} reps pass; {summary}"))
    digests = {rep.digest for rep in plain}
    checks.append(("deterministic_digest", len(digests) == 1,
                   f"{len(digests)} distinct digests over {len(plain)} untraced reps"))
    if traced:
        checks.append(("traced_digest_equal", {rep.digest for rep in traced} == digests,
                       "simulated digest of traced reps equals the untraced one"))
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"digest {args.workload} sha256={plain[0].digest}")

    reps = plain + traced
    correct = all(ok for _, ok, _ in checks)
    attempted = sum(rep.frames for rep in reps)
    failed = 0 if correct else sum(rep.frames for rep in reps if not rep.correct) or attempted

    if args.trace:
        values = per_layer(plain, traced, layers)
        units = {m.name: m for m in catalog.PER_LAYER}
        for name, value in values.items():
            print(f"layer {name} {_fmt(value)} {units[name].unit}  ({units[name].targets})")
        if "net.data_sent" in plain[0].values:
            print(f"base net.useful_ratio: frames_applied / data_sent, data_sent = "
                  f"{plain[0].values['net.data_sent']:.0f}")
        metrics = {name: {"value": values[name], "unit": units[name].unit}
                   for name in (m.name for m in catalog.PER_LAYER)}
    else:
        values = end_to_end(plain[1:])
        units = {m.name: m.unit for m in catalog.END_TO_END + catalog.WORKLOAD_END_TO_END}
        for name, value in values.items():
            print(f"metric {name} {_fmt(value)} {units[name]}")
        samples = sum(len(r.frame_ms) for r in plain[1:])
        if samples:
            print(f"frame_host_ms percentiles over {samples} frames")
        metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in catalog.END_TO_END}

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
