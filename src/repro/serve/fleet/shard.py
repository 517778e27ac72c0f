"""The serving event core: one shard of the fleet.

A :class:`ShardRuntime` multiplexes the sessions placed on it onto a
:class:`~repro.serve.workers.WorkerPool`.  The loop is a classic event
heap with three event kinds, processed in deterministic order (time,
then kind, then insertion sequence):

* ``COMPLETE`` — a worker finished a batch; record per-frame latencies,
  free the worker, and greedily re-dispatch.
* ``WINDOW`` — a batch-formation window expired; dispatch a partial batch
  if a worker is idle.
* ``ARRIVAL`` — a frame entered the shard (fresh ones come from the
  fleet's arrival clock; the heap holds only retries and retransmits).
  Saccade/reuse frames bypass the pool entirely (Algorithm 1 serves
  them on-device); predict frames pass admission control and join the
  cross-session batcher.

Admission control estimates the wait a new predict frame would see —
``ceil((pending + 1) / max_batch) * service(max_batch) / workers`` —
and, when it exceeds the queue budget, degrades the frame to gaze reuse
or sheds it per :class:`~repro.serve.config.AdmissionPolicy`.

The fleet controller (:class:`~repro.serve.fleet.runtime.FleetRuntime`)
merges every shard's heap into one global event order and drives the
three fleet-lifecycle operations defined here:

* :meth:`extract_session` — live migration *out*: remove one session's
  queued frames from the batcher and its in-flight frames from
  dispatched batches, packaged as a :class:`MigrationPayload`.
* :meth:`admit_migrated` — live migration *in*: requeue the carried
  frames on this shard's batcher.
* :meth:`kill` — chaos failover: frames physically on the shard (queued
  or in flight) die with it and are recorded ``lost_shard`` on their
  sessions, bounding frame loss to exactly the in-flight set at kill
  time.

Sessions re-homed by a failover are *guarded* for a configurable window:
their predict frames pass through a re-admission
:class:`~repro.faults.breaker.CircuitBreaker` so a thundering herd onto
a surviving shard degrades to gaze reuse instead of blowing through the
queue budget.

The fault-aware shard (:class:`repro.faults.runtime.ChaosRuntime`)
subclasses this core and overrides its hooks; the core itself carries
no per-event fault branch.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.faults.breaker import CircuitBreaker
from repro.obs import NULL_OBS, Obs, PID_BATCHER, PID_WORKERS, session_pid
from repro.serve.batcher import DynamicBatcher
from repro.serve.config import AdmissionPolicy, BatchServiceModel, ServeConfig
from repro.serve.fleet.config import FailoverConfig
from repro.serve.request import ClientSession, FrameRequest
from repro.serve.telemetry import ServeInstruments, SessionStats
from repro.serve.workers import WorkerPool
from repro.system.metrics import percentile_summary

# Event-kind priorities: at equal timestamps, completions free workers
# before window expiries ask for them, and both precede new arrivals.
_COMPLETE, _WINDOW, _ARRIVAL = 0, 1, 2

#: Optional hook running real batched inference for each dispatched batch.
#: Receives the batch's requests; must return an ``(len(batch), 2)`` array
#: of predicted gaze coordinates, stored on the report keyed by
#: ``(session_id, frame_index)``.
InferenceFn = Callable[[list[FrameRequest]], np.ndarray]


@dataclass
class MigrationPayload:
    """Everything that moves with a session between shards."""

    session: ClientSession
    stats: SessionStats
    #: Frames pulled out of the source queue / in-flight batches, to be
    #: requeued on the destination; sorted by (arrival_s, seq).
    requeue: list[FrameRequest] = field(default_factory=list)


def _frame_order(request: FrameRequest) -> tuple[float, int]:
    return (request.arrival_s, request.seq)


def _optional_float(value) -> "float | None":
    return None if value is None else float(value)


#: Per-shard frame/lifecycle counters (session stats travel with
#: sessions; these stay, attributing work to the shard that did it).
_COUNTERS = (
    "completed_frames",
    "degraded_frames",
    "lost_frames",
    "migrations_in",
    "migrations_out",
    "rehomed_in",
    "breaker_degraded",
)


class ShardRuntime:
    """One shard: its sessions, batcher, worker pool, and event heap."""

    def __init__(
        self,
        shard_id: int,
        template: ServeConfig,
        sessions: "list[ClientSession] | None" = None,
        service: "BatchServiceModel | None" = None,
        obs: "Obs | None" = None,
        failover: "FailoverConfig | None" = None,
        inference: "InferenceFn | None" = None,
        sample_waits: bool = False,
    ):
        # ``template`` sizes the per-shard pool/batcher; its n_sessions
        # refers to the whole fleet, this shard holds a (possibly empty)
        # subset of it.
        if shard_id < 0:
            raise ValueError(f"shard_id must be non-negative, got {shard_id}")
        self.shard_id = shard_id
        self.config = template
        self.service = service if service is not None else BatchServiceModel()
        self.inference = inference
        self.fleet = list(sessions) if sessions is not None else []
        self.pool = WorkerPool(template.n_workers, self.service)
        self.batcher = DynamicBatcher(template.max_batch, template.batch_window_s)
        # Keyed by session id: membership changes at runtime.
        self.stats: dict[int, SessionStats] = {
            s.session_id: SessionStats(s.session_id) for s in self.fleet
        }
        # Under the net transport every shard aliases ONE fleet-owned
        # stats dict (a suspected-but-alive shard keeps completing
        # stragglers for sessions that already re-homed).  The flag
        # keeps per-shard snapshots from serializing the shared dict
        # once per shard — the FleetRuntime serializes it exactly once.
        self.stats_shared = False
        self.predictions: "dict[tuple[int, int], np.ndarray] | None" = (
            {} if inference is not None else None
        )
        self._heap: list[tuple[float, int, int, object]] = []
        self._event_seq = 0
        self._makespan_s = 0.0
        # Observability is read-only over the simulation: spans carry
        # sim-clock timestamps the event loop already computed, so a
        # traced run is bit-identical to an untraced one.
        self.obs = obs if obs is not None else NULL_OBS
        self._instruments: "ServeInstruments | None" = None
        if self.obs.enabled:
            self._instruments = ServeInstruments(self.obs.metrics)
            self._declare_tracks()
        # --- fleet lifecycle state -----------------------------------
        self.failover = failover if failover is not None else FailoverConfig()
        self.rehome_breaker = CircuitBreaker(
            failure_threshold=self.failover.breaker_threshold,
            cooldown_s=self.failover.breaker_cooldown_s,
        )
        #: session id -> absolute sim time until which re-admission of
        #: that (re-homed) session's predict frames is breaker-guarded.
        self._rehome_guard_until: dict[int, float] = {}
        #: Queue waits of frames dispatched since the last rebalancer
        #: tick (the rebalancer's P95 window; kept only if one runs).
        self._sample_waits = sample_waits
        self._wait_samples: list[float] = []
        self.spawned_at_s: "float | None" = None
        self.killed_at_s: "float | None" = None
        self.retired_at_s: "float | None" = None
        for name in _COUNTERS:
            setattr(self, name, 0)

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    @property
    def status(self) -> str:
        if self.killed_at_s is not None:
            return "killed"
        if self.retired_at_s is not None:
            return "retired"
        return "alive"

    @property
    def alive(self) -> bool:
        return self.killed_at_s is None and self.retired_at_s is None

    # ------------------------------------------------------------------
    # Tracing (no-ops unless ``obs`` is enabled)
    # ------------------------------------------------------------------
    def _declare_tracks(self) -> None:
        tracer = self.obs.tracer
        tracer.declare_track(PID_WORKERS, "serve.workers")
        for worker_id in range(self.config.n_workers):
            tracer.declare_track(
                PID_WORKERS, "serve.workers", tid=worker_id,
                thread_name=f"worker-{worker_id}",
            )
        tracer.declare_track(PID_BATCHER, "serve.batcher", thread_name="assemble")
        for session in self.fleet:
            tracer.declare_track(
                session_pid(session.session_id),
                f"session-{session.session_id}",
                thread_name="frames",
            )

    def _trace_frame(self, request: FrameRequest, path: str, latency_s: float) -> None:
        """Session-track frame span (arrival -> completion) + counters."""
        self.obs.tracer.record_span(
            "frame",
            request.arrival_s,
            latency_s,
            cat="serve",
            pid=session_pid(request.session_id),
            args={"path": path, "frame": request.frame_index},
        )
        assert self._instruments is not None
        self._instruments.frame_counter(path).inc()
        self._instruments.latency.observe(latency_s)
        if latency_s > self.config.deadline_s:
            self._instruments.misses.inc()

    def _trace_batch(
        self,
        worker_id: int,
        batch: list[FrameRequest],
        now: float,
        done_s: float,
        ok: bool = True,
    ) -> None:
        """Batcher/worker/session spans of one dispatched batch."""
        tracer = self.obs.tracer
        instruments = self._instruments
        assert instruments is not None
        oldest = batch[0].arrival_s
        tracer.record_span(
            "batch.assemble", oldest, now - oldest, cat="serve",
            pid=PID_BATCHER, args={"batch_size": len(batch)},
        )
        tracer.record_span(
            "batch.service", now, done_s - now, cat="serve",
            pid=PID_WORKERS, tid=worker_id,
            args={"batch_size": len(batch), "ok": ok},
        )
        for request in batch:
            pid = session_pid(request.session_id)
            wait = now - request.arrival_s
            tracer.record_span(
                "queue.wait", request.arrival_s, wait, cat="serve",
                pid=pid, args={"frame": request.frame_index},
            )
            tracer.record_span(
                "service", now, done_s - now, cat="serve",
                pid=pid, args={"frame": request.frame_index, "worker": worker_id},
            )
            instruments.queue_wait.observe(wait)
        instruments.batches.inc()
        instruments.batch_size.observe(len(batch))

    def _trace_degraded(self, request: FrameRequest, now: float, cause: str) -> None:
        done = now + self.config.reuse_bypass_s
        self.obs.tracer.instant(
            f"degrade.{cause}", now, cat="serve",
            pid=session_pid(request.session_id),
            args={"frame": request.frame_index},
        )
        assert self._instruments is not None
        self._instruments.degraded.inc()
        self._trace_frame(request, "degraded", done - request.arrival_s)

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _push(self, time_s: float, kind: int, payload: object) -> None:
        heapq.heappush(self._heap, (time_s, kind, self._event_seq, payload))
        self._event_seq += 1

    def _arm_window(self) -> None:
        """Schedule the batch-formation window of the queue head."""
        if len(self.batcher) > 0 and self.batcher.window_s > 0:
            deadline = self.batcher.next_deadline_s()
            if deadline is not None:
                self._push(deadline, _WINDOW, None)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record_completion(self, request: FrameRequest, done_s: float) -> None:
        self.completed_frames += 1
        latency = done_s - request.arrival_s
        self.stats[request.session_id].record(
            request.path, latency, self.config.deadline_s
        )
        self._makespan_s = max(self._makespan_s, done_s)
        if self.obs.enabled:
            self._trace_frame(request, request.path, latency)

    def _degrade_now(
        self, request: FrameRequest, now: float, cause: str = "admission"
    ) -> None:
        """Serve the frame from the buffered gaze (Algorithm-1 reuse
        mechanism): on time but stale, recorded in the explicit
        ``degraded`` bucket."""
        self.degraded_frames += 1
        done = now + self.config.reuse_bypass_s
        self.stats[request.session_id].record_degraded(
            self.config.reuse_bypass_s, self.config.deadline_s
        )
        self._makespan_s = max(self._makespan_s, done)
        if self.obs.enabled:
            self._trace_degraded(request, now, cause)

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def _available_workers(self, now: float) -> int:
        """Workers the admission estimate divides the queue across."""
        return self.config.n_workers

    def _admit_by_policy(self, request: FrameRequest, now: float) -> bool:
        config = self.config
        if config.admission is AdmissionPolicy.ALWAYS:
            return True
        # Full batches of queued + in-flight + this frame, spread across
        # the pool.
        pending = len(self.batcher) + self.pool.in_flight_frames() + 1
        batches = math.ceil(pending / config.max_batch)
        wait = (
            batches
            * self.service.service_s(config.max_batch)
            / self._available_workers(now)
        )
        if wait <= config.queue_budget_s:
            return True
        if config.admission is AdmissionPolicy.DEGRADE:
            self._degrade_now(request, now, cause="admission")
        else:  # SHED
            self.stats[request.session_id].record_shed(request.path)
            if self.obs.enabled:
                self.obs.tracer.instant(
                    "shed", now, cat="serve",
                    pid=session_pid(request.session_id),
                    args={"frame": request.frame_index},
                )
                assert self._instruments is not None
                self._instruments.shed.inc()
        return False

    def _admit(self, request: FrameRequest, now: float) -> bool:
        guard_until = self._rehome_guard_until.get(request.session_id)
        if guard_until is None:
            return self._admit_by_policy(request, now)
        if now > guard_until:
            del self._rehome_guard_until[request.session_id]
            return self._admit_by_policy(request, now)
        breaker = self.rehome_breaker
        if not breaker.allow(now):
            self.breaker_degraded += 1
            self._degrade_now(request, now, cause="failover")
            return False
        breaker.note_dispatch(now)
        admitted = self._admit_by_policy(request, now)
        if admitted:
            breaker.record_success(now)
        else:
            breaker.record_failure(now)
        return admitted

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _note_dispatch(self, batch: list[FrameRequest], now: float) -> None:
        """A batch left the queue: window its waits for the rebalancer."""
        if self._sample_waits:
            for request in batch:
                self._wait_samples.append(now - request.arrival_s)

    def _run_inference(self, batch: list[FrameRequest]) -> None:
        outputs = np.asarray(self.inference(batch))
        if outputs.shape != (len(batch), 2):
            raise ValueError(
                f"inference hook returned shape {outputs.shape}, "
                f"expected ({len(batch)}, 2)"
            )
        for request, gaze in zip(batch, outputs):
            self.predictions[(request.session_id, request.frame_index)] = gaze

    def _try_dispatch(self, now: float) -> None:
        while self.batcher.ready(now):
            worker = self.pool.idle_worker(now)
            if worker is None:
                return  # next COMPLETE event will retry
            batch = self.batcher.take()
            self._note_dispatch(batch, now)
            done_s = self.pool.dispatch(worker, len(batch), now)
            if self.inference is not None:
                self._run_inference(batch)
            if self.obs.enabled:
                self._trace_batch(worker.worker_id, batch, now, done_s)
            self._push(done_s, _COMPLETE, (worker, batch))

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, request: FrameRequest, now: float) -> None:
        if request.path == "saccade":
            self._record_completion(request, now + self.config.saccade_bypass_s)
            return
        if request.path == "reuse":
            self._record_completion(request, now + self.config.reuse_bypass_s)
            return
        if not self._admit(request, now):
            return
        self.batcher.enqueue(request)
        self._try_dispatch(now)
        self._arm_window()

    def _on_complete(self, worker_batch, now: float) -> None:
        worker, batch = worker_batch
        self.pool.complete(worker)
        for request in batch:
            self._record_completion(request, now)
        self._try_dispatch(now)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Apply the next heap event (the fleet's globally next one)."""
        now, kind, _, payload = heapq.heappop(self._heap)
        if kind == _ARRIVAL:
            self._on_arrival(payload, now)  # type: ignore[arg-type]
        elif kind == _COMPLETE:
            self._on_complete(payload, now)
        else:  # _WINDOW
            self._try_dispatch(now)

    def fault_report(self):
        """Fault telemetry for the report (None outside chaos runs)."""
        return None

    def on_slo_page(self, objective, now_s: float) -> None:
        """An SLO objective paged; the fault-aware shard acts on it."""

    # ------------------------------------------------------------------
    # Rebalancer window
    # ------------------------------------------------------------------
    def take_queue_wait_p95(self) -> float:
        """P95 queue wait over the window since the last call; resets."""
        if not self._wait_samples:
            return 0.0
        p95 = float(percentile_summary(self._wait_samples, (95,))["p95"])
        self._wait_samples = []
        return p95

    # ------------------------------------------------------------------
    # Heap surgery (shared by migration and failover)
    # ------------------------------------------------------------------
    def _extract_inflight(self, session_id: int) -> list[FrameRequest]:
        """Pull one session's frames out of dispatched batches.

        The COMPLETE event still fires (the worker stays busy for the
        full batch's service time — the work was already started), but
        the migrated frames' latencies are recorded on the destination
        shard after requeueing instead of here.
        """
        pulled: list[FrameRequest] = []
        for _, kind, _, payload in self._heap:
            if kind == _COMPLETE:
                _, batch = payload
                mine = [r for r in batch if r.session_id == session_id]
                if mine:
                    batch[:] = [r for r in batch if r.session_id != session_id]
                    pulled.extend(mine)
        pulled.sort(key=_frame_order)
        return pulled

    # ------------------------------------------------------------------
    # Fleet lifecycle
    # ------------------------------------------------------------------
    def extract_session(self, session_id: int, now: float) -> MigrationPayload:
        """Remove one session and everything it owns (live migration)."""
        session = next(
            (s for s in self.fleet if s.session_id == session_id), None
        )
        if session is None:
            raise KeyError(f"session {session_id} not on shard {self.shard_id}")
        self.fleet = [s for s in self.fleet if s.session_id != session_id]
        stats = self.stats.pop(session_id)
        requeue = self.batcher.extract_session(session_id)
        requeue.extend(self._extract_inflight(session_id))
        requeue.sort(key=_frame_order)
        self._rehome_guard_until.pop(session_id, None)
        self.migrations_out += 1
        if self.obs.enabled:
            self.obs.tracer.instant(
                "migrate.out", now, cat="fleet",
                pid=session_pid(session_id),
                args={"moved_frames": len(requeue)},
            )
        return MigrationPayload(session, stats, requeue)

    def admit_migrated(
        self, payload: MigrationPayload, now: float, rehomed: bool = False
    ) -> None:
        """Install a migrated session: carried frames requeued ahead of
        the window rule (their arrival times are old)."""
        session_id = payload.session.session_id
        if session_id in self.stats:
            raise ValueError(
                f"session {session_id} already on shard {self.shard_id}"
            )
        self.fleet.append(payload.session)
        self.stats[session_id] = payload.stats
        if self.obs.enabled:
            self.obs.tracer.declare_track(
                session_pid(session_id),
                f"session-{session_id}",
                thread_name="frames",
            )
            self.obs.tracer.instant(
                "rehome.in" if rehomed else "migrate.in", now, cat="fleet",
                pid=session_pid(session_id),
                args={"moved_frames": len(payload.requeue)},
            )
        if rehomed:
            self.rehomed_in += 1
            if self.failover.guard_s > 0:
                self._rehome_guard_until[session_id] = (
                    now + self.failover.guard_s
                )
        else:
            self.migrations_in += 1
        if payload.requeue:
            self.batcher.requeue(payload.requeue)
            self._try_dispatch(now)
            self._arm_window()

    def _fail(self, now: float) -> None:
        """Kill the shard's data plane: queued + in-flight frames are
        recorded ``lost_shard`` (the batcher's conservation ledger stays
        closed), the heap is cleared."""
        if self.killed_at_s is not None:
            raise RuntimeError(f"shard {self.shard_id} already killed")
        lost = 0
        for request in self.batcher.drain():
            self.stats[request.session_id].record_lost_shard()
            lost += 1
        for _, kind, _, payload in self._heap:
            if kind == _COMPLETE:
                for request in payload[1]:
                    self.stats[request.session_id].record_lost_shard()
                    lost += 1
        self._heap = []
        self.batcher.check_accounting()
        self.lost_frames = lost
        self._rehome_guard_until = {}
        self.killed_at_s = now

    def kill(self, now: float) -> "tuple[dict[int, MigrationPayload], int]":
        """Fail the shard: queued + in-flight frames are lost with it,
        sessions are packaged for re-homing.

        Returns ``(payloads keyed by session id, frames lost)``.
        """
        self._fail(now)
        payloads = {
            s.session_id: MigrationPayload(s, self.stats.pop(s.session_id))
            for s in self.fleet
        }
        self.fleet = []
        if self.obs.enabled:
            self.obs.tracer.instant(
                "shard.kill", now, cat="fleet", pid=PID_WORKERS,
                args={"lost_frames": self.lost_frames, "sessions": len(payloads)},
            )
        return payloads, self.lost_frames

    def kill_silent(self, now: float) -> int:
        """Fail the shard *without telling anyone* (net-transport mode).

        Queued + in-flight frames die with the shard and are recorded
        ``lost_shard``, exactly as in :meth:`kill` — but sessions stay
        on the fleet list and nothing is packaged for re-homing: under
        the lossy transport nobody knows the shard is dead until the
        failure detector stops seeing heartbeats and *suspects* it.
        Returns the number of frames lost.
        """
        self._fail(now)
        if self.obs.enabled:
            self.obs.tracer.instant(
                "shard.kill", now, cat="fleet", pid=PID_WORKERS,
                args={"lost_frames": self.lost_frames, "silent": 1},
            )
        return self.lost_frames

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.recover)
    # ------------------------------------------------------------------
    def _encode_payload(self, kind: int, payload: object) -> object:
        """JSON-safe form of one heap payload (kind-specific)."""
        if kind == _ARRIVAL:
            return payload.to_dict()  # type: ignore[union-attr]
        if kind == _COMPLETE:
            worker, batch = payload  # type: ignore[misc]
            return {
                "worker": worker.worker_id,
                "batch": [request.to_dict() for request in batch],
            }
        return None  # _WINDOW carries no payload

    def _decode_payload(self, kind: int, data: object) -> object:
        if kind == _ARRIVAL:
            return FrameRequest.from_dict(data)  # type: ignore[arg-type]
        if kind == _COMPLETE:
            worker = self.pool.workers[int(data["worker"])]  # type: ignore[index]
            batch = [FrameRequest.from_dict(r) for r in data["batch"]]  # type: ignore[index]
            return (worker, batch)
        return None

    def state_dict(self) -> dict:
        """Full JSON-safe snapshot of the shard.

        The heap is serialized in its *raw list order* (already a valid
        binary heap) and restored verbatim, so subsequent pushes and pops
        reproduce the uninterrupted run's event ordering exactly — the
        load-bearing detail behind bit-identical recovery.
        """
        predictions = None
        if self.predictions is not None:
            predictions = [
                [sid, frame, [float(x) for x in gaze]]
                for (sid, frame), gaze in sorted(self.predictions.items())
            ]
        return {
            "event_seq": self._event_seq,
            "makespan_s": self._makespan_s,
            "heap": [
                [time_s, kind, seq, self._encode_payload(kind, payload)]
                for time_s, kind, seq, payload in self._heap
            ],
            "batcher": self.batcher.state_dict(),
            "pool": self.pool.state_dict(),
            "stats": []
            if self.stats_shared
            else [self.stats[sid].state_dict() for sid in sorted(self.stats)],
            "predictions": predictions,
            "wait_samples": [float(w) for w in self._wait_samples],
            "rehome_guard_until": [
                [sid, self._rehome_guard_until[sid]]
                for sid in sorted(self._rehome_guard_until)
            ],
            "rehome_breaker": self.rehome_breaker.state_dict(),
            "spawned_at_s": self.spawned_at_s,
            "killed_at_s": self.killed_at_s,
            "retired_at_s": self.retired_at_s,
            **{name: getattr(self, name) for name in _COUNTERS},
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto a freshly
        constructed shard of the same config."""
        self._event_seq = int(state["event_seq"])
        self._makespan_s = float(state["makespan_s"])
        self.pool.load_state(state["pool"])  # before heap: COMPLETE payloads
        self._heap = [
            (float(time_s), int(kind), int(seq), self._decode_payload(int(kind), data))
            for time_s, kind, seq, data in state["heap"]
        ]
        self.batcher.load_state(state["batcher"])
        self.stats = {}
        for entry in state["stats"]:
            stats = SessionStats(int(entry["session_id"]))
            stats.load_state(entry)
            self.stats[stats.session_id] = stats
        if state["predictions"] is not None:
            self.predictions = {
                (int(sid), int(frame)): np.asarray(gaze, dtype=np.float64)
                for sid, frame, gaze in state["predictions"]
            }
        self._wait_samples = [float(w) for w in state["wait_samples"]]
        self._rehome_guard_until = {
            int(sid): float(t) for sid, t in state["rehome_guard_until"]
        }
        self.rehome_breaker.load_state(state["rehome_breaker"])
        self.spawned_at_s = _optional_float(state["spawned_at_s"])
        self.killed_at_s = _optional_float(state["killed_at_s"])
        self.retired_at_s = _optional_float(state["retired_at_s"])
        for name in _COUNTERS:
            setattr(self, name, int(state[name]))
