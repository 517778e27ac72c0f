"""Chrome trace_event export — the satellite round-trip test.

Runs a traced chaos scenario, serializes the Chrome trace, loads it back
with ``json.loads``, and checks the structural contract trace viewers
rely on: child stage spans nest inside their frame span (ts/dur
containment on the same track), pid/tid map back to worker and session
ids, and watchdog ladder transitions appear as instant events.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.faults.config import default_chaos_scenario
from repro.obs import (
    Obs,
    ObsConfig,
    PID_BATCHER,
    PID_SESSION_BASE,
    PID_WORKERS,
    Tracer,
    chrome_trace,
    session_pid,
    slowest_spans_table,
    spans_jsonl,
    write_chrome_trace,
)
from repro.serve.fleet import run_fleet

N_SESSIONS = 3
N_WORKERS = 2


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    base = default_chaos_scenario(seed=0)
    chaos = replace(
        base,
        serve=replace(
            base.serve,
            n_sessions=N_SESSIONS,
            n_workers=N_WORKERS,
            duration_s=120 / base.serve.fps,
        ),
    )
    obs = Obs(ObsConfig())
    report = run_fleet(chaos, obs=obs)
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    write_chrome_trace(obs.tracer, path)
    payload = json.loads(path.read_text())
    return obs, report, payload


def spans_of(payload, name=None, ph="X"):
    return [
        e
        for e in payload["traceEvents"]
        if e["ph"] == ph and (name is None or e["name"] == name)
    ]


class TestRoundTrip:
    def test_loads_back_and_has_wrapper_fields(self, traced_run):
        _, _, payload = traced_run
        assert isinstance(payload["traceEvents"], list)
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["dropped_spans"] == 0
        assert len(payload["traceEvents"]) > 100

    def test_serialization_is_deterministic(self, traced_run, tmp_path):
        obs, _, payload = traced_run
        again = write_chrome_trace(obs.tracer, tmp_path / "again.json")
        assert json.loads(again.read_text()) == payload


class TestNesting:
    def test_stage_spans_nest_inside_their_frame_span(self, traced_run):
        _, _, payload = traced_run
        frames = {}
        for e in spans_of(payload, "frame"):
            frames.setdefault(e["pid"], []).append(e)
        checked = 0
        for child_name in ("queue.wait", "service"):
            for child in spans_of(payload, child_name):
                parents = [
                    f
                    for f in frames.get(child["pid"], [])
                    if f["ts"] - 1e-3 <= child["ts"]
                    and child["ts"] + child["dur"] <= f["ts"] + f["dur"] + 1e-3
                ]
                assert parents, (
                    f"{child_name} span at ts={child['ts']} on pid "
                    f"{child['pid']} has no enclosing frame span"
                )
                checked += 1
        assert checked > 0  # the scenario must actually exercise dispatch

    def test_batch_assemble_precedes_batch_service(self, traced_run):
        _, _, payload = traced_run
        assembles = spans_of(payload, "batch.assemble")
        services = spans_of(payload, "batch.service")
        assert len(assembles) == len(services) > 0
        for a, s in zip(
            sorted(assembles, key=lambda e: e["ts"] + e["dur"]),
            sorted(services, key=lambda e: e["ts"]),
        ):
            assert a["ts"] + a["dur"] <= s["ts"] + 1e-3


class TestTrackMapping:
    def test_batch_service_tids_are_worker_ids(self, traced_run):
        _, _, payload = traced_run
        for e in spans_of(payload, "batch.service"):
            assert e["pid"] == PID_WORKERS
            assert 0 <= e["tid"] < N_WORKERS

    def test_frame_pids_are_session_pids(self, traced_run):
        _, _, payload = traced_run
        for e in spans_of(payload, "frame"):
            sid = e["pid"] - PID_SESSION_BASE
            assert 0 <= sid < N_SESSIONS
            assert e["args"]["path"] in (
                "saccade", "reuse", "predict", "degraded", "full_res",
            )

    def test_metadata_names_every_runtime_track(self, traced_run):
        _, _, payload = traced_run
        meta = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        process = {
            e["pid"]: e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert process[PID_WORKERS] == "serve.workers"
        assert process[PID_BATCHER] == "serve.batcher"
        for wid in range(N_WORKERS):
            assert meta[(PID_WORKERS, wid)] == f"worker-{wid}"
        for sid in range(N_SESSIONS):
            assert process[session_pid(sid)] == f"session-{sid}"


class TestInstants:
    def test_watchdog_transitions_are_instant_events(self, traced_run):
        obs, report, payload = traced_run
        instants = spans_of(payload, ph="i")
        watchdog = [e for e in instants if e["name"].startswith("watchdog.")]
        expected = len(report.faults.degradation_transitions)
        assert expected > 0  # scenario must exercise the ladder
        assert len(watchdog) == expected
        for e in watchdog:
            assert e["s"] == "t"
            assert "dur" not in e
            assert e["args"]["from"] != e["args"]["to"]

    def test_transition_counter_matches_trace(self, traced_run):
        obs, report, payload = traced_run
        total = sum(
            c.value
            for c in obs.metrics.instruments()
            if c.name == "watchdog_transitions_total"
        )
        assert total == len(report.faults.degradation_transitions)


class TestOtherExports:
    def test_jsonl_round_trips_every_span(self, traced_run):
        obs, _, _ = traced_run
        lines = spans_jsonl(obs.tracer).splitlines()
        assert len(lines) == len(obs.tracer.spans())
        record = json.loads(lines[0])
        assert {"name", "cat", "clock", "ph", "ts_s", "dur_s", "pid", "tid"} <= set(
            record
        )

    def test_slowest_table_lists_k_rows(self):
        tracer = Tracer()
        for i in range(5):
            tracer.record_span(f"s{i}", 0.0, float(i + 1))
        table = slowest_spans_table(tracer, k=3)
        assert "s4" in table and "s2" in table and "s1" not in table
