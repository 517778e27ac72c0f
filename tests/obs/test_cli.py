"""``python -m repro trace`` and the observability-is-read-only invariant."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import Obs, ObsConfig
from repro.obs.cli import main as trace_main
from repro.obs.lint import lint_prometheus, main as lint_main, validate_trace
from repro.serve.config import ServeConfig
from repro.serve import serve_fleet


class TestReadOnlyInvariant:
    def test_traced_run_is_bit_identical_to_untraced(self):
        config = ServeConfig(n_sessions=3, duration_s=1.0, seed=11)
        plain = serve_fleet(config)
        traced = serve_fleet(config, obs=Obs(ObsConfig()))
        assert plain.summary() == traced.summary()
        for a, b in zip(plain.sessions, traced.sessions):
            assert a.latencies_s == b.latencies_s
            assert a.counts == b.counts

    def test_two_traced_runs_produce_identical_artifacts(self, tmp_path):
        def run(out: Path) -> None:
            code = trace_main([
                "--frames", "60", "--sessions", "2", "--workers", "2",
                "--seed", "3", "--out", str(out), "--no-hw",
            ])
            assert code == 0

        run(tmp_path / "a")
        run(tmp_path / "b")
        for artifact in ("trace.json", "trace.jsonl", "metrics.prom"):
            assert (tmp_path / "a" / artifact).read_bytes() == (
                tmp_path / "b" / artifact
            ).read_bytes(), artifact


class TestTraceCli:
    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("trace-cli")
        code = trace_main([
            "--frames", "60", "--sessions", "2", "--workers", "2",
            "--out", str(out),
        ])
        assert code == 0
        return out

    def test_writes_all_three_artifacts(self, out_dir):
        for artifact in ("trace.json", "trace.jsonl", "metrics.prom"):
            assert (out_dir / artifact).stat().st_size > 0

    def test_artifacts_pass_the_linter(self, out_dir):
        assert validate_trace(out_dir / "trace.json") == []
        assert lint_prometheus(out_dir / "metrics.prom") == []
        assert lint_main([
            str(out_dir / "trace.json"), str(out_dir / "metrics.prom")
        ]) == 0

    def test_trace_covers_serve_accel_and_tfr_tracks(self, out_dir):
        payload = json.loads((out_dir / "trace.json").read_text())
        cats = {
            e["cat"].split(",")[0]
            for e in payload["traceEvents"]
            if e["ph"] == "X"
        }
        assert {"serve", "accel", "tfr"} <= cats

    def test_metrics_cover_frames_and_latency(self, out_dir):
        text = (out_dir / "metrics.prom").read_text()
        assert "serve_frames_total" in text
        assert "serve_frame_latency_seconds_bucket" in text
        assert "serve_predict_goodput_fps" in text

    def test_chaos_flag_traces_fault_scenario(self, tmp_path):
        code = trace_main([
            "--chaos", "--frames", "60", "--sessions", "2", "--workers", "2",
            "--out", str(tmp_path), "--no-hw",
        ])
        assert code == 0
        text = (tmp_path / "metrics.prom").read_text()
        assert "faults_input_dropped_total" in text
        assert validate_trace(tmp_path / "trace.json") == []


class TestLintRejections:
    def test_bad_trace_is_reported(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [
            {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": -1, "dur": 2},
            {"name": "y", "ph": "q", "pid": 0, "tid": 0},
        ]}))
        errors = validate_trace(bad)
        assert any("ts" in e for e in errors)
        assert any("phase" in e for e in errors)
        assert lint_main([str(bad)]) == 1

    def test_bad_prometheus_is_reported(self, tmp_path):
        bad = tmp_path / "bad.prom"
        bad.write_text("this is not a metric line\n")
        assert lint_prometheus(bad) != []
