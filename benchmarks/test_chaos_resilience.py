"""Chaos resilience: graceful degradation under escalating fault pressure.

Sweeps sensor frame-drop rates over the canonical two-worker scenario
(worker stall + crash + latency spike) and compares each run against the
fault-free replay of the identical fleet.  The acceptance claims: the
conservation ledger closes at every pressure level (no frame is ever
silently dropped), the deadline-miss rate stays within 2x the fault-free
baseline (failures degrade to stale-but-on-time reuse instead of going
late), and the same seed reproduces bit-identical fault telemetry.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from benchmarks.conftest import emit
from repro.faults import default_chaos_scenario
from repro.faults.cli import fault_free
from repro.serve import run_fleet
from repro.system import table_to_text

DROP_RATES = (0.0, 0.05, 0.10, 0.20)


def _assert_conserved(config, report):
    expected = config.serve.n_sessions * config.serve.frames_per_session
    assert report.total_frames == expected
    for stats in report.sessions:
        assert (
            stats.completed + stats.shed + stats.pending + stats.lost_input
            == config.serve.frames_per_session
        )


@pytest.mark.benchmark(group="chaos")
def test_degradation_stays_graceful_under_fault_pressure(benchmark):
    base = default_chaos_scenario(seed=0)

    def sweep():
        baseline = run_fleet(fault_free(base))
        rows = []
        for rate in DROP_RATES:
            faults = base.faults
            config = replace(
                base,
                faults=replace(
                    faults,
                    input_faults=replace(faults.input_faults, frame_drop_rate=rate),
                ),
            )
            rows.append((rate, config, run_fleet(config)))
        return baseline, rows

    baseline, rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    base_miss = baseline.deadline_miss_rate
    table = []
    for rate, _, report in rows:
        faults = report.faults
        table.append([
            f"{rate:.0%}",
            report.completed_frames,
            report.lost_input_frames,
            sum(s.degraded for s in report.sessions),
            faults.batch_failures,
            faults.retries_scheduled,
            f"{report.deadline_miss_rate:.2%}",
        ])
    emit(table_to_text(
        ["Drop", "Served", "Lost", "Degraded", "BatchFail", "Retries", "Miss"],
        table,
        min_width=8,
    ))
    emit(
        f"fault-free baseline: {baseline.completed_frames} served, "
        f"{base_miss:.2%} miss"
    )

    # The clean replay really is clean.
    assert baseline.faults.input_dropped == 0
    assert baseline.faults.batch_failures == 0
    assert baseline.lost_input_frames == 0

    for rate, config, report in rows:
        # No silent loss at any pressure level.
        _assert_conserved(config, report)
        # Graceful: faults surface as accounted degradation, not lateness.
        assert report.deadline_miss_rate <= max(2.0 * base_miss, 1e-3)

    # Input-fault pressure shows up monotonically in the lost-frame ledger.
    lost = [report.lost_input_frames for _, _, report in rows]
    assert lost == sorted(lost) and lost[-1] > lost[0]
    # The worker-fault schedule actually bit: recovery machinery engaged.
    assert any(r.faults.batch_failures > 0 for _, _, r in rows)

    # Same seed, same telemetry — the resilience story is reproducible.
    again = run_fleet(rows[-1][1])
    assert again.faults == rows[-1][2].faults
