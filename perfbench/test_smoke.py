"""Smoke test of the benchmark itself, at toy sizes.

Run from the repository root:  python -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_is_the_catalog():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == catalog.benchmark_json()
    assert 2 <= len(document["workloads"]) <= 8
    names = [w["name"] for w in document["workloads"]]
    for section in ("end_to_end", "per_layer"):
        names += [m["name"] for m in document[section]]
        for metric in document[section]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower"), metric
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 for w in document["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in document["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w.name for w in catalog.WORKLOADS])
def test_workload_prints_every_metric_and_passes_its_checks(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = catalog.PER_LAYER if trace else catalog.END_TO_END
    assert set(result["metrics"]) == {m.name for m in declared}
    for metric in declared:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], float)
    checks = [line for line in lines if line.startswith("check ")]
    assert checks and all(line.startswith("check ok") for line in checks)
    assert any(line.startswith(f"digest {workload} sha256=") for line in lines)
    prefix = "layer" if trace else "metric"
    units = {m.name: m.unit for m in catalog.END_TO_END + catalog.PER_LAYER}
    printed = [line.split() for line in lines if line.startswith(prefix + " ")]
    assert printed
    for words in printed:
        assert words[3] == units[words[1]], words
    if trace:
        assert any("traced_digest_equal" in line for line in checks)
    else:
        assert {words[1] for words in printed} >= {m.name for m in catalog.END_TO_END}


def test_refuses_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("fleet-predict", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
