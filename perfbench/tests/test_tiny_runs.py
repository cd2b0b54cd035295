"""Each workload end to end at tiny size, untraced and traced (~2 min).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_NAMES = {entry["name"] for entry in SPEC["per_layer"]}
END_TO_END = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    done = run(workload, 0)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr[-2000:]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == END_TO_END[name]
        assert entry["value"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_prints_every_layer_metric(workload):
    done = run(workload, 1)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr[-2000:]
    metrics = result["metrics"]
    assert set(metrics) == LAYER_NAMES
    # the workload's own layers are measured; the others read 0
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert metrics["startup.import_s"]["value"] > 0
    assert sum(entry["value"] > 0 for entry in metrics.values()) >= 8


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run("paper-table1", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
