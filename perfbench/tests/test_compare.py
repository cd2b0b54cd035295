"""Verdicts of the comparison tool over made-up run records.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import compare  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]}
SEEDS = range(1, 11)


def record(seed: int, train_s: float, auc: float = 0.68, setup_s: float = 2.0,
           failed: int = 0, cal: float = 1.0) -> dict:
    # small seed-dependent jitter, so that quartiles are not degenerate
    jitter = 1.0 + 0.002 * (seed % 5)
    scaled = {"setup_s": setup_s * jitter, "latency_p50_ms": train_s * 1e3 * jitter}
    return {
        "workload": "paper-table1", "seed": seed, "trace": 0,
        "attempted": 100, "failed": failed,
        "metrics": {name: {"value": value, "unit": "s"} for name, value in scaled.items()},
        "details": {"train_s": train_s * jitter, "table1_auc": auc + 0.001 * (seed % 3)},
        "run": {"scaled": scaled},
        "run_cal_over_pre_start": [cal * jitter],
    }


def verdicts(capsys) -> dict[str, str]:
    rows = capsys.readouterr().out.splitlines()[1:]
    return {row.split()[1]: row.rsplit("  ", 1)[-1] for row in rows if row.split()[1:2]}


def test_a_clear_gain_is_better(capsys):
    parent = [record(seed, 4.0) for seed in SEEDS]
    change = [record(seed, 3.0) for seed in SEEDS]
    assert compare.compare(parent, change, SPEC, same=False)
    seen = verdicts(capsys)
    assert seen["latency_p50_ms"] == "better"
    assert seen["train_s"] == "better"


def test_a_gain_with_failed_operations_is_not_better(capsys):
    parent = [record(seed, 4.0) for seed in SEEDS]
    change = [record(seed, 3.0, failed=int(seed == 4)) for seed in SEEDS]
    assert not compare.compare(parent, change, SPEC, same=False)
    seen = verdicts(capsys)
    assert seen["latency_p50_ms"] == "unresolved (failed operations)"
    assert "better" not in seen.values()


def test_a_calibration_ratio_that_rose_is_worse(capsys):
    # background work slows the interleaved kernel and flatters scaled times
    parent = [record(seed, 4.0) for seed in SEEDS]
    change = [record(seed, 3.0, cal=1.5) for seed in SEEDS]
    assert not compare.compare(parent, change, SPEC, same=False)
    seen = verdicts(capsys)
    assert seen[compare.CAL_RATIO] == "worse"
    assert seen["latency_p50_ms"] == "unresolved (calibration moved)"
    assert seen["train_s"] == "unresolved (calibration moved)"


def test_a_paired_auc_loss_within_the_unpaired_bound_is_worse(capsys):
    parent = [record(seed, 4.0, auc=0.68) for seed in SEEDS]
    change = [record(seed, 4.0, auc=0.66) for seed in SEEDS]
    assert not compare.compare(parent, change, SPEC, same=False)
    assert verdicts(capsys)["table1_auc"] == "worse"


def test_same_checks_the_setup_spread(capsys):
    first = [record(seed, 4.0) for seed in SEEDS]
    second = [record(seed, 4.0, setup_s=1.0 + 0.3 * (seed % 4)) for seed in range(11, 21)]
    assert not compare.compare(first, second, SPEC, same=True)
    assert verdicts(capsys)["setup_s"].startswith("FAIL")
