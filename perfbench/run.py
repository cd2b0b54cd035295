"""Benchmark of the event recommender: one command, three workloads.

    python3 perfbench/run.py --workload inproc-rank-churn --seed 1 --seconds 20 --trace 0

Workloads: ``http-recommend``, ``inproc-rank-churn``, ``paper-table1``
(or ``all``).  Each workload runs the program in processes of its own;
this orchestrator only takes a calibration reading before the program
starts, launches them, and prints the result.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, which every workload reports: ``setup_s``,
``peak_rss_mb``, and the workload's own latency and throughput
(``GATED`` below), times scaled to the nominal calibration speed (see
README.md).  The workload's detailed metrics (``recommend_p50_ms``,
``write_p50_ms``, ``table1_auc`` and so on) are printed above the
result line and saved.  With ``--trace 1`` the run is made twice,
untraced then traced, each for half the time; the metrics are every
per-layer metric of ``BENCHMARK.json`` from the traced half (0 for a
function the workload does not time) plus the tracing overhead (traced
over untraced ``latency_p50_ms``).  Every run is saved in full under
``.perfbench_out/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT_DIR,
    ROOT,
    Calibration,
    child_env,
    ensure_src,
    environment,
    machine_cpu_seconds,
    median,
    read_json,
    scale_time,
    write_json,
)
from wl_inproc import BATCH_USERS  # noqa: E402

HERE = Path(__file__).resolve().parent
# A child may take this long beyond its measured seconds (set-up and
# reference computations).
CHILD_SLACK_S = 150.0
SETUP_BURST_S = 0.2
# The machine's speed flips between states for stretches of 50 ms to
# seconds, so the reading before the program starts spans a second.
PRE_START_S = 1.0

# script: the workload process; probes: set-up-only processes run
# before it; kernel: its calibration kernel; metrics: its detailed
# metrics, measured by the workload process (set-up by this one).
WORKLOADS = {
    "http-recommend": {
        "script": "wl_http.py", "probes": 0, "kernel": "interpreter",
        "metrics": ["setup_s", "peak_rss_mb", "recommend_p50_ms", "recommend_max_rps"],
    },
    "inproc-rank-churn": {
        "script": "wl_inproc.py", "probes": 0, "kernel": "interpreter",
        "metrics": ["setup_s", "peak_rss_mb", "rank_p50_ms", "rank_batch_p50_ms",
                    "write_p50_ms"],
    },
    "paper-table1": {
        "script": "wl_table1.py", "probes": 2, "kernel": "mixed",
        "metrics": ["setup_s", "peak_rss_mb", "train_s", "table1_s", "table1_auc"],
    },
}
UNSCALED = ("peak_rss_mb", "table1_auc")
TABLE1_SETTINGS = 4  # rows of Table 1, one GBDT combiner each

# Every workload reports every end-to-end metric (the result line holds
# all of BENCHMARK.json), so besides set-up and memory each reports a
# latency (what one caller waits for) and a throughput (work done per
# second by its bulk path), computed from its detailed metrics:
# http-recommend: /recommend p50 at the fixed rate; /recommend per second
#   with both connections busy.
# inproc-rank-churn: rank_events p50; users ranked per second by the
#   16-user rank_events_batch.
# paper-table1: prepare() (data to a trained model); Table-1 rows (a
#   GBDT combiner fit and evaluated) per second of run_table1().
GATED = {
    "http-recommend": {
        "latency_p50_ms": lambda m: m["recommend_p50_ms"],
        "throughput_per_s": lambda m: m["recommend_max_rps"],
    },
    "inproc-rank-churn": {
        "latency_p50_ms": lambda m: m["rank_p50_ms"],
        "throughput_per_s": lambda m: BATCH_USERS * 1e3 / m["rank_batch_p50_ms"],
    },
    "paper-table1": {
        "latency_p50_ms": lambda m: m["train_s"] * 1e3,
        "throughput_per_s": lambda m: TABLE1_SETTINGS / m["table1_s"],
    },
}


def manifest() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and of the per-layer metrics."""
    spec = read_json(ROOT / "BENCHMARK.json")
    return ({entry["name"]: entry["unit"] for entry in spec["end_to_end"]},
            {entry["name"]: entry["unit"] for entry in spec["per_layer"]})


def run_child(script: str, args, seconds: float, trace: int, tag: str,
              probe: bool = False) -> tuple[dict, float]:
    """Run one workload process; return its result and its spawn instant."""
    runs = OUT_DIR / "tmp"
    result = runs / f"{tag}.json"
    spans = OUT_DIR / "spans" / f"{tag}.jsonl"
    result.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / script),
        "--seed", str(args.seed), "--seconds", str(seconds),
        "--trace", str(trace), "--result", str(result), "--spans", str(spans),
    ]
    if args.tiny:
        command.append("--tiny")
    if probe:
        command.append("--probe")
    spawned_at = time.perf_counter()
    # A session of its own, so a timeout also stops what the child started.
    process = subprocess.Popen(command, cwd=ROOT, env=child_env(), start_new_session=True,
                               stdout=sys.stderr, stderr=sys.stderr)
    timeout = seconds + CHILD_SLACK_S
    try:
        code = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise SystemExit(f"error: {script} did not finish in {timeout:.0f} s")
    if code != 0 or not result.exists():
        raise SystemExit(f"error: {script} exited with status {code}")
    payload = read_json(result)
    result.unlink()
    return payload, spawned_at


def setup_sample(result: dict, spawned: float, before: float) -> dict:
    """Spawn to ready, with the mean of the bursts on either side."""
    return {"raw_s": result["info"]["ready_at"] - spawned,
            "cal_s": (before + result["info"]["ready_cal_s"]) / 2}


def measure(workload: str, args, seconds: float, trace: int, pre: Calibration) -> dict:
    """One pass of a workload: set-up probes, then the main process.

    ``pre`` is this process's calibration, taken while no program runs.
    """
    spec = WORKLOADS[workload]
    script = spec["script"]
    tag = f"{workload}-s{args.seed}-t{trace}"
    # Each set-up is scaled by calibration bursts taken just before the
    # spawn (here) and just after the program is ready (by the child).
    setups: list[dict] = []
    for index in range(0 if args.tiny else spec["probes"]):
        before = pre.burst(SETUP_BURST_S)
        probe, spawned = run_child(script, args, seconds, 0, f"{tag}-probe{index}", True)
        setups.append(setup_sample(probe, spawned, before))
    before = pre.burst(SETUP_BURST_S)
    result, spawned = run_child(script, args, seconds, trace, tag)
    if "ready_at" in result["info"]:
        setups.append(setup_sample(result, spawned, before))
    else:  # the workload process timed its own set-ups (server spawns)
        setups.extend(result["info"]["setup_samples"])
    nominal = result["calibration"]["nominal_s"]
    result["raw"]["setup_s"] = median([setup["raw_s"] for setup in setups])
    result["scaled"]["setup_s"] = median(
        [scale_time(setup["raw_s"], setup["cal_s"], nominal) for setup in setups])
    result["setup_samples"] = setups
    missing = [name for name in spec["metrics"]
               if name not in result["raw" if name in UNSCALED else "scaled"]]
    if missing:
        result["problems"].append(f"metrics not measured: {missing}")
        result["failed"] += 1
        return result
    for values in (result["raw"], result["scaled"]):
        for name, derive in GATED[workload].items():
            values[name] = derive(values)
    return result


def end_to_end(result: dict, units: dict[str, str]) -> dict:
    metrics = {}
    for name, unit in units.items():
        value = result["raw" if name in UNSCALED else "scaled"].get(name)
        if value is not None:
            metrics[name] = {"value": value, "unit": unit}
    return metrics


def detail_unit(name: str) -> str:
    """The unit of a detailed metric, from its name's suffix."""
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_rps", "1/s"), ("_auc", "1")):
        if name.endswith(suffix):
            return unit
    return ""


def details(workload: str, result: dict) -> dict:
    """The workload's own metrics besides set-up and memory (not gated)."""
    values = {name: result["raw" if name in UNSCALED else "scaled"].get(name)
              for name in WORKLOADS[workload]["metrics"]
              if name not in ("setup_s", "peak_rss_mb")}
    return {name: value for name, value in values.items() if value is not None}


def run_workload(workload: str, args, units: dict[str, str],
                 layer_units: dict[str, str]) -> dict:
    # CPU the machine spent on other work during the run: what neither
    # this process nor its waited-for descendants used.
    busy_before, steal_before = machine_cpu_seconds()
    own_before = sum(os.times()[:4])
    pre = Calibration(WORKLOADS[workload]["kernel"])
    pre_start = pre.burst(PRE_START_S)  # before any process of the program starts
    env = environment(args.seed)
    if args.trace:
        half = max(1.0, args.seconds / 2.0)
        plain = measure(workload, args, half, 0, pre)
        traced = measure(workload, args, half, 1, pre)
        overhead = {
            name: traced["scaled"][name] / plain["scaled"][name]
            for name in plain["scaled"]
            if name in traced["scaled"] and plain["scaled"][name]
        }
        layers = {**traced["layers"],
                  "trace.overhead_ratio": overhead.get("latency_p50_ms")}
        # A function this workload does not reach (or does not time)
        # reads 0, so that every workload reports every layer metric.
        metrics = {
            name: {"value": layers.get(name) or 0.0, "unit": unit}
            for name, unit in layer_units.items()
        }
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        record = {"untraced": plain, "traced": traced, "overhead": overhead}
    else:
        result = measure(workload, args, args.seconds, 0, pre)
        metrics = end_to_end(result, units)
        attempted, failed = result["attempted"], result["failed"]
        record = {"run": result}
    busy_after, steal_after = machine_cpu_seconds()
    own = sum(os.times()[:4]) - own_before
    record.update(
        machine={"other_cpu_s": busy_after - busy_before - own,
                 "steal_s": steal_after - steal_before},
        workload=workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        tiny=args.tiny, environment=env,
        pre_start_cal_s=pre_start, orchestrator_cal=pre.as_dict(),
        run_cal_over_pre_start=[
            r["calibration"]["mean"] / pre_start
            for r in (record.get("run"), record.get("untraced"), record.get("traced")) if r
        ],
        metrics=metrics, details=details(workload, record.get("run") or record["untraced"]),
        attempted=attempted, failed=failed,
        finished=time.strftime("%Y-%m-%dT%H:%M:%S"),
    )
    stamp = time.strftime("%Y%m%dT%H%M%S")
    write_json(OUT_DIR / "runs" / f"{workload}-s{args.seed}-t{args.trace}-{stamp}.json", record)
    runs = [r for r in (record.get("run"), record.get("untraced"), record.get("traced")) if r]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": [problem for r in runs for problem in r["problems"]],
        # measured and saved, but not gated (see README.md)
        "details": {name: value for name, value in
                    {**runs[0]["scaled"], **record["details"]}.items()
                    if name not in units},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and no set-up probes (the benchmark's tests)")
    args = parser.parse_args()
    ensure_src()
    units, layer_units = manifest()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args, units, layer_units) for name in names}
    for name, result in results.items():
        for problem in result.pop("problems"):
            print(f"[{name}] FAILED: {problem}", file=sys.stderr)
        for metric, entry in result["metrics"].items():
            print(f"{name:<18} {metric:<34} {entry['value']:>14.6g} {entry['unit']}")
        if not args.trace:
            for metric, value in result["details"].items():
                print(f"{name:<18} {metric:<34} {value:>14.6g} "
                      f"{detail_unit(metric)} (not gated)")
        del result["details"]
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": entry
                for name, r in results.items() for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
