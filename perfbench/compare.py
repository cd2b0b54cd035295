"""Compare saved benchmark runs.

    python3 perfbench/compare.py RUNS_A                 # one set: spreads
    python3 perfbench/compare.py RUNS_A RUNS_B          # parent A vs change B
    python3 perfbench/compare.py RUNS_A RUNS_B --same   # two sets of one commit:
                                                        # check and suggest bounds

``RUNS_*`` is a directory of run records (``.perfbench_out/runs/*.json``
as ``run.py`` writes them) or a glob.  Only untraced full-size runs are
read; runs with failed operations are named on standard error.

Per workload and end-to-end metric it reports each side's median and
quartiles (``statistics.quantiles(n=4)``), the spread (quartile
distance over the median), the share of paired runs B won (pairs are
matched by seed, ties count for neither) and a verdict against the
metric's bound in ``BENCHMARK.json``:

* ``worse``: B's median is worse than A's by more than the bound, or,
  for a metric in ``PAIRED_BOUND``, the median of B's seed-paired
  losses exceeds its paired bound;
* ``better``: B won at least nine tenths of the pairs and its median
  is better than A's by more than A's own quartile distance, and B
  failed no larger share of operations than A and (for a time scaled
  by the calibration) its pre-start calibration ratio did not move;
* ``unresolved``: neither.  ``within`` says whether B's median stays
  within the bound of A's.

Each workload's detailed metrics (``run["details"]``: the
``recommend_p50_ms``, ``write_p50_ms``, ``table1_auc`` and so on that
its end-to-end ones are computed from, or that ``BENCHMARK.json`` does
not gate) get rows and verdicts too, against ``DETAIL_BOUNDS``.

Each workload also gets a row for ``run_cal_over_pre_start``: the
run's mean calibration reading over the one taken before the program
started.  Work the program leaves running in the background slows the
interleaved readings, and so flatters every scaled time; it shows as a
rise of this ratio.  A rise beyond the smallest bound of the workload's
scaled metrics counts as ``worse``.

With ``--same`` both sets come from one commit.  The tool then checks
what a run of the benchmark must satisfy: each spread within the bound,
B's median not worse than A's by more than the bound, the calibration
ratio likewise, and the same share of failed operations in both sets.
It also suggests a bound: three times the widest spread or the median
shift seen, whichever is larger, at most 0.25.

The exit status is 1 when any check or verdict above fails or reads
``worse``, or B failed a larger share of operations than A.
"""

from __future__ import annotations

import argparse
import glob
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_BOUND = 0.25
# Metrics fixed by the seed (no timing in them): B's median loss over
# seed-paired runs may not exceed this share of A's value.  Their bound
# in BENCHMARK.json has to cover the spread across seeds, which is far
# wider than what a change to the model should be allowed to cost.
PAIRED_BOUND = {"table1_auc": 0.02}
CAL_RATIO = "run_cal_over_pre_start"
UNSCALED = ("peak_rss_mb", "table1_auc")  # not scaled by the calibration
# (better, bound) of the detailed metrics; the rest are lower-is-better
# times held to MAX_BOUND.
DETAIL_BOUNDS = {"recommend_max_rps": ("higher", MAX_BOUND), "table1_auc": ("higher", 0.15)}


def load_runs(spec: str) -> list[dict]:
    path = Path(spec)
    files = sorted(path.glob("*.json")) if path.is_dir() else sorted(map(Path, glob.glob(spec)))
    runs = []
    for file in files:
        record = json.loads(file.read_text())
        # tiny runs (the benchmark's own tests) share the directory
        if record.get("trace") == 0 and not record.get("tiny") and "metrics" in record:
            if record["failed"]:
                print(f"note: {file.name}: {record['failed']} of {record['attempted']} "
                      "operations failed", file=sys.stderr)
            runs.append(record)
    return runs


def by_workload(runs: list[dict]) -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = {}
    for run in runs:
        groups.setdefault(run["workload"], []).append(run)
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def values_of(runs: list[dict], metric: str) -> dict[int, float]:
    if metric == CAL_RATIO:
        return {run["seed"]: run[CAL_RATIO][0] for run in runs}
    values = {run["seed"]: run["metrics"][metric]["value"]
              for run in runs if metric in run["metrics"]}
    return values or {run["seed"]: run["details"][metric]
                      for run in runs if metric in run.get("details", {})}


def detail_rows(run: dict) -> list[tuple[str, str, float]]:
    return [(name, *DETAIL_BOUNDS.get(name, ("lower", MAX_BOUND)))
            for name in run.get("details", {})]


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def compare(set_a: list[dict], set_b: list[dict], spec: dict, same: bool) -> bool:
    ok = True
    metrics = {entry["name"]: entry for entry in spec["end_to_end"]}
    groups_a, groups_b = by_workload(set_a), by_workload(set_b)
    header = (f"{'workload':<18} {'metric':<22} {'A p50':>10} {'A q1..q3':>21} "
              f"{'B p50':>10} {'B q1..q3':>21} {'sprA':>6} {'sprB':>6} "
              f"{'B-worse':>8} {'won':>5} {'bound':>5}  verdict")
    print(header)
    for workload in sorted(set(groups_a) | set(groups_b)):
        runs_a, runs_b = groups_a.get(workload, []), groups_b.get(workload, [])
        if not runs_a or not runs_b:
            print(f"{workload:<18} (missing on one side)")
            ok = False
            continue
        share_a, share_b = failed_share(runs_a), failed_share(runs_b)
        failed_more = share_b > share_a
        scaled = [n for n in metrics if n in runs_a[0]["run"]["scaled"]]
        cal_bound = min(metrics[n]["bound"] for n in scaled)
        cal_moved = worse_by(quartiles(list(values_of(runs_a, CAL_RATIO).values()))[1],
                             quartiles(list(values_of(runs_b, CAL_RATIO).values()))[1],
                             "lower") > cal_bound
        rows = [(n, metrics[n]["better"], metrics[n]["bound"])
                for n in metrics if n in runs_a[0]["metrics"]]
        rows += detail_rows(runs_a[0])
        rows.append((CAL_RATIO, "lower", cal_bound))
        for name, better, bound in rows:
            a, b = values_of(runs_a, name), values_of(runs_b, name)
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            sa, sb = spread(list(a.values())), spread(list(b.values()))
            shift = worse_by(qa[1], qb[1], better)
            seeds = sorted(set(a) & set(b))
            pairs = [(a[seed], b[seed]) for seed in seeds]
            if not pairs:  # different seeds: pair in order
                pairs = list(zip(a.values(), b.values()))
            wins = sum(worse_by(x, y, better) < 0 for x, y in pairs)
            within = shift <= bound
            if name in PAIRED_BOUND and seeds:
                paired = statistics.median(worse_by(x, y, better) for x, y in pairs)
                within &= paired <= PAIRED_BOUND[name]
            if same:
                verdict_ok = within and (name == CAL_RATIO or (sa <= bound and sb <= bound))
                suggest = min(MAX_BOUND, max(3 * max(sa, sb), 1.5 * abs(shift)))
                verdict = ("ok" if verdict_ok else "FAIL") + f" (suggest {suggest:.3f})"
                ok &= verdict_ok
            elif not within:
                verdict = "worse"
                ok = False
            elif name == CAL_RATIO:
                verdict = "within bound"
            elif wins >= 0.9 * len(pairs) and -shift * abs(qa[1]) > (qa[2] - qa[0]):
                if failed_more:
                    verdict = "unresolved (failed operations)"
                elif cal_moved and name not in UNSCALED:
                    verdict = "unresolved (calibration moved)"
                else:
                    verdict = "better"
            else:
                verdict = "unresolved (within bound)"
            print(f"{workload:<18} {name:<22} {qa[1]:>10.4g} "
                  f"{qa[0]:>10.4g}..{qa[2]:<9.4g} {qb[1]:>10.4g} "
                  f"{qb[0]:>10.4g}..{qb[2]:<9.4g} {sa:>6.3f} {sb:>6.3f} "
                  f"{shift:>+8.3f} {wins:>2}/{len(pairs):<2} {bound:>5.2f}  {verdict}")
        if share_a != share_b:
            print(f"{workload:<18} failed share differs: {share_a!r} vs {share_b!r}")
            if same or failed_more:
                ok = False
    return ok


def describe(runs: list[dict], spec: dict) -> None:
    metrics = {entry["name"]: entry for entry in spec["end_to_end"]}
    print(f"{'workload':<18} {'metric':<22} {'n':>3} {'p50':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for workload, group in sorted(by_workload(runs).items()):
        bounds = {name: entry["bound"] for name, entry in metrics.items()}
        bounds.update((name, bound) for name, _, bound in detail_rows(group[0]))
        for name in [*bounds, CAL_RATIO]:
            values = list(values_of(group, name).values())
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            bound = f"{bounds[name]:>6.2f}" if name in bounds else f"{'':>6}"
            print(f"{workload:<18} {name:<22} {len(values):>3} {q2:>10.4g} {q1:>10.4g} "
                  f"{q3:>10.4g} {spread(values):>7.3f} {bound}")
        print(f"{workload:<18} failed share {failed_share(group)!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs_a")
    parser.add_argument("runs_b", nargs="?")
    parser.add_argument("--same", action="store_true",
                        help="both sets come from one commit: check the bounds")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    set_a = load_runs(args.runs_a)
    if not set_a:
        print(f"no untraced runs in {args.runs_a}", file=sys.stderr)
        return 2
    if args.runs_b is None:
        describe(set_a, spec)
        return 0
    set_b = load_runs(args.runs_b)
    if not set_b:
        print(f"no untraced runs in {args.runs_b}", file=sys.stderr)
        return 2
    return 0 if compare(set_a, set_b, spec, args.same) else 1


if __name__ == "__main__":
    sys.exit(main())
