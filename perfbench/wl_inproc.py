"""Workload ``inproc-rank-churn``: the in-process service under catalog churn.

One thread drives a ``RepresentationService`` over about 10k events
closed-loop with a seeded mix of top-10 rankings, 16-user batch
rankings and catalog writes (edit then refresh, remove, re-create).
Run as a process of its own by ``run.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import time


import numpy as np

import checks
from common import peak_rss_mb_self, scaled_samples, summary
from tracing import SpanRecorder, durations, self_times
from workload import Outcome, mark_ready, parse_args

POOL = 10_000
TINY_POOL = 300
TOP_K = 10
BATCH_USERS = 16
SHARE_WRITE = 0.10
SHARE_BATCH = 0.15
SHARE_AT_TIME = 0.30
CHECK_EVERY = 10  # brute-force comparison on every 10th ranking call

TRACED = [
    ("repro.core.service:RepresentationService.rank_events", "service.rank_events"),
    ("repro.core.service:RepresentationService.rank_events_batch", "service.rank_events_batch"),
    ("repro.core.service:RepresentationService.user_version", "service.user_version"),
    ("repro.core.service:RepresentationService.user_vector", "service.user_vector"),
    ("repro.core.service:RepresentationService.refresh_events", "service.refresh_events"),
    ("repro.core.service:top_k_order", "store.top_k_order"),
    ("repro.store.index:EventIndex.score_ids", "store.score_ids"),
    ("repro.store.index:EventIndex.score_ids_batch", "store.score_ids_batch"),
    ("repro.store.index:EventIndex.upsert", "store.upsert"),
    ("repro.store.index:EventIndex.remove", "store.remove"),
    ("repro.text.documents:DocumentEncoder.encode_event", "text.encode_event"),
]


def install(recorder: SpanRecorder) -> None:
    for target, name in TRACED:
        recorder.install(target, name)
    recorder.install(
        "repro.store.index:EventIndex.__contains__", "store.contains", count_only=True
    )

    def rows(args, kwargs, start, end):
        recorder.value("core.encode_events.rows", float(len(args[1])))

    recorder.install(
        "repro.core.model:JointUserEventModel.encode_events",
        "core.encode_events",
        on_call=rows,
    )


class Reference:
    """The benchmark's own copy of every event's vector and times."""

    def __init__(self, model, users, events, capacity: int) -> None:
        self.model = model
        self.user_vectors = {
            user.user_id: vector
            for user, vector in zip(
                users, model.encode_users([model.encoder.encode_user(u) for u in users])
            )
        }
        self.vectors = np.zeros((capacity, model.encode_events(
            [model.encoder.encode_event(events[0])]).shape[1]))
        self.created = np.zeros(capacity)
        self.starts = np.zeros(capacity)
        matrix = model.encode_events([model.encoder.encode_event(e) for e in events])
        for event, vector in zip(events, matrix):
            self.set(event, vector)

    def set(self, event, vector) -> None:
        self.vectors[event.event_id] = vector
        self.created[event.event_id] = event.created_at
        self.starts[event.event_id] = event.starts_at

    def encode(self, event) -> np.ndarray:
        return self.model.encode_events([self.model.encoder.encode_event(event)])[0]

    def expected(self, user_id, live_ids: np.ndarray, at_time, top_k):
        ids = live_ids
        if at_time is not None:
            active = (self.created[ids] <= at_time) & (at_time < self.starts[ids])
            ids = ids[active]
        return checks.brute_force_top_k(
            self.user_vectors[user_id], ids, self.vectors[ids], top_k
        )


def main() -> None:
    args = parse_args(__doc__)
    outcome = Outcome()
    import_start = time.perf_counter()
    from repro.loadgen import build_synthetic_service

    import_s = time.perf_counter() - import_start
    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        install(recorder)
    pool = TINY_POOL if args.tiny else POOL
    service, users, events = build_synthetic_service(seed=args.seed, pool_size=pool)
    mark_ready(outcome)
    outcome.info.update(
        pool=pool, users=len(users), import_s=import_s,
        seeds={"world": args.seed, "operations": args.seed},
    )
    warm_spans = len(recorder.spans) if recorder is not None else None
    paused = recorder.paused if recorder is not None else contextlib.nullcontext

    rng = random.Random(args.seed)
    max_id = max(event.event_id for event in events)
    with paused():
        reference = Reference(service.model, users, events, capacity=max_id + 1)
    live = list(events)
    position = {event.event_id: index for index, event in enumerate(live)}
    removed: dict[int, object] = {}
    time_lo = min(event.created_at for event in events)
    time_hi = max(event.starts_at for event in events)
    edits = 0

    def drop_live(event_id: int) -> None:
        index = position.pop(event_id)
        last = live.pop()
        if last.event_id != event_id:
            live[index] = last
            position[last.event_id] = index

    def check_ranking(user, ranking, at_time, brute_force: bool) -> list[str]:
        got = [(item.event.event_id, item.score) for item in ranking]
        bad = [event_id for event_id, _ in got if event_id in removed]
        if bad:
            return [f"removed events returned: {bad}"]
        if not brute_force:
            return []
        live_ids = np.fromiter((e.event_id for e in live), dtype=np.int64, count=len(live))
        expected, scores = reference.expected(user.user_id, live_ids, at_time, TOP_K)
        problems = checks.check_ranking(got, expected, scores, TOP_K)
        return [f"user {user.user_id} at_time={at_time}: {problems[:3]}"] if problems else []

    # Caches fill before timing: every user's vector is computed once.
    with paused():
        service.rank_events_batch(users, live[:TOP_K], top_k=1)
    cache_before = service.cache.stats.as_dict()
    samples = {"rank": [], "rank_batch": [], "write": []}
    outcome.calibration.take(5)
    if recorder is not None:
        recorder.counts.clear()
    measure_start = time.perf_counter()
    deadline = measure_start + args.seconds
    rank_calls = 0
    while time.perf_counter() < deadline:
        outcome.attempted += 1
        draw = rng.random()
        problems: list[str] = []
        try:
            if draw < SHARE_WRITE:
                kind = rng.random()
                if kind < 0.5 or (kind >= 0.75 and not removed) or len(live) < pool // 2:
                    old = live[rng.randrange(len(live))]
                    edits += 1
                    new = dataclasses.replace(old, title=f"{old.title} (edit {edits})")
                    live[position[old.event_id]] = new
                    start = time.perf_counter()
                    service.refresh_events([new])
                    end = time.perf_counter()
                    with paused():
                        vector = reference.encode(new)
                        reference.set(new, vector)
                        user = users[rng.randrange(len(users))]
                        served = service.rank_events(user, [new], top_k=1)
                    want = float(checks.cosine_scores(
                        reference.user_vectors[user.user_id], vector[None, :])[0])
                    if not served or abs(served[0].score - want) > checks.SCORE_TOLERANCE:
                        problems.append(f"edited event {new.event_id}: served "
                                        f"{served and served[0].score!r}, fresh encode {want!r}")
                elif kind < 0.75:
                    victim = live[rng.randrange(len(live))]
                    start = time.perf_counter()
                    service.remove_event(victim.event_id)
                    end = time.perf_counter()
                    drop_live(victim.event_id)
                    removed[victim.event_id] = victim
                else:
                    event_id = rng.choice(sorted(removed))
                    event = removed.pop(event_id)
                    start = time.perf_counter()
                    service.refresh_events([event])
                    end = time.perf_counter()
                    position[event_id] = len(live)
                    live.append(event)
                samples["write"].append((end, end - start))
            elif draw < SHARE_WRITE + SHARE_BATCH:
                cohort = rng.sample(users, BATCH_USERS)
                start = time.perf_counter()
                rankings = service.rank_events_batch(cohort, live, top_k=TOP_K)
                end = time.perf_counter()
                samples["rank_batch"].append((end, end - start))
                rank_calls += 1
                brute = rank_calls % CHECK_EVERY == 0
                for user, ranking in zip(cohort, rankings):
                    problems += check_ranking(user, ranking, None, brute)
            else:
                user = users[rng.randrange(len(users))]
                at_time = (
                    rng.uniform(time_lo, time_hi) if rng.random() < SHARE_AT_TIME else None
                )
                start = time.perf_counter()
                ranking = service.rank_events(user, live, at_time=at_time, top_k=TOP_K)
                end = time.perf_counter()
                samples["rank"].append((end, end - start))
                rank_calls += 1
                problems += check_ranking(user, ranking, at_time, rank_calls % CHECK_EVERY == 0)
        except Exception as error:  # a raised error is a failed operation
            problems.append(f"{type(error).__name__}: {error}")
        if problems:
            outcome.fail("; ".join(problems[:3]))
        outcome.calibration.take()
    measure_end = time.perf_counter()
    outcome.calibration.take(5)
    if recorder is not None:
        recorder.active = False

    cal = outcome.calibration
    for name, values in samples.items():
        if not values:
            continue
        outcome.raw[f"{name}_p50_ms"] = summary(s * 1e3 for _, s in values)["p50"]
        outcome.scaled[f"{name}_p50_ms"] = summary(
            scaled_samples(values, cal))["p50"] * 1e3
        outcome.info[f"{name}_count"] = len(values)
    outcome.raw["peak_rss_mb"] = peak_rss_mb_self()
    cache_after = service.cache.stats.as_dict()
    outcome.info.update(
        measure_s=measure_end - measure_start,
        live_events=len(live),
        removed_events=len(removed),
        edits=edits,
        first_op_at=measure_start,
    )
    if recorder is not None:
        outcome.layers = layer_metrics(
            recorder, warm_spans, measure_start, measure_end, cache_before,
            cache_after, import_s,
        )
    outcome.write(args.result)
    if recorder is not None and args.spans is not None:
        recorder.write(args.spans, {"workload": "inproc-rank-churn"})


def layer_metrics(recorder, warm_spans, start, end, cache_before, cache_after,
                  import_s) -> dict:
    spans = recorder.as_dicts()
    measured = [span for span in spans if start <= span["start"] <= end]
    warm = spans[:warm_spans]

    def p50(name, scale, sample=measured):
        values = durations(sample, name)
        return summary(values)["p50"] * scale if values else None

    # rank_events and rank_events_batch each test every candidate once
    rankings = len(durations(measured, "service.rank_events")) + len(
        durations(measured, "service.rank_events_batch"))
    warm_encode = durations(warm, "core.encode_events")
    warm_rows = sum(recorder.values.get("core.encode_events.rows", [])[: len(warm_encode)])
    lookups = cache_after["lookups"] - cache_before["lookups"]
    return {
        "service.user_version_p50_us": p50("service.user_version", 1e6),
        "service.user_vector_p50_us": p50("service.user_vector", 1e6),
        "store.contains_per_rank": (
            recorder.counts.get("store.contains", 0) / rankings if rankings else None
        ),
        "store.score_ids_p50_us": p50("store.score_ids", 1e6),
        "store.score_ids_batch_p50_us": p50("store.score_ids_batch", 1e6),
        "store.top_k_order_p50_us": p50("store.top_k_order", 1e6),
        "store.cache_hit_ratio": (
            (cache_after["hits"] - cache_before["hits"]) / lookups if lookups else None
        ),
        "service.refresh_p50_ms": p50("service.refresh_events", 1e3),
        "store.upsert_p50_us": p50("store.upsert", 1e6),
        "store.remove_p50_us": p50("store.remove", 1e6),
        "core.encode_events_p50_ms": p50("core.encode_events", 1e3),
        "core.encode_events_rows_per_s": (
            warm_rows / sum(warm_encode) if warm_encode else None
        ),
        "text.encode_event_p50_us": p50("text.encode_event", 1e6, spans),
        "startup.import_s": import_s,
        "self_time_s": {
            name: row["self_s"] for name, row in self_times(spans, start, end).items()
        },
    }


if __name__ == "__main__":
    main()
