"""Launch ``repro-events serve``, traced or not.

    python3 perfbench/serve.py --trace 1 --spans out.jsonl -- --port 0 --pool-size 500

With ``--trace 1`` it wraps the serving layers' public functions (see
``TRACED``) before calling ``repro.cli.main(["serve", ...])`` and
writes the spans when the server stops (SIGINT drains it).  With
``--trace 0`` it installs nothing.
"""

from __future__ import annotations

import argparse
import sys
import time


from tracing import SpanRecorder

TRACED = [
    ("repro.serving.server:ServingServer.dispatch", "serving.dispatch"),
    ("repro.serving.http:HttpRequest.json", "serving.json_decode"),
    ("repro.serving.server:render_response", "serving.render"),
    ("repro.core.service:RepresentationService.rank_events", "service.rank_events"),
    ("repro.core.service:RepresentationService.rank_events_batch",
     "service.rank_events_batch"),
]


def install(recorder: SpanRecorder) -> None:
    for target, name in TRACED:
        recorder.install(target, name)
    # When did the service call that carries each queued item start?
    flush_started: dict[int, float] = {}

    def flushed(args, kwargs, start, end):
        work = args[1]
        items = work if isinstance(work, list) else [work]
        for item in items:
            flush_started[id(item)] = start

    def submitted(args, kwargs, start, end):
        started = flush_started.pop(id(args[1]), None)
        if started is not None:
            recorder.value("serving.batch_wait_s", started - start)
            recorder.value("serving.batch_wait_at", start)

    # The batcher keeps bound runners, so these must be wrapped before
    # the server is built.
    recorder.install("repro.serving.server:ServingServer._recommend_batch",
                     "serving.flush", on_call=flushed)
    recorder.install("repro.serving.server:ServingServer._recommend_single",
                     "serving.flush", on_call=flushed)
    recorder.install("repro.serving.batcher:MicroBatcher.submit",
                     "serving.submit", on_call=submitted)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [a for a in args.serve_args if a != "--"]
    import_start = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - import_start
    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        install(recorder)
    try:
        return repro.cli.main(["serve", *serve_args])
    finally:
        if recorder is not None and args.spans:
            recorder.active = False
            from pathlib import Path

            recorder.write(Path(args.spans), {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
