"""One benchmark process: set up a workload, then run its closed loop.

Started by run.py, never by hand.  Protocol on stdout, one JSON line each:
``@@READY {...}`` once set-up (import, input generation, warm-up) is done,
then, unless ``--mode setup``, ``@@RESULT {...}`` after the timed loop.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
import traceback

import common
import spans

# a run issues at least this many queries, so p90 has 10 samples beyond it
MIN_QUERIES = 100


def emit(tag: str, payload: dict) -> None:
    sys.stdout.write(f"@@{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def report_failure(q: common.Query, error: BaseException | None) -> None:
    sys.stderr.write(f"perfbench: {q.kind} failed its check: {q.key}\n")
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)


def execute(q: common.Query, recorder=None, query_id: int = -1):
    """Time one query, then check it; returns (seconds, correct, decided)."""
    if recorder is not None:
        recorder.query_id = query_id
        recorder.active = True
    error = None
    t0 = time.perf_counter()
    try:
        result = q.run()
    except Exception as exc:  # a failed query is counted, not fatal
        error = exc
    t1 = time.perf_counter()
    if recorder is not None:
        recorder.active = False
    ok = decided = False
    if error is None:
        try:
            ok, decided = q.check(result)
        except Exception as exc:
            error = exc
    if not ok:
        report_failure(q, error)
    return t1 - t0, ok, ok and decided


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=common.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--spans-out", default="")
    args = ap.parse_args()
    for key in common.GCLOSE_ENV:
        os.environ.pop(key, None)

    gclose = common.import_gclose()
    module = importlib.import_module(common.WORKLOADS[args.workload])
    bench = module.Workload(gclose, args.seed)
    pool = [bench.round(i) for i in range(module.POOL_ROUNDS)]
    warm_ok = all(execute(q)[1] for q in bench.warmup())
    emit(
        "READY",
        {
            "inputs_digest": common.digest(pool),
            "pool_rounds": len(pool),
            "warmup_ok": warm_ok,
        },
    )
    if args.mode == "setup":
        return 0

    recorder = None
    if args.mode == "traced":
        recorder = spans.Recorder()
        recorder.install()
    latencies: list[float] = []
    attempted = failed = decided = rounds = 0
    start = time.perf_counter()
    while True:
        batch = pool[rounds] if rounds < len(pool) else bench.round(rounds)
        for q in batch:
            seconds, ok, dec = execute(q, recorder, attempted)
            latencies.append(seconds)
            attempted += 1
            failed += not ok
            decided += dec
        rounds += 1
        if args.mode == "traced":
            if rounds >= args.rounds:
                break
        elif attempted >= MIN_QUERIES and time.perf_counter() - start >= args.seconds:
            break
    elapsed = time.perf_counter() - start

    payload = {
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "decided": decided,
        "rounds": rounds,
        "timed_wall_s": sum(latencies),
        "elapsed_s": elapsed,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        recorder.uninstall()
        payload["layers"] = recorder.metrics()
        payload["self_test"] = recorder.self_test(args.workload)
        payload["spans_stored"] = len(recorder.start_col)
        payload["spans_dropped"] = recorder.dropped
        if args.spans_out:
            recorder.dump(common.ROOT / args.spans_out)
    emit("RESULT", payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
