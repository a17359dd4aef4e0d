"""gclose benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload witness-rational --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the kernel is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer breakdown.  The last line of stdout is the JSON result; the line
before it records the interpreter, commit, nproc, seed and input digest.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import common
import spans

# set-up-only workers started before and after the timed worker; setup_s is
# the median of theirs and the timed worker's set-up times.  Spreading the
# samples over the run keeps one slow moment of a shared host from setting it.
SETUPS_BEFORE = SETUPS_AFTER = 3
# every child process must have finished by then (a run must end within 180 s)
DEADLINE_S = 170
OUT_DIR = ".perfbench_out"


class ChildError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in common.GCLOSE_ENV}
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, mode: str, **extra) -> tuple[float, dict, dict]:
    """Start a worker; returns (seconds to READY, READY payload, RESULT payload)."""
    argv = [
        sys.executable,
        str(common.BENCH_DIR / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
    ]
    for key, value in extra.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=common.ROOT
    )
    try:
        ready = result = None
        setup_s = 0.0
        for line in proc.stdout:
            if line.startswith("@@READY "):
                setup_s = time.perf_counter() - started
                ready = json.loads(line[8:])
            elif line.startswith("@@RESULT "):
                result = json.loads(line[9:])
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (mode != "setup" and result is None):
        raise ChildError(f"{mode} worker for {workload} exited with code {code}")
    return setup_s, ready, result or {}


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    setups, digests = [], set()

    def setup_only():
        setup_s, ready, _ = run_child(workload, seed, "setup")
        setups.append(setup_s)
        digests.add(ready["inputs_digest"])

    for _ in range(SETUPS_BEFORE):
        setup_only()
    setup_s, ready, res = run_child(workload, seed, "timed", seconds=seconds)
    setups.append(setup_s)
    digests.add(ready["inputs_digest"])
    for _ in range(SETUPS_AFTER):
        setup_only()

    lat_ms = sorted(x * 1000 for x in res["latencies"])
    attempted, failed = res["attempted"], res["failed"]
    metrics = {
        "queries_per_s": ((attempted - failed) / res["timed_wall_s"], "1/s"),
        "query_p50_ms": (common.percentile(lat_ms, 0.50), "ms"),
        "query_p90_ms": (common.percentile(lat_ms, 0.90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024, "MB"),
        "decided_ratio": (res["decided"] / attempted, "ratio"),
    }
    correct = failed == 0 and ready["warmup_ok"] and len(digests) == 1
    info = {
        "inputs_digest": ready["inputs_digest"],
        "samples": attempted,
        "rounds": res["rounds"],
        "failed_ratio": failed / attempted,
        "setup_samples_s": setups,
        "timed_wall_s": res["timed_wall_s"],
        "deterministic_inputs": len(digests) == 1,
    }
    return _result(correct, attempted, failed, metrics), info


def traced(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    # untraced baseline first: it fixes how many rounds both passes run
    _, ready_u, base = run_child(workload, seed, "timed", seconds=max(1, seconds / 2))
    spans_out = f"{OUT_DIR}/spans-{workload}-seed{seed}"
    _, ready_t, res = run_child(
        workload, seed, "traced", rounds=base["rounds"], spans_out=spans_out
    )
    layers = dict(res["layers"])
    layers["trace.overhead_s"] = res["timed_wall_s"] - base["timed_wall_s"]
    units = dict(spans.PER_LAYER)
    metrics = {name: (layers[name], units[name]) for name, _ in spans.PER_LAYER}
    for problem in res["self_test"]:
        sys.stderr.write(f"perfbench: self-test: {problem}\n")
    attempted = base["attempted"] + res["attempted"]
    failed = base["failed"] + res["failed"]
    same_inputs = ready_u["inputs_digest"] == ready_t["inputs_digest"]
    correct = (
        failed == 0
        and ready_u["warmup_ok"]
        and ready_t["warmup_ok"]
        and same_inputs
        and not res["self_test"]
    )
    info = {
        "inputs_digest": ready_t["inputs_digest"],
        "samples": res["attempted"],
        "rounds": res["rounds"],
        "failed_ratio": failed / attempted,
        "untraced_wall_s": base["timed_wall_s"],
        "traced_wall_s": res["timed_wall_s"],
        "spans_stored": res["spans_stored"],
        "spans_dropped": res["spans_dropped"],
        "spans_file": spans_out + ".bin",
        "self_test": res["self_test"],
    }
    return _result(correct, attempted, failed, metrics), info


def _result(correct, attempted, failed, metrics) -> dict:
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _on_alarm(signum, frame):
    raise TimeoutError(f"benchmark exceeded {DEADLINE_S} s")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=common.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (common.SRC / "gclose" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no kernel sources under {common.SRC}\n")
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        measure = traced if args.trace else end_to_end
        result, info = measure(args.workload, args.seed, args.seconds)
    except (ChildError, TimeoutError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        signal.alarm(0)

    info.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "interpreter": f"{sys.implementation.name} {sys.version.split()[0]}",
            "commit": common.commit_id(),
            "source_digest": common.source_digest(),
            "nproc": os.cpu_count(),
        }
    )
    out = common.ROOT / OUT_DIR
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
