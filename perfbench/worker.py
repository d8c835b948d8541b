"""One workload in one process: set-up, timed closed loop, result.

Started by run.py (the parent measures set-up time from the spawn), with
PYTHONPATH pointing at the checkout's ``src``.  Prints one JSON line
``{"ready": <time.monotonic()>}`` when set-up is done; with ``--probe`` it
exits there, otherwise it runs the timed phase and prints the result as a
second JSON line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
HARD_LIMIT_S = 140.0      # never start a round predicted to end later


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="only the cheapest cells (for the benchmark's tests)")
    ap.add_argument("--probe", action="store_true",
                    help="stop after set-up (a set-up time sample)")
    return ap.parse_args(argv)


def run_one(wl, item) -> tuple[float, dict]:
    start = time.perf_counter()
    try:
        rec = wl.run(item)
    except Exception as exc:     # an unpredicted exception fails the item
        print(f"item {item} raised:\n{traceback.format_exc()}", file=sys.stderr)
        rec = {"cell": item["cell"], "error": type(exc).__name__, "ok": False}
    return time.perf_counter() - start, rec


def timed_phase(wl, seed: int, seconds: float, recorder=None) -> dict:
    """Closed loop over whole rounds until ``seconds`` is (about) spent.

    Every item starts on a collected heap (the collection is not timed), so
    a collection made due by the items before it does not land in its time.
    Every run measures whole rounds.  A new round starts while less than
    half a round's time would run past the deadline.  With a recorder each
    round runs twice, untraced and then traced on the same items, and a new
    round starts only when it is predicted to end by the deadline.
    """
    from spans import install

    times, records, traced_times, traced_failed = [], [], [], 0
    rounds = 0
    start = time.perf_counter()
    while True:
        items = wl.round_items(seed, rounds)
        for item in items:
            gc.collect()
            dt, rec = run_one(wl, item)
            times.append(dt)
            records.append((rounds, rec))
        if recorder is not None:
            restore = install(recorder)
            try:
                for k, item in enumerate(items):
                    gc.collect()
                    dt, rec = recorder.run_item(rounds * len(items) + k, run_one, wl, item)
                    traced_times.append(dt)
                    traced_failed += not rec.get("ok")
            finally:
                restore()
        rounds += 1
        elapsed = time.perf_counter() - start
        per_round = elapsed / rounds
        overrun = per_round if recorder is not None else per_round / 2
        if elapsed + overrun >= seconds or elapsed + per_round > HARD_LIMIT_S:
            break
    return {"times": times, "records": records, "rounds": rounds,
            "wall": time.perf_counter() - start, "traced_times": traced_times,
            "traced_failed": traced_failed, "round_items": len(items)}


def cpu_ticks() -> list[int] | None:
    """The machine's CPU time counters (user, ..., steal) from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between;
    a run with a high share ran on a busy host."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def tail(times: list[float], rounds: int, tail_rounds: int) -> tuple[float, dict]:
    """The per-item time at the workload's tail percentile, the highest one
    that has ten samples beyond it in a run of ``tail_rounds`` rounds, with
    that percentile and the sample counts.  The percentile does not depend
    on the number of rounds run, so the tail sits at the same place among
    the cells whether a run makes few or many rounds; every run of
    ``tail_rounds`` or more rounds has at least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(10 * rounds // tail_rounds, n - 1)
    return ordered[n - 1 - beyond], {"percentile": 100.0 * (n - beyond) / n,
                                     "samples": n, "beyond": beyond}


def digest(records) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):    # numpy builds without BLAS metadata
        blas = {}
    threads = int(os.environ.get("OPENBLAS_NUM_THREADS", "0") or 0)
    nproc = len(os.sched_getaffinity(0))
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qso3").glob("*.py")):
        src.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads": threads, "blas_threads_over_nproc": threads > nproc,
            "seed": seed, "commit": commit, "src_sha256": src.hexdigest()[:16]}


def main(argv=None) -> int:
    args = parse_args(argv)
    import qso3
    import spans
    import workloads

    if Path(qso3.__file__).resolve().parent != ROOT / "src" / "qso3":
        print(f"qso3 imported from {qso3.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    _, warm = run_one(wl, wl.warmup_item(args.seed))
    gc.freeze()       # set-up's objects stay out of the per-item collections
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if args.probe:
        return 0 if warm["ok"] else 1

    recorder = spans.Recorder() if args.trace else None
    ticks = cpu_ticks()
    phase = timed_phase(wl, args.seed, args.seconds, recorder)
    steal = steal_share(ticks, cpu_ticks())
    times = phase["times"]
    round0 = [rec for r, rec in phase["records"] if r == 0]
    attempted = len(times) + len(phase["traced_times"])
    failed = phase["traced_failed"] + sum(
        1 for _, rec in phase["records"] if not rec.get("ok"))
    value, tail_info = tail(times, phase["rounds"], wl.tail_rounds)
    result = {
        "attempted": attempted, "failed": failed, "warmup_ok": bool(warm["ok"]),
        "rounds": phase["rounds"], "round_items": phase["round_items"],
        "wall_s": phase["wall"], "steal_share": steal, "digest": digest(round0),
        "tail": tail_info,
        "env": environment(args.seed),
        "metrics": {
            "items_per_s": (len(times) / phase["wall"], "items/s"),
            "item_ms.p50": (1e3 * statistics.median(times), "ms"),
            "item_ms.tail": (1e3 * value, "ms"),
            "failed_ratio": (failed / attempted, "1"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (OUT_DIR / f"records-{stem}.json").write_text(json.dumps(round0, indent=1))
    if recorder is not None:
        recorder.write_jsonl(OUT_DIR / f"spans-{stem}.jsonl")
        per_item = phase["round_items"]
        layer = spans.summarize(recorder.spans, recorder.counts, set(range(per_item)))
        untraced = sum(times[:len(phase["traced_times"])])
        layer["trace.overhead"] = (untraced / sum(phase["traced_times"]) - 1, "1")
        result["metrics"] = layer
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
