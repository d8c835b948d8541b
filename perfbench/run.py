"""qso3 benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload cg_tables --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads: cg_tables, oracle_census,
relation_sweep (see README.md).  Each run starts fresh worker processes with
``src`` on PYTHONPATH and BLAS_THREADS BLAS threads: SETUP_PROBES that only
set up (import, seeded inputs, one warm-up item) and one that sets up and
then runs the timed closed loop.  BLAS gets at most two threads and never
more than the CPUs this process may use.  ``setup_s`` is the median, over all of
them, of the time from spawning the process to its ready line.

The last line printed is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The lines before it record the environment, the output digest and the
failure ratio.  Exits non-zero, printing no result, when the checkout has
no ``src/qso3`` or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cg_tables", "oracle_census", "relation_sweep")
END_TO_END = ("setup_s", "items_per_s", "item_ms.p50", "item_ms.tail", "peak_rss_mb")
SETUP_PROBES = 4
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args: list[str], timeout: float) -> tuple[float, dict | None]:
    """Run one worker; returns (set-up seconds, result or None for a probe)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    spawned = time.monotonic()
    try:
        done = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"worker exited with {done.returncode}:\n{done.stderr}")
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.strip()]
    setup = lines[0]["ready"] - spawned
    return setup, (lines[1] if len(lines) > 1 else None)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, dict]:
    """(final result line, worker result) for one run."""
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    base += ["--tiny"] if tiny else []
    setups = [] if trace else [spawn(base + ["--probe"], 60)[0]
                               for _ in range(SETUP_PROBES)]
    deadline = WORKER_TIMEOUT_S - sum(setups)
    setup, res = spawn(base + ["--trace", str(int(trace))], deadline)
    setups.append(setup)
    metrics = dict(res["metrics"])
    if not trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics = {name: metrics[name] for name in END_TO_END}
    failed = res["failed"] + (not res["warmup_ok"])
    final = {"correct": failed == 0, "attempted": res["attempted"], "failed": failed,
             "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    res["setup_samples_s"] = setups
    return final, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="only the cheapest cells of the workload (for tests)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qso3" / "__init__.py").is_file():
        print(f"no qso3 sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        final, res = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.tiny)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    env = res["env"]
    if env["blas_threads_over_nproc"]:
        print(f"WARNING: {env['blas_threads']} BLAS threads > nproc {env['nproc']}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest {args.workload} seed={args.seed} round0={res['digest']} "
          f"rounds={res['rounds']} items/round={res['round_items']}")
    print(f"setup_samples_s {json.dumps(res['setup_samples_s'])}")
    print(f"steal_share {res['steal_share']} (CPU time taken by other guests)")
    ratio, _ = res["metrics"].get("failed_ratio", (res["failed"] / res["attempted"], "1"))
    print(f"failed_ratio {ratio} 1 ({res['failed']} of {res['attempted']}; "
          f"warm-up {'ok' if res['warmup_ok'] else 'FAILED'})")
    if not args.trace:
        print(f"item_ms.tail is p{res['tail']['percentile']:.1f} of "
              f"{res['tail']['samples']} samples ({res['tail']['beyond']} beyond)")
    for name, m in final["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
