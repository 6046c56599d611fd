"""rlah benchmark: run one workload for a fixed time and print its metrics.

Usage (from the repository root):

    python3 rlahbench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

Each round runs the workload's whole op list once in a fresh worker process
(single-threaded: BLAS and OpenMP pools pinned to 1), so every round pays
the same cold caches a command-line user pays.  Rounds repeat until the next
one would end past ``--seconds``; at least one round always runs.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
first runs one untraced round, then at least two traced rounds, and reports
the per-layer metrics.  Every round of one run must produce byte-identical
outputs.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Result and span files go to
``.rlahbench_out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(os.getcwd(), ".rlahbench_out")
sys.path.insert(0, HERE)

from tracing import LAYER_METRICS, count_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 7
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_round(args, tag: str, traced: bool, deadline: float, setup_only: bool = False) -> dict:
    """Start one worker process, wait for it, and return its result record."""
    out = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)), "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {tag} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(out) as fh:
        record = json.load(fh)
    record["setup_s"] = record["t_first"] - start
    record["round_s"] = time.monotonic() - start
    record["traced"] = traced
    return record


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else values[0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "rlah", "__init__.py")):
        print(f"rlah sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    traced = bool(args.trace)
    try:
        rounds = [run_round(args, "baseline", False, deadline)] if traced else []
        while True:
            rounds.append(run_round(args, f"r{len(rounds)}", traced, deadline))
            measured = [r for r in rounds if r["traced"] == traced]
            per_round = statistics.median(r["round_s"] for r in measured)
            # a traced run needs two traced rounds to compare their counts
            if time.monotonic() - start + per_round > args.seconds and len(measured) >= 1 + traced:
                break
        setups = [r["setup_s"] for r in rounds if not r["traced"]]
        while not traced and len(setups) < SETUP_SAMPLES:
            setups.append(run_round(args, f"s{len(setups)}", False, deadline, setup_only=True)["setup_s"])
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    problems = []
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("rounds produced different outputs")
    for r in rounds:
        problems.extend(r["pooled_errors"])
    if traced:
        counts = [count_metrics(r["layers"]) for r in measured]
        if any(c != counts[0] for c in counts):
            problems.append("count metrics differ between traced rounds")

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    if traced:
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in measured), "unit": unit}
            for name, unit, _ in LAYER_METRICS
        }
    else:
        latencies = [t * 1000.0 for r in measured for t in r["latencies"]]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in measured),
            "cpu_s": statistics.median(r["cpu_s"] for r in measured),
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": _p90(latencies),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in measured),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"workload {args.workload} seed {args.seed}: {len(measured)} measured round(s)"
          f"{' after 1 untraced round' if traced else ''}, {len(rounds[0]['latencies'])} ops per round")
    print("rounds (s): " + ", ".join(
        f"{'traced ' if r['traced'] else ''}{r['round_s']:.2f} (ops {r['wall_s']:.2f})" for r in rounds))
    print(f"attempted {attempted} failed {failed}")
    for item in rounds[0]["failed"]:
        print(f"  failed: {item['op']}: {item['reason'][:160]}")
    if traced:
        base = rounds[0]["wall_s"]
        print(f"  untraced wall_s {base:.4f} s; tracing overhead {metrics['trace.wall_s']['value'] - base:.4f} s"
              f" over {measured[0]['spans']} spans")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
