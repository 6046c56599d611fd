"""One round of a workload in a fresh process: set up, run the op list, check.

Usage: python3 rlahbench/worker.py --workload W --seed S --trace 0|1 --out FILE
       [--setup-only]

The process records the monotonic clock just before its first operation, so
the parent that started it can measure set-up time (interpreter start,
``import rlah``, building the op list).  It then runs every operation once,
timing each, and checks the outputs after the timed span.  The result is a
JSON file at ``--out``; with ``--trace 1`` the spans go to a ``.spans.jsonl``
file beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from collections import defaultdict
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from rlah import asymptotics, cli, distribution  # noqa: E402  (the program under test, from src/)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import Outcome  # noqa: E402


def run_cli(argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    except Exception as exc:  # noqa: BLE001  - a raising op is a failed op, the round goes on
        return Outcome(error=f"{type(exc).__name__}: {exc}")
    return Outcome(rc=rc, text=out.getvalue())


def _tail_table(n, k, r, w):
    head = distribution.pmf_head(n, k, r, w)
    return [head.upper_tail(j) for j in range(k, w + 1)]


LIBRARY = {
    "kolmogorov": lambda n, k, r, cc: asymptotics.kolmogorov_distance(n, k, r, continuity_correction=cc),
    "llt": lambda n, k, r: asymptotics.llt_sup_gap(n, k, r),
    "mod_poisson": lambda n, k, r, z: asymptotics.mod_poisson_residual(n, k, r, z),
    "mode": lambda n, k, r: distribution.mode_exact(n, k, r),
    "ldp": lambda n, k, r, x: asymptotics.ldp_tail_ratio(n, k, r, x),
    "tail_table": _tail_table,
}


def run_library(op) -> Outcome:
    try:
        return Outcome(value=LIBRARY[op.kind](*op.args))
    except Exception as exc:  # noqa: BLE001
        return Outcome(error=f"{type(exc).__name__}: {exc}")


def _fingerprint(value):
    """A str-free stand-in for a value: exact outputs here exceed the int-to-str limit."""
    m = (1 << 61) - 1
    if isinstance(value, Fraction):
        return ("F", value.numerator % m, value.denominator % m, value.denominator.bit_length())
    if isinstance(value, (list, tuple)):
        return [_fingerprint(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return repr(value)


def _digest_record(op, out) -> bytes:
    return json.dumps([op.label(), out.rc, out.text, out.error, _fingerprint(out.value)]).encode()


class RoundChecks:
    """Checks each output as soon as its op is timed, so no output is kept.

    Library ops of one (n, k, r) group are checked together right after the
    group's last op; groups may interleave.  Monte Carlo records (they are
    small) are kept for the pooled checks, and so are the mod-Poisson
    floats: their mpmath oracle runs in :meth:`finish`, after peak memory is
    read, since the program itself never loads mpmath.
    """

    def __init__(self, workload: str, ops):
        self.workload = workload
        self.reasons = [None] * len(ops)
        self.last = {op.key: i for i, op in enumerate(ops)}
        self.groups = defaultdict(list)
        self.deferred = []
        self.mc_ops, self.mc_outs, self.mc_failed = [], [], []

    def add(self, i: int, op, out) -> None:
        if not op.is_cli:
            if op.kind == "mod_poisson" and out.error is None:
                self.deferred.append((i, op, out.value))
            self.groups[op.key].append((i, op, out))
            if self.last[op.key] == i:
                index, ops, outs = zip(*self.groups.pop(op.key))
                for j, reason in zip(index, checks.check_limit_group(ops, outs)):
                    self.reasons[j] = reason
            return
        try:
            reason = checks.check_cli(op, out)
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            reason = f"unparseable output: {type(exc).__name__}: {exc}"
        self.reasons[i] = reason
        if op.key:
            self.mc_ops.append(op)
            self.mc_outs.append(out)
            self.mc_failed.append(reason is not None)

    def finish(self):
        """Per-op failure reasons (None = passed) and pooled check errors."""
        for i, op, value in self.deferred:
            self.reasons[i] = checks.check_mod_poisson(op, value)
        mc = (self.mc_ops, self.mc_outs, self.mc_failed)
        if self.workload == "cli-mix":
            return self.reasons, checks.pooled_mc_recovery(*mc)
        if self.workload == "mc-cone":
            return self.reasons, checks.pooled_mc_cone(*mc) + checks.certificate_recheck(*mc)
        return self.reasons, []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ops = workloads.build(args.workload, args.seed)
    tracer = tracing.install() if args.trace else None
    t_first = time.monotonic()
    if args.setup_only:
        with open(args.out, "w") as fh:
            json.dump({"t_first": t_first}, fh)
        return 0

    round_checks = RoundChecks(args.workload, ops)
    digest = hashlib.sha256()
    latencies, cpu = [], 0.0
    for i, op in enumerate(ops):
        if tracer:
            tracer.active = True
        with tracer.span("op") if tracer else contextlib.nullcontext():
            c0, t0 = time.process_time(), time.perf_counter()
            outcome = run_cli(op.args) if op.is_cli else run_library(op)
            t1, c1 = time.perf_counter(), time.process_time()
        if tracer:
            tracer.active = False
        latencies.append(t1 - t0)
        cpu += c1 - c0
        digest.update(_digest_record(op, outcome))
        round_checks.add(i, op, outcome)
        del outcome
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reasons, pooled = round_checks.finish()

    wall = sum(latencies)
    result = {"t_first": t_first, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb,
              "latencies": latencies, "digest": digest.hexdigest(), "attempted": len(ops),
              "failed": [{"op": op.label(), "reason": reason} for op, reason in zip(ops, reasons) if reason is not None],
              "pooled_errors": pooled}
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer, wall)
        tracer.write(args.out[: -len(".json")] + ".spans.jsonl")
        result["spans"] = len(tracer.spans)
        tracer.uninstall()
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
