"""Output checks, run after the timed span.

Per-operation checks compare each output against :mod:`oracle` or against
properties the paper proves; pooled checks compare Monte Carlo means, pooled
per grid point, against exact expectations.  A check returns ``None`` when
the output passes and a short reason when it does not.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import oracle
from workloads import Op

SIGMAS = 4.0
MOD_POISSON_RTOL = 1e-9


@dataclass
class Outcome:
    """What one operation produced: exit code and stdout for CLI operations,
    the return value for library calls, or the exception it raised."""

    rc: Optional[int] = None
    text: str = ""
    value: object = None
    error: Optional[str] = None


# -- CLI output parsing ------------------------------------------------------

def _opts(argv: Sequence[str]) -> Dict[str, str]:
    out = {}
    for i, a in enumerate(argv):
        if a.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else ""
            out[a[2:]] = "" if nxt.startswith("--") or nxt == "" else nxt
    return out


def _rows(text: str) -> List[dict]:
    if text.startswith("{"):
        return json.loads(text)["rows"]
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _record(text: str) -> dict:
    return json.loads(text.splitlines()[-1])


def _is_error_record(text: str) -> bool:
    try:
        rec = _record(text)
    except (ValueError, IndexError):
        return False
    return isinstance(rec, dict) and isinstance(rec.get("error"), str) and isinstance(rec.get("kind"), str)


# -- cli-mix ----------------------------------------------------------------

def check_pmf(o: Dict[str, str], text: str) -> Optional[str]:
    """Exact checks on integer pairs: cross-multiplying avoids a gcd per step."""
    n, k = int(o["n"]), int(o["k"])
    rows = _rows(text)
    if [int(row["j"]) for row in rows] != list(range(k, n + 1)):
        return "support rows are not k..n"
    a = [int(row["pmf_num"]) for row in rows]
    b = [int(row["pmf_den"]) for row in rows]
    if any(v <= 0 for v in a) or any(v <= 0 for v in b):
        return "PMF is not positive on the support"
    for i in range(1, len(a) - 1):
        if a[i] * a[i] * b[i - 1] * b[i + 1] < a[i - 1] * a[i + 1] * b[i] * b[i]:
            return f"PMF is not log-concave at j={k + i}"
    if any(float(row["pmf_float"]) != a_i / b_i for row, a_i, b_i in zip(rows, a, b)):
        return "pmf_float differs from num/den"
    if "cdf" not in o:
        if rows and "cdf_num" in rows[0]:
            return "CDF columns without --cdf"
        return None if sum(map(Fraction, a, b)) == 1 else "PMF does not sum to 1"
    c = [int(row["cdf_num"]) for row in rows]
    d = [int(row["cdf_den"]) for row in rows]
    if (c[0], d[0]) != (a[0], b[0]) or c[-1] != d[-1]:
        return "CDF does not run from P[X = k] to 1"
    for i in range(1, len(a)):
        # c_i/d_i - c_(i-1)/d_(i-1) == a_i/b_i
        if (c[i] * d[i - 1] - c[i - 1] * d[i]) * b[i] != a[i] * d[i] * d[i - 1]:
            return f"CDF is not the running sum at j={k + i}"
    return None


def check_stats(o: Dict[str, str], text: str) -> Optional[str]:
    n, k, r = int(o["n"]), int(o["k"]), Fraction(o["r"])
    rec = _record(text)
    if (rec["n"], rec["k"], Fraction(rec["r"])) != (n, k, r):
        return "parameters not echoed"
    e = oracle.expectation(n, k, r)
    if Fraction(rec["expectation"]) != e or rec["expectation_float"] != float(e):
        return "expectation differs from the closed form"
    if Fraction(rec["normalizer"]) != oracle.lah_closed(n, k, r):
        return "normalizer differs from L(n,k)_r"
    if n > k and (Fraction(rec["parity_even"]), Fraction(rec["parity_odd"])) != (Fraction(1, 2), Fraction(1, 2)):
        return "parity split is not (1/2, 1/2)"
    var = Fraction(rec["variance"])
    if var < 0 or (n > k and var == 0) or rec["variance_float"] != float(var):
        return "variance is not a positive rational matching its float"
    mode = [int(v) for v in rec["mode"].split(",")]
    if not 1 <= len(mode) <= 2 or mode[-1] - mode[0] != len(mode) - 1 or not k <= mode[0] <= mode[-1] <= n:
        return "mode is not one or two adjacent support points"
    return None


def check_pgf(o: Dict[str, str], text: str) -> Optional[str]:
    n, k, t = int(o["n"]), int(o["k"]), Fraction(o["t"])
    value = Fraction(_rows(text)[0]["value"])
    if t == 1:
        return None if value == 1 else "P(1) != 1"
    if t == -1 and n > k:
        return None if value == 0 else "P(-1) != 0"
    lo, hi = sorted((t ** k, t ** n)) if t > 0 else (None, None)
    if lo is not None and not lo <= value <= hi:
        return "P(t) outside [t^n, t^k]"
    return None


def check_lah(o: Dict[str, str], text: str) -> Optional[str]:
    n, k, r = int(o["n"]), int(o["k"]), Fraction(o["r"])
    value = Fraction(_rows(text)[0]["value"])
    if value != oracle.lah_closed(n, k, r):
        return "differs from the closed form"
    if n <= 40 and value != oracle.lah_convolution(n, k, r):
        return "differs from sum_j c(n,j) S(j,k)"
    return None


def check_stirling(o: Dict[str, str], text: str) -> Optional[str]:
    n, k, r = int(o["n"]), int(o["k"]), Fraction(o["r"])
    value = Fraction(_rows(text)[0]["value"])
    if o["kind"] == "first":
        expected = oracle.first_kind_prefix(n, r, k)[k] if k <= n else Fraction(0)
    else:
        expected = oracle.second_kind(n, k, r)
    return None if value == expected else "differs from the recurrence/explicit sum"


def _grid(text: str) -> range:
    lo, _, hi = text.partition(":")
    return range(int(lo), int(hi or lo) + 1)


def check_faces(o: Dict[str, str], text: str) -> Optional[str]:
    k = int(o["k"])
    rows = _rows(text)
    cells = [(d, n) for d in _grid(o["d-range"]) for n in _grid(o["n-range"]) if n >= d and k <= d - 1]
    if [(int(row["d"]), int(row["n"])) for row in rows] != cells:
        return "grid cells differ"
    for row in rows:
        d, n = int(row["d"]), int(row["n"])
        count = Fraction(int(row["face_count_num"]), int(row["face_count_den"]))
        ratio = Fraction(int(row["ratio_num"]), int(row["ratio_den"]))
        if ratio != count / math.comb(n, k) or float(row["ratio_float"]) != float(ratio):
            return f"ratio != face_count / C(n,k) at d={d}, n={n}"
        if count != oracle.expected_faces(d, n, k):
            return f"face count differs from the closed form at d={d}, n={n}"
    return None


def check_recovery(o: Dict[str, str], text: str) -> Optional[str]:
    d, n, k = int(o["d"]), int(o["n"]), int(o["k"])
    rec = _record(text)
    prob = Fraction(rec["probability"])
    if prob != oracle.recovery(d, n, k) or rec["probability_float"] != float(prob):
        return "probability differs from E[f_k]/C(n,k)"
    if rec["boundary_case"] != (k == d):
        return "boundary flag wrong"
    return None


def check_threshold(o: Dict[str, str], text: str) -> Optional[str]:
    rec = _record(text)
    c = float(o["c"]) if "c" in o else None
    want = oracle.threshold(int(o["k"]), o["gamma"], c)
    got = (rec["regime"], Fraction(rec["boundary"]), rec["limit"])
    return None if got == (want["regime"], want["boundary"], want["limit"]) else "classification differs"


def _mc_record(o: Dict[str, str], text: str) -> Tuple[dict, Optional[str]]:
    rec = _record(text)
    trials = int(o["trials"])
    if (rec["d"], rec["n"], rec["k"], rec["trials"], rec["seed"]) != (
        int(o["d"]), int(o["n"]), int(o["k"]), trials, int(o["seed"])
    ):
        return rec, "parameters not echoed"
    total = rec["mean"] * trials
    if abs(total - round(total)) > 1e-6:
        return rec, "mean is not a count over trials"
    return rec, None


def check_mc_recovery(o: Dict[str, str], text: str) -> Optional[str]:
    rec, bad = _mc_record(o, text)
    if bad is None and not 0.0 <= rec["mean"] <= 1.0:
        bad = "recovery rate outside [0, 1]"
    return bad


def check_mc_cone(o: Dict[str, str], text: str) -> Optional[str]:
    rec, bad = _mc_record(o, text)
    if bad is None and (int(o["d"]), int(o["n"]), int(o["k"])) == (2, 2, 1) and (rec["mean"], rec["stderr"]) != (2.0, 0.0):
        bad = "two generators in the plane must give exactly 2 rays"
    return bad


def check_fault(argv: Sequence[str], text: str) -> Optional[str]:
    """A fault input passes once it exits 0 with checked values."""
    o = _opts(argv)
    command = argv[0]
    if command == "asymptotics":
        for row in _rows(text):
            if not all(math.isfinite(float(row[f])) for f in ("exact", "approximant", "gap")):
                return "non-finite convergence value"
        return None
    return CLI_CHECKS["cli." + command](o, text)


CLI_CHECKS: Dict[str, Callable[[Dict[str, str], str], Optional[str]]] = {
    "cli.pmf": check_pmf,
    "cli.stats": check_stats,
    "cli.pgf": check_pgf,
    "cli.lah": check_lah,
    "cli.stirling": check_stirling,
    "cli.faces": check_faces,
    "cli.recovery": check_recovery,
    "cli.threshold": check_threshold,
    "cli.mc-recovery": check_mc_recovery,
    "cli.mc-cone": check_mc_cone,
}


def check_cli(op: Op, out: Outcome) -> Optional[str]:
    """Exit 0 passes the op's output check.  A fault input may instead exit 2
    or 3 with a JSON error record; every other input is valid, so a refusal
    of it is a failure."""
    if out.error is not None:
        return out.error
    fault = op.kind.startswith("fault.")
    if fault and out.rc in (2, 3):
        return None if _is_error_record(out.text) else f"exit {out.rc} without a JSON error record"
    if out.rc != 0:
        return f"exit code {out.rc}"
    if fault:
        return check_fault(op.args, out.text)
    return CLI_CHECKS[op.kind](_opts(op.args), out.text)


def _pooled_gap(mean: float, expected: float, sigma: float) -> Optional[str]:
    if abs(mean - expected) > SIGMAS * sigma:
        return f"pooled mean {mean:.5f} vs exact {expected:.5f} (4 sigma = {SIGMAS * sigma:.5f})"
    return None


def pooled_mc_recovery(ops: Sequence[Op], outs: Sequence[Outcome], failed: Sequence[bool]) -> List[str]:
    """Pooled recovery rate per grid point against the exact probability."""
    hits: Dict[tuple, List[float]] = defaultdict(lambda: [0.0, 0])
    for op, out, bad in zip(ops, outs, failed):
        if op.kind == "cli.mc-recovery" and not bad:
            rec = _record(out.text)
            hits[op.key][0] += round(rec["mean"] * rec["trials"])
            hits[op.key][1] += rec["trials"]
    errors = []
    for (d, n, k), (successes, trials) in sorted(hits.items()):
        p = float(oracle.recovery(d, n, k))
        gap = _pooled_gap(successes / trials, p, math.sqrt(p * (1 - p) / trials))
        if gap:
            errors.append(f"mc-recovery ({d},{n},{k}): {gap}")
    return errors


def pooled_mc_cone(ops: Sequence[Op], outs: Sequence[Outcome], failed: Sequence[bool]) -> List[str]:
    """Pooled mean face count per grid point against E[f_k] at r = 1/2.

    Per-operation sums of f and f^2 are recovered from (mean, stderr); the
    pooled standard error uses the pooled sample variance.  Where f takes
    only the values 0 and m, its variance E(m-E) is known and is used
    instead: the pointedness indicator (k = 0, m = 1) and the rays of a cone
    in the plane (d = 2, k = 1, m = 2: a pointed cone or the whole plane).
    There the sample variance collapses when the rarer value is seldom
    drawn: at (2,4,1), 70 trials and P[f = 0] = 1/12, it made 1.7% of
    correct runs fail.
    """
    sums: Dict[tuple, List[float]] = defaultdict(lambda: [0, 0, 0])
    for op, out, bad in zip(ops, outs, failed):
        if op.kind != "cli.mc-cone" or bad:
            continue
        rec = _record(out.text)
        t, m = rec["trials"], rec["mean"]
        s = sums[op.key]
        s[0] += t
        s[1] += round(m * t)
        s[2] += round(rec["stderr"] ** 2 * t * (t - 1) + t * m * m)
    errors = []
    for (d, n, k), (t, s1, s2) in sorted(sums.items()):
        expected = float(oracle.expected_faces(d, n, k))
        mean = s1 / t
        two_point = 1 if k == 0 else 2 if (d, k) == (2, 1) else None
        var = expected * (two_point - expected) if two_point else (s2 - t * mean * mean) / (t - 1)
        gap = _pooled_gap(mean, expected, math.sqrt(max(var, 0.0) / t))
        if gap:
            errors.append(f"mc-cone ({d},{n},{k}): {gap}")
    return errors


def certificate_recheck(ops: Sequence[Op], outs: Sequence[Outcome], failed: Sequence[bool]) -> List[str]:
    """Re-check face certificates exactly on the walks of one op per grid point.

    For every k-subset A with a certificate u, u.S_i = 0 on A and u.S_j <= -1
    off A must hold in exact arithmetic, and the certified subsets must add
    up to the face count the op reported.
    """
    import numpy as np
    from rlah import montecarlo

    errors = []
    seen = set()
    for op, out, bad in zip(ops, outs, failed):
        d, n, k = op.key
        if bad or not 1 <= k <= d - 1 or op.key in seen:
            continue
        seen.add(op.key)
        o = _opts(op.args)
        seed, trials = int(o["seed"]), int(o["trials"])
        certified = 0
        for t in range(trials):
            walk = montecarlo.generate_walk(d, n, np.random.default_rng((seed, t)))
            for subset in itertools.combinations(range(n), k):
                u = montecarlo.face_certificate(walk, subset)
                if u is None:
                    continue
                dots = [sum(Fraction(a) * b for a, b in zip(u, s)) for s in walk.sums]
                if any(dots[i] != 0 for i in subset) or any(
                    dots[j] > -1 for j in range(n) if j not in subset
                ):
                    errors.append(f"mc-cone ({d},{n},{k}) seed {seed} trial {t}: bad certificate for {subset}")
                certified += 1
        if certified != round(_record(out.text)["mean"] * trials):
            errors.append(f"mc-cone ({d},{n},{k}) seed {seed}: {certified} certified faces vs reported mean")
    return errors


# -- limit-sweep ---------------------------------------------------------------

def check_mod_poisson(op: Op, value: float) -> Optional[str]:
    want = oracle.mod_poisson(*op.args)
    return None if abs(value - want) <= MOD_POISSON_RTOL * abs(want) else f"{value!r} vs mpmath {want!r}"


def _lam(n: int, k: int, r: Fraction) -> float:
    return (k + float(r)) * math.log(n)


def check_limit_group(ops: Sequence[Op], outs: Sequence[Outcome]) -> List[Optional[str]]:
    """Checks for one (n, k, r) group; the tail table serves as cross-reference."""
    tails = next(
        (out.value for op, out in zip(ops, outs) if op.kind == "tail_table" and out.error is None), None
    )
    results: List[Optional[str]] = []
    for op, out in zip(ops, outs):
        if out.error is not None:
            results.append(out.error)
            continue
        try:
            results.append(_check_limit_op(op, out.value, tails))
        except (ValueError, TypeError, IndexError, ZeroDivisionError) as exc:
            results.append(f"unexpected output: {type(exc).__name__}: {exc}")
    return results


def _check_limit_op(op: Op, value, tails: Optional[List[Fraction]]) -> Optional[str]:
    n, k, r = op.args[:3]
    if op.kind == "kolmogorov":
        return None if 0.0 <= value <= 1.0 else "Kolmogorov distance outside [0, 1]"
    if op.kind == "llt":
        return None if math.isfinite(value) and value >= 0 else "LLT gap not a finite nonnegative number"
    if op.kind == "mod_poisson":
        return None  # checked by check_mod_poisson once the round's ops are done
    if op.kind == "tail_table":
        if len(value) != op.args[3] - k + 1 or value[0] != 1:
            return "tail table does not start at exactly 1"
        if any(b > a for a, b in zip(value, value[1:])) or value[-1] <= 0:
            return "tail table increases or hits 0"
        return None
    if op.kind == "mode" and tails is None:
        # an extra point of the sweep has no tail table: compare with the exact argmax
        want = oracle.mode(n, k, r)
        return None if set(value) == set(want) else f"mode {sorted(value)} vs exact argmax {want}"
    if tails is None:
        return None
    if op.kind == "mode":
        # argmax of P[X = j] = tails[j] - tails[j + 1] over j = k .. w-1, one difference at a time
        best, want = None, set()
        for i in range(len(tails) - 1):
            p = tails[i] - tails[i + 1]
            if best is None or p > best:
                best, want = p, {k + i}
            elif p == best:
                want.add(k + i)
        return None if set(value) == want else f"mode {sorted(value)} vs tail-table argmax {sorted(want)}"
    if op.kind == "ldp":
        x = op.args[3]
        exact, approx, ratio = value
        j = round(x * _lam(n, k, r))
        if not k <= j < len(tails) - 1 + k:
            return None
        want = float(tails[j - k]) if x > 1 else float(1 - tails[j + 1 - k])
        if exact != want:
            return f"exact tail {exact!r} vs tail table {want!r}"
        return None if approx > 0 and ratio == exact / approx else "ratio is not exact/approx"
    return None
