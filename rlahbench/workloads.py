"""Seeded operation lists of the three workloads.

An operation is a command line for ``rlah.cli.main`` or one library call.
The seed picks parameters inside fixed cost classes and the order of the
list; the make-up of every class is fixed, so two seeds cost about the same.
See README.md for why each workload exists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

WORKLOADS = ("cli-mix", "limit-sweep", "mc-cone")


@dataclass(frozen=True)
class Op:
    """One operation: ``kind`` names the check, ``args`` the input.

    For CLI operations ``args`` is the argv tuple; for library operations it
    is the tuple of call arguments.  ``key`` groups operations that a pooled
    or cross check reads together.
    """

    kind: str
    args: Tuple
    key: Tuple = ()

    @property
    def is_cli(self) -> bool:
        return self.kind.startswith(("cli.", "fault."))

    def label(self) -> str:
        if self.is_cli:
            return "rlah " + " ".join(self.args)
        return f"{self.kind}{self.args}"


def _argv(text: str) -> Tuple[str, ...]:
    return tuple(text.split())


# Fixed inputs that fail on the current program.  Each one passes once it
# exits 0 with checked values, or exits 2 or 3 with a JSON error record.
FAULT_OPS = (
    Op("fault.asymptotics", _argv("asymptotics --n 100 --k 1 --r 1/2 --z 5")),
    Op("fault.asymptotics", _argv("asymptotics --n 100 --k 1 --r 0 --z -800")),
    Op("fault.asymptotics", _argv("asymptotics --n 100 --k 1 --r 1/2 --x 200")),
    Op("fault.asymptotics", _argv("asymptotics --n 1x --k 1 --r 1/2")),
    Op("fault.faces", _argv("faces --d-range 2: --n-range 4:10 --k 1")),
    Op("fault.lah", _argv("lah --n 2000 --k 1 --r 1/2")),
    Op("fault.recovery", _argv("recovery --d 18 --n 2500 --k 3")),
)

WARM_R = ("0", "1/2", "1")
TRIANGLE_N = 260  # every warm r gets one anchor at this n, so triangle sizes do not depend on the seed
FRESH_DENOMINATORS = (3, 5, 7, 11)
MC_RECOVERY_GRID = ((2, 6, 1), (3, 6, 2), (4, 8, 2))
MC_RECOVERY_OPS = 3
MC_RECOVERY_TRIALS = 20


def _warm_rk(rng: random.Random) -> Tuple[str, int]:
    r = rng.choice(WARM_R)
    return r, rng.randint(1, 3) if r == "0" else rng.randint(0, 3)


def cli_mix(seed: int) -> List[Op]:
    """About 150 ``rlah`` command lines, all run in one process.

    Class sizes and flag shares are fixed and n is drawn from narrow ranges,
    so the latency distribution keeps its shape from seed to seed.  The ops
    that fill triangles run first: three anchors fill the warm ones, which
    the shuffled rest then reads, and eight fresh-r ops fill one each.  So
    every triangle is alive before the shuffled ops start, and peak memory
    does not depend on where the largest output falls in the order.
    """
    rng = random.Random(seed)
    first = [
        Op("cli.stats", _argv(f"stats --n {TRIANGLE_N} --k {1 if r == '0' else rng.randint(0, 2)} --r {r}"))
        for r in WARM_R
    ]
    for q in FRESH_DENOMINATORS:
        # two distinct numerators, so each of the eight ops fills its own triangle
        for p in rng.sample([p for p in range(1, 2 * q) if math.gcd(p, q) == 1], 2):
            first.append(Op("cli.pmf", _argv(f"pmf --n 150 --k 1 --r {p}/{q}")))
    ops: List[Op] = []

    def add(kind: str, text: str, key: Tuple = ()) -> None:
        ops.append(Op(kind, _argv(text), key))

    # (r, k) cycle through fixed combinations and n stays in a narrow band, so
    # the classes around the median and the 90th percentile cost the same
    # whatever the seed.  The median falls in the middle of the pmf ops
    # without --cdf; a quarter take --cdf, which costs about 15% more, so
    # that the median does not sit on the edge between the two.
    for i in range(37):
        r, k = WARM_R[i % 3], 1 + (i // 3) % 3
        fmt = "--format json " if i % 5 == 0 else ""
        cdf = " --cdf" if i % 4 == 0 else ""
        add("cli.pmf", f"{fmt}pmf --n {rng.randint(236, 250)} --k {k} --r {r}{cdf}")
    for i in range(18):
        r, k = WARM_R[i % 3], 1 + (i // 3) % 3
        add("cli.stats", f"stats --n {rng.randint(236, 250)} --k {k} --r {r}")
    for i, t in enumerate(("1", "-1", "1/2", "3/2", "0.25") * 3):
        r = WARM_R[i % 3]
        add("cli.pgf", f"pgf --n {rng.randint(236, TRIANGLE_N)} --k {rng.randint(1, 3)} --r {r} --t {t}")
    for _ in range(9):
        r = rng.choice(WARM_R)
        n = rng.randint(20, TRIANGLE_N)
        k = rng.randint(1 if r == "0" else 0, n)
        add("cli.lah", f"lah --n {n} --k {k} --r {r}")
    for kind in ("first", "second") * 5:
        r = rng.choice(WARM_R)
        n = rng.randint(10, TRIANGLE_N)
        add("cli.stirling", f"stirling --kind {kind} --n {n} --k {rng.randint(0, n)} --r {r}")
    for _ in range(3):
        lo = rng.randint(6, 10)
        add("cli.faces", f"faces --d-range 2:5 --n-range {lo}:{lo + 6} --k {rng.randint(0, 1)}")
        lo = rng.randint(195, 205)
        add("cli.faces", f"faces --d-range 3:7 --n-range {lo}:{lo + 3} --k {rng.randint(1, 2)}")
    for k in (1, 2, 3) * 2:
        lo = rng.randint(1490, 1510)
        add("cli.faces", f"faces --d-range 4:6 --n-range {lo}:{lo + 2} --k {k}")
    for _ in range(3):
        d = rng.randint(2, 12)
        add("cli.recovery", f"recovery --d {d} --n {rng.randint(d, 60)} --k {rng.randint(0, d)}")
        d = rng.randint(2, 12)
        add("cli.recovery", f"recovery --d {d} --n {rng.randint(200, 1000)} --k {rng.randint(0, d)}")
        # d <= 4 keeps the exact output under the 4300-digit str limit at n <= 3000
        d = rng.randint(2, 4)
        add("cli.recovery", f"recovery --d {d} --n {rng.randint(2600, 3000)} --k {rng.randint(0, d)}")
    for _ in range(10):
        k = rng.randint(0, 4)
        gamma = rng.choice(("inf", f"2/{2 * k + 1}", f"1/{2 * k + 2}", f"3/{2 * k + 1}", "0.3"))
        c = f" --c {rng.choice(('-1', '0', '0.5', '2'))}" if rng.random() < 0.5 else ""
        add("cli.threshold", f"threshold --k {k} --gamma {gamma}{c}")
    for d, n, k in MC_RECOVERY_GRID:
        for _ in range(MC_RECOVERY_OPS):
            add(
                "cli.mc-recovery",
                f"mc-recovery --d {d} --n {n} --k {k} --trials {MC_RECOVERY_TRIALS} "
                f"--seed {rng.randrange(2 ** 31)}",
                (d, n, k),
            )
    ops.extend(FAULT_OPS)
    rng.shuffle(ops)
    return first + ops


LIMIT_KR = ((1, Fraction(1, 2)), (2, Fraction(0)), (0, Fraction(1, 2)), (1, Fraction(7, 3)))
LIMIT_NS = (300, 1000, 3000)
# Eight more (k, r) points at n = 300, where the sweep runs only the two calls
# that build a window: kolmogorov_distance and mode_exact.  They take 7 to
# 18 ms, as do the ops around the median, so the latencies there lie close
# together and the median moves little when host noise reorders a few.
LIMIT_POINTS_KR = ((0, Fraction(1, 3)), (0, Fraction(2, 3)), (0, Fraction(1)), (0, Fraction(3, 2)),
                   (1, Fraction(1, 3)), (1, Fraction(2, 3)), (1, Fraction(1)), (2, Fraction(1, 3)))
LIMIT_ZS = (-0.5, 0.3, 1.0)
LIMIT_XS = (2.0, 0.5)


def tail_window(n: int, k: int, r: Fraction) -> int:
    """Last j of the exact tail table: about 3 lambda_n = 3 (k+r) log n."""
    return max(k + 2, math.ceil(3 * (k + float(r)) * math.log(n)))


def _limit_group(n: int, k: int, r: Fraction) -> List[Op]:
    """The calls of one (n, k, r) group, in the order ``convergence_table`` uses."""
    key = (n, k, r)
    ops = [Op("kolmogorov", (n, k, r, True), key), Op("kolmogorov", (n, k, r, False), key),
           Op("llt", (n, k, r), key)]
    ops.extend(Op("mod_poisson", (n, k, r, z), key) for z in LIMIT_ZS)
    ops.append(Op("mode", (n, k, r), key))
    ops.extend(Op("ldp", (n, k, r, x), key) for x in LIMIT_XS)
    ops.append(Op("tail_table", (n, k, r, tail_window(n, k, r)), key))
    return ops


def _limit_point(n: int, k: int, r: Fraction) -> List[Op]:
    key = (n, k, r)
    return [Op("kolmogorov", (n, k, r, True), key), Op("mode", (n, k, r), key)]


def limit_sweep(seed: int) -> List[Op]:
    """Four lanes, each one n = 300, one n = 1000 and one n = 3000 group.

    A lane takes the calls of its three groups in turn, one call from each,
    so each group keeps its own order and the same calls find their windows
    cached.  The cheap calls around the median latency (n = 300 builds and
    cached windows) are thereby spread over the whole round, as the time of
    wall_s is.  Each lane also carries two of the extra n = 300 points, their
    calls spaced evenly through it.  The seed orders the (k, r) groups at
    n = 300 and 1000 and deals the extra points to the lanes.  The n = 3000
    groups keep a fixed order, so the head cache holds the same large
    windows at the memory peak whatever the seed.
    """
    rng = random.Random(seed)
    small, middle, large = ([(n, k, r) for k, r in LIMIT_KR] for n in LIMIT_NS)
    rng.shuffle(small)
    rng.shuffle(middle)
    points = [(LIMIT_NS[0], k, r) for k, r in LIMIT_POINTS_KR]
    rng.shuffle(points)
    per_lane = len(points) // len(small)
    ops: List[Op] = []
    for i, lane in enumerate(zip(small, middle, large)):
        calls = [call for step in zip(*(_limit_group(*g) for g in lane)) for call in step]
        extra = [call for g in points[i * per_lane:(i + 1) * per_lane] for call in _limit_point(*g)]
        gap = len(calls) // (len(extra) + 1)
        for j, call in enumerate(extra):
            calls.insert((j + 1) * gap + j, call)
        ops.extend(calls)
    return ops


# (ops, trials per op) per grid point.  Trials scale inversely with the cost
# of one trial, so every op takes about 0.25 s: the median and the 90th
# percentile are then read over the ops of the whole round, and a slow
# stretch of the host moves them no more than it moves wall_s.  The three
# LP-heavy points keep 130, 81 and 100 trials per round, which the pooled
# checks need for their power and false-failure rate.
MC_CONE_GRID = {(2, 2, 1): (3, 220), (2, 4, 1): (3, 36), (3, 6, 0): (3, 30), (4, 6, 1): (26, 5),
                (3, 6, 2): (27, 3), (4, 6, 2): (50, 2)}


def mc_cone(seed: int) -> List[Op]:
    """``rlah mc-cone`` command lines of about equal cost, each with its own seed."""
    rng = random.Random(seed)
    ops = [
        Op(
            "cli.mc-cone",
            _argv(f"mc-cone --d {d} --n {n} --k {k} --trials {trials} --seed {rng.randrange(2 ** 31)}"),
            (d, n, k),
        )
        for (d, n, k), (count, trials) in MC_CONE_GRID.items()
        for _ in range(count)
    ]
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int) -> List[Op]:
    return {"cli-mix": cli_mix, "limit-sweep": limit_sweep, "mc-cone": mc_cone}[workload](seed)
