"""Command-line front end.

Subcommands mirror the library surface: exact scalars (stirling, lah, pgf),
distribution tables and summaries (pmf, stats), convergence studies
(asymptotics), the cone/recovery application layer (faces, threshold,
recovery) and the Monte Carlo verifiers (mc-cone, mc-recovery).

Conventions: rationals are accepted as "p/q" or exact decimals and emitted
as "p/q" strings; output is CSV (default for tables) or JSON via --format;
identical (command, parameters, seed) produce byte-identical output, which
is why no record carries wall-clock timing.  Exit codes: 0 success, 2
parameter/domain errors (with a machine-readable error record), 3 capacity
errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from typing import IO, List, Sequence

from . import asymptotics, cones, distribution, montecarlo, stirling
from .errors import CapacityExceeded, InvalidParameter, RLahError
from .rational import as_rational, check_decimal_digits, check_log10_bound, format_rational


def _check_ints(rows: List[dict]) -> None:
    """Refuse, before anything is written, an int that ``str`` cannot render."""
    for value in (v for row in rows for v in row.values() if isinstance(v, int)):
        check_decimal_digits(value)


def _emit_rows(out: IO[str], fmt: str, fieldnames: Sequence[str], rows: List[dict]) -> None:
    _check_ints(rows)
    if fmt == "json":
        out.write(json.dumps({"rows": rows}, sort_keys=True))
        out.write("\n")
        return
    out.write(",".join(fieldnames) + "\n")
    for row in rows:
        out.write(",".join(str(row[f]) for f in fieldnames) + "\n")


def _emit_record(out: IO[str], fmt: str, record: dict) -> None:
    _check_ints([record])
    if fmt == "json":
        out.write(json.dumps(record, sort_keys=True))
        out.write("\n")
        return
    keys = list(record)
    out.write(",".join(keys) + "\n")
    out.write(",".join(str(record[k]) for k in keys) + "\n")


def _emit_value(out: IO[str], fmt: str, value: Fraction) -> None:
    _emit_record(out, fmt, {"value": format_rational(value)})


def _parse(convert, text: str, what: str):
    try:
        return convert(text)
    except ValueError as exc:
        raise InvalidParameter(f"cannot parse {what} from {text!r}") from exc


def _int_list(text: str) -> List[int]:
    return [_parse(int, part, "an integer") for part in text.split(",") if part]


def _float_list(text: str) -> List[float]:
    return [_parse(float, part, "a number") for part in text.split(",") if part]


def _range(text: str) -> range:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return range(_parse(int, lo, "a range bound"), _parse(int, hi, "a range bound") + 1)
    v = _parse(int, text, "an integer")
    return range(v, v + 1)


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as InvalidParameter, so they get an error record."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise InvalidParameter(f"{self.prog}: {message}")

    def parse_known_args(self, args=None, namespace=None):
        parsed, extras = super().parse_known_args(args, namespace)
        # argparse drops an option value "--" (as in --n=--) and stores [] instead
        for name, value in vars(parsed).items():
            if isinstance(value, list):
                self.error(f"argument --{name.replace('_', '-')}: expected one argument")
        return parsed, extras


@functools.cache  # one parser per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rlah", description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write output to this file instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default: csv for tables, json for records)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, n=False, k=False, r=False, d=False, n_max=True):
        if n:
            p.add_argument("--n", type=int, required=True)
        if k:
            p.add_argument("--k", type=int, required=True)
        if r:
            p.add_argument("--r", type=str, required=True, help='rational like "1/2" or "0.5"')
        if d:
            p.add_argument("--d", type=int, required=True)
        if n_max:
            p.add_argument("--n-max", type=int, default=None, help="override the exact-table cap")

    p = sub.add_parser("stirling", help="one r-Stirling number")
    p.add_argument("--kind", choices=("first", "second"), required=True)
    common(p, n=True, k=True, r=True)

    p = sub.add_parser("lah", help="one r-Lah number")
    common(p, n=True, k=True, r=True)

    p = sub.add_parser("pmf", help="exact PMF table of Lah(n,k)_r")
    common(p, n=True, k=True, r=True)
    p.add_argument("--cdf", action="store_true", help="append exact CDF columns")

    p = sub.add_parser("stats", help="exact summary statistics of Lah(n,k)_r")
    common(p, n=True, k=True, r=True)

    p = sub.add_parser("pgf", help="probability generating function at rational t")
    common(p, n=True, k=True, r=True)
    p.add_argument("--t", type=str, required=True)

    p = sub.add_parser("asymptotics", help="convergence study: exact vs limit predictions")
    p.add_argument("--n", type=str, required=True, help="comma-separated n grid, e.g. 100,1000")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=str, required=True)
    p.add_argument("--z", type=str, default=",".join(map(str, asymptotics.DEFAULT_ZS)),
                   help="mod-Poisson evaluation points")
    p.add_argument("--x", type=str, default=",".join(map(str, asymptotics.DEFAULT_XS)),
                   help="large-deviation tail points")

    p = sub.add_parser("faces", help="expected face counts over a (d, n) grid")
    p.add_argument("--d-range", type=str, help="d grid as lo:hi (or a single value)")
    p.add_argument("--n-range", type=str, help="n grid as lo:hi (or a single value)")
    p.add_argument("--d", type=int, help="single ambient dimension")
    p.add_argument("--n", type=int, help="single walk length")
    common(p, k=True)

    p = sub.add_parser("threshold", help="weak-threshold classification")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gamma", type=str, required=True, help='growth exponent, rational or "inf"')
    p.add_argument("--c", type=float, default=None, help="critical-case second-order constant")

    p = sub.add_parser("recovery", help="exact unique-recovery probability")
    common(p, n=True, k=True, d=True)

    p = sub.add_parser("mc-cone", help="Monte Carlo estimate of E[f_k]")
    common(p, n=True, k=True, d=True, n_max=False)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("mc-recovery", help="Monte Carlo estimate of the recovery probability")
    common(p, n=True, k=True, d=True, n_max=False)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--amplitudes", choices=("ones", "uniform"), default="ones")

    return parser


def _run(args: argparse.Namespace, out: IO[str]) -> None:
    fmt_default_json = args.command in ("stats", "threshold", "recovery", "mc-cone", "mc-recovery")
    fmt = args.format or ("json" if fmt_default_json else "csv")

    if args.command == "stirling":
        kind = stirling.StirlingKind.FIRST if args.kind == "first" else stirling.StirlingKind.SECOND
        r = as_rational(args.r)
        stirling.check_n_max(args.n, args.n_max)  # its record comes first, as in stirling_r
        if r >= 0 and 0 <= args.k <= args.n:  # an unprintable entry is refused before any kernel runs
            check_log10_bound(stirling._log10_lower(kind, args.n, args.k, r))
        _emit_value(out, fmt, stirling.stirling_r(kind, args.n, args.k, r, n_max=args.n_max))

    elif args.command == "lah":
        _emit_value(out, fmt, stirling.lah_r(args.n, args.k, as_rational(args.r), n_max=args.n_max))

    elif args.command == "pgf":
        params = distribution.AdmissibleTriple(args.n, args.k, as_rational(args.r))
        stirling.check_n_max(params.n, args.n_max)
        _emit_value(out, fmt, distribution.pgf_eval(params, as_rational(args.t)))

    elif args.command == "pmf":
        params = distribution.AdmissibleTriple(args.n, args.k, as_rational(args.r))
        top = stirling.stirling_r(stirling.StirlingKind.SECOND, params.n, params.k, params.r, n_max=args.n_max)
        top /= stirling.lah_r(params.n, params.k, params.r, n_max=args.n_max)  # P[X = n], the last row
        _check_ints([{"pmf_num": top.numerator, "pmf_den": top.denominator}])  # refused before the table
        dist = distribution.build_distribution(params, n_max=args.n_max)
        fields = ["j", "pmf_num", "pmf_den", "pmf_float"]
        if args.cdf:
            fields += ["cdf_num", "cdf_den"]
        _emit_rows(out, fmt, fields, dist.to_rows(include_cdf=args.cdf))

    elif args.command == "stats":
        params = distribution.AdmissibleTriple(args.n, args.k, as_rational(args.r))
        dist = distribution.build_distribution(params, n_max=args.n_max)
        # the closed-form normalizer reads no row: an unprintable one is refused before any other work
        normalizer = format_rational(dist.normalizer)
        even, odd = dist.parity_probabilities()
        mean, var = dist.expectation(), dist.variance()
        record = {
            "n": params.n,
            "k": params.k,
            "r": format_rational(params.r),
            "normalizer": normalizer,
            "expectation": format_rational(mean),
            "expectation_float": float(mean),
            "variance": format_rational(var),
            "variance_float": float(var),
            "mode": ",".join(str(j) for j in sorted(dist.mode())),
            "parity_even": format_rational(even),
            "parity_odd": format_rational(odd),
        }
        _emit_record(out, fmt, record)

    elif args.command == "asymptotics":
        rows = asymptotics.convergence_table(
            _int_list(args.n),
            args.k,
            as_rational(args.r),
            zs=_float_list(args.z),
            ldp_xs=_float_list(args.x),
        )
        _emit_rows(out, fmt, ["n", "statistic", "exact", "approximant", "gap"], rows)

    elif args.command == "faces":
        if (args.d is None) == (args.d_range is None):
            raise InvalidParameter("faces: give exactly one of --d or --d-range")
        if (args.n is None) == (args.n_range is None):
            raise InvalidParameter("faces: give exactly one of --n or --n-range")
        ds = _range(args.d_range) if args.d_range is not None else range(args.d, args.d + 1)
        ns = _range(args.n_range) if args.n_range is not None else range(args.n, args.n + 1)
        k = args.k
        queries = []  # every row is admitted, in grid order, before any ratio is computed
        for d in range(max(ds.start, k + 1), min(ds.stop, ns.stop)):  # the rows with k <= d - 1 <= n - 1
            for n in range(max(ns.start, d), ns.stop):
                queries.append(cones.ConeFaceQuery(d, n, k))
                stirling.check_n_max(n, args.n_max)
                distribution._admit_head(n, k, Fraction(1, 2), d - 1)  # face_ratio's head
        # each n's widest row first, so its prefix kernel runs once and not once per d
        ratios = {q: cones.face_ratio(q, n_max=args.n_max) for q in sorted(queries, key=lambda q: (q.n, -q.d))}
        rows = []
        for q in queries:
            ratio = ratios[q]
            count = math.comb(q.n, k) * ratio  # as expected_face_count, without a second ratio
            rows.append(
                {
                    "d": q.d,
                    "n": q.n,
                    "k": k,
                    "face_count_num": count.numerator,
                    "face_count_den": count.denominator,
                    "ratio_num": ratio.numerator,
                    "ratio_den": ratio.denominator,
                    "ratio_float": float(ratio),
                }
            )
        _emit_rows(
            out,
            fmt,
            ["d", "n", "k", "face_count_num", "face_count_den", "ratio_num", "ratio_den", "ratio_float"],
            rows,
        )

    elif args.command == "threshold":
        gamma = float("inf") if args.gamma.strip().lower() in ("inf", "infinity") else as_rational(args.gamma)
        result = cones.weak_threshold(args.k, gamma, args.c)
        record = {
            "k": args.k,
            "gamma": args.gamma,
            "regime": result.regime,
            "boundary": format_rational(result.boundary),
            "limit": result.limit,
        }
        _emit_record(out, fmt, record)

    elif args.command == "recovery":
        prob = cones.recovery_probability(args.d, args.n, args.k, n_max=args.n_max)
        record = {
            "d": args.d,
            "n": args.n,
            "k": args.k,
            "probability": format_rational(prob),
            "probability_float": float(prob),
            "boundary_case": args.k == args.d,
        }
        _emit_record(out, fmt, record)

    elif args.command == "mc-cone":
        est = montecarlo.estimate_expected_faces(args.d, args.n, args.k, args.trials, args.seed)
        _emit_record(out, fmt, est.to_json_dict())

    elif args.command == "mc-recovery":
        est = montecarlo.estimate_recovery_probability(
            args.d, args.n, args.k, args.trials, args.seed, amplitude_rule=args.amplitudes
        )
        _emit_record(out, fmt, est.to_json_dict())

    else:  # pragma: no cover - argparse enforces the choices
        raise InvalidParameter(f"unknown command {args.command!r}")


def _error(out: IO[str], exc: RLahError) -> int:
    _emit_record(out, "json", {"error": str(exc), "kind": type(exc).__name__})
    return 3 if isinstance(exc, CapacityExceeded) else 2


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        out = open(args.out, "w") if args.out else sys.stdout
    except InvalidParameter as exc:
        return _error(sys.stdout, exc)
    except OSError as exc:
        return _error(sys.stdout, InvalidParameter(f"cannot open the --out file: {exc}"))
    try:
        _run(args, out)
    except RLahError as exc:
        return _error(out, exc)
    finally:
        if args.out:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
