"""CLI tests: spec'd example commands, exit codes, formats, reproducibility."""

import contextlib
import hashlib
import io
import json
import math
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rlah import cones, distribution, stirling
from rlah.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_stirling_example(capsys):
    code, out = run_cli(capsys, "stirling", "--kind", "second", "--n", "3", "--k", "0", "--r", "1/2")
    assert code == 0
    assert out.splitlines() == ["value", "1/8"]


def test_stirling_json(capsys):
    code, out = run_cli(
        capsys, "--format", "json", "stirling", "--kind", "second", "--n", "3", "--k", "0", "--r", "1/2"
    )
    assert code == 0
    assert json.loads(out) == {"value": "1/8"}


def test_decimal_r_parses_exactly(capsys):
    _, out_decimal = run_cli(capsys, "lah", "--n", "3", "--k", "1", "--r", "0.5")
    _, out_fraction = run_cli(capsys, "lah", "--n", "3", "--k", "1", "--r", "1/2")
    assert out_decimal == out_fraction
    assert "18" in out_decimal


def test_pmf_example(capsys):
    code, out = run_cli(capsys, "pmf", "--n", "3", "--k", "1", "--r", "1/2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,pmf_num,pmf_den,pmf_float"
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(a), F(int(b), int(c))) for a, b, c, _ in rows] == [
        (1, F(23, 72)),
        (2, F(1, 2)),
        (3, F(13, 72)),
    ]


def test_threshold_example(capsys):
    code, out = run_cli(capsys, "threshold", "--k", "1", "--gamma", "0.5")
    assert code == 0
    record = json.loads(out)
    assert record["limit"] == 1
    assert record["regime"] == "subcritical"


def test_threshold_critical(capsys):
    code, out = run_cli(capsys, "threshold", "--k", "1", "--gamma", "2/3", "--c", "0")
    record = json.loads(out)
    assert record["regime"] == "critical"
    assert record["limit"] == 0.5


def test_pgf_command(capsys):
    code, out = run_cli(capsys, "pgf", "--n", "2", "--k", "1", "--r", "1/2", "--t", "2")
    assert code == 0
    assert out.splitlines()[1] == "3"


def test_stats_round_trip(capsys):
    code, out = run_cli(capsys, "stats", "--n", "3", "--k", "1", "--r", "1/2")
    record = json.loads(out)
    assert F(record["expectation"]) == F(67, 36)
    assert F(record["normalizer"]) == 18
    assert record["mode"] == "2"


def test_recovery_boundary_flag(capsys):
    _, out = run_cli(capsys, "recovery", "--d", "2", "--n", "8", "--k", "2")
    record = json.loads(out)
    assert record["boundary_case"] is True
    assert F(record["probability"]) == 0
    _, out = run_cli(capsys, "recovery", "--d", "2", "--n", "3", "--k", "1")
    record = json.loads(out)
    assert record["boundary_case"] is False
    assert F(record["probability"]) == F(23, 36)


def test_faces_grid(capsys):
    code, out = run_cli(capsys, "faces", "--d-range", "2:3", "--n-range", "2:4", "--k", "1")
    lines = out.strip().splitlines()
    assert lines[0].startswith("d,n,k,face_count_num")
    parsed = {}
    for line in lines[1:]:
        d, n, k, num, den, *_ = line.split(",")
        parsed[(int(d), int(n), int(k))] = F(int(num), int(den))
    assert parsed[(2, 2, 1)] == 2
    assert parsed[(2, 4, 1)] == F(11, 6)
    assert (3, 2, 1) not in parsed  # n < d filtered out


def test_faces_visits_only_the_rows_it_prints(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, "faces", "--d-range", "1:1000000000000", "--n-range", "5:6", "--k", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    rows = [tuple(map(int, line.split(",")[:2])) for line in out.splitlines()[1:]]
    assert rows == [(d, n) for d in range(2, 7) for n in (5, 6) if n >= d]  # 9 rows


def test_faces_runs_the_prefix_kernel_once_per_n(capsys, monkeypatch):
    runs = []
    kernel = distribution._first_kind_prefix_scaled

    def counted(n, r, j_max, start, lo):
        runs.append((n, min(j_max, n), start[0], lo))
        return kernel(n, r, j_max, start, lo)

    monkeypatch.setattr(distribution, "_first_kind_prefix_scaled", counted)
    monkeypatch.setattr(distribution, "_cache", distribution._ByteLRU())
    distribution._pmf_head_cached.cache_clear()
    code, out = run_cli(capsys, "faces", "--d-range", "2:40", "--n-range", "377:378", "--k", "1")
    assert (code, out.count("\n")) == (0, 1 + 2 * 39)
    assert runs == [(377, 39, 0, 0), (378, 39, 377, 0)]  # each n's widest window first, not one run per d


def test_faces_admits_every_row_before_any_ratio(capsys, monkeypatch):
    monkeypatch.setattr(cones, "pmf_head", lambda *args: pytest.fail(f"a ratio was computed: {args}"))
    start = time.perf_counter()
    code, out = run_cli(capsys, "faces", "--d", "3", "--n-range", "3:100000000", "--k", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert json.loads(out) == {"error": "n=4097 exceeds n_max=4096", "kind": "CapacityExceeded"}
    # the query is validated in the same pass, so its error still comes first
    code, out = run_cli(capsys, "faces", "--d-range", "0:3", "--n-range", "0:5000", "--k", "-1")
    assert code == 2
    assert json.loads(out) == {"error": "d must be >= 1, got 0", "kind": "InvalidParameter"}


def test_faces_admits_rows_by_the_head_work_cap(capsys, monkeypatch):
    # the row (6400, 6400) is past the head work cap and comes before the
    # row past --n-max, so its record is printed, before any ratio
    monkeypatch.setattr(cones, "pmf_head", lambda *args: pytest.fail(f"a ratio was computed: {args}"))
    code, out = run_cli(capsys, "faces", "--n-max", "7000", "--d", "6400", "--n-range", "6400:7001", "--k", "1")
    assert code == 3
    assert json.loads(out) == {
        "error": "exact head window 6399 x n=6400 exceeds the work cap; reduce n, z or the denominator of r",
        "kind": "CapacityExceeded",
    }


def test_mc_cone_deterministic_bytes(capsys):
    args = ("mc-cone", "--d", "2", "--n", "2", "--k", "1", "--trials", "20", "--seed", "9")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second
    record = json.loads(first)
    assert record["mean"] == 2.0
    assert "elapsed_ms" not in record


# the six mc-cone points of the benchmark (fewer trials) and its three mc-recovery points
MC_CONE_POINTS = [(2, 2, 1, 40), (2, 4, 1, 8), (3, 6, 0, 8), (4, 6, 1, 2), (3, 6, 2, 2), (4, 6, 2, 1)]
MC_RECOVERY_POINTS = [(2, 6, 1, 20), (3, 6, 2, 20), (4, 8, 2, 20)]


def test_mc_stdout_is_pinned(capsys):
    """SHA-256 of the concatenated stdout of mc-cone and mc-recovery at seeds
    1 and 2024, in JSON and CSV, as printed before the face test's tableau
    lost its artificial columns: the verdicts, and so the bytes, are the same."""
    digest = hashlib.sha256()
    for fmt in ("json", "csv"):
        for seed in ("1", "2024"):
            for command, points in (("mc-cone", MC_CONE_POINTS), ("mc-recovery", MC_RECOVERY_POINTS)):
                for d, n, k, trials in points:
                    code, out = run_cli(capsys, "--format", fmt, command, "--d", str(d), "--n", str(n),
                                        "--k", str(k), "--trials", str(trials), "--seed", seed)
                    assert code == 0
                    digest.update(out.encode())
    assert digest.hexdigest() == "d42af485724dcddc923b727b22e22b040d83e75f8ecfa87e07ee0a96c77bdb77"


def test_mc_recovery_runs(capsys):
    code, out = run_cli(
        capsys, "mc-recovery", "--d", "3", "--n", "3", "--k", "1", "--trials", "10", "--seed", "1"
    )
    assert code == 0
    assert json.loads(out)["mean"] == 1.0


@pytest.mark.parametrize(
    "argv,code_want,mean",
    [
        (("--d", "0", "--n", "3", "--k", "0"), 0, 0.0),  # no functional is negative on a walk in R^0
        (("--d", "0", "--n", "0", "--k", "0"), 0, 1.0),
        (("--d", "2", "--n", "2", "--k", "2"), 0, 1.0),  # n = d: G is injective
        (("--d", "70", "--n", "70", "--k", "3", "--trials", "1"), 3, None),  # past the walk size bound
        (("--d", "2", "--n", "65", "--k", "1"), 3, None),
    ],
)
def test_mc_recovery_edge_outcomes(capsys, argv, code_want, mean):
    code, out = run_cli(capsys, "mc-recovery", *argv)
    assert code == code_want
    record = json.loads(out)
    if code:
        assert record["kind"] == "CapacityExceeded"
    else:
        assert record["mean"] == mean


@pytest.mark.parametrize(
    "argv,mean",
    [
        (("--d", "1", "--n", "60", "--k", "0", "--trials", "3"), 1 / 3),
        (("--d", "4", "--n", "40", "--k", "2", "--trials", "1"), 0.0),
    ],
)
def test_mc_recovery_below_the_size_cap_is_fast(capsys, argv, mean):
    # as kernel-polytope LPs these took more than 100 s and 13 s
    start = time.perf_counter()
    code, out = run_cli(capsys, "mc-recovery", *argv)
    assert time.perf_counter() - start < 5.0  # the fuzz test's deadline
    assert code == 0
    assert json.loads(out)["mean"] == mean


def test_mc_recovery_past_the_cap_is_refused_at_once(capsys):
    # the refusal comes before the draw and the rank check, whose kernel
    # basis of n - d vectors of length n took 1 s and 100 MB here
    start = time.perf_counter()
    code, out = run_cli(capsys, "mc-recovery", "--d", "1", "--n", "3000", "--k", "0", "--trials", "1")
    assert time.perf_counter() - start < 0.3
    assert code == 3
    assert json.loads(out) == {
        "error": "a walk of n=3000 steps in d=1 dimensions exceeds the LP design size (n <= 64, d <= 63)",
        "kind": "CapacityExceeded",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("mc-cone", "--d", "2", "--n", "2", "--k", "1", "--trials", "1000000000000"),
        ("mc-recovery", "--d", "2", "--n", "4", "--k", "1", "--trials", "1000000000000"),
        ("mc-cone", "--d", "200", "--n", "1", "--k", "0", "--trials", "1"),
        ("mc-cone", "--d", "100000000", "--n", "1", "--k", "0", "--trials", "1"),
    ],
)
def test_mc_trials_past_the_face_test_cap_are_refused_at_once(capsys, argv):
    # the first two ran every trial asked for, and were still running when
    # killed at 5 s; the walks in d = 200 took 18 s, and in d = 10^8 never ended
    start = time.perf_counter()
    code, out = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.3
    assert code == 3
    assert json.loads(out)["kind"] == "CapacityExceeded"


def test_asymptotics_csv(capsys):
    code, out = run_cli(
        capsys, "asymptotics", "--n", "100", "--k", "1", "--r", "1/2", "--z", "0.3", "--x", "2.0"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,statistic,exact,approximant,gap"
    assert any("mod_poisson_residual[z=0.3]" in line for line in lines)


def test_validation_exit_code(capsys):
    code, out = run_cli(capsys, "lah", "--n", "3", "--k", "0", "--r", "0")
    assert code == 2
    record = json.loads(out)
    assert record["kind"] == "InadmissibleParameters"


@pytest.mark.parametrize(
    "argv",
    [
        ("stirling", "--kind", "first", "--n", "50", "--k", "2", "--r", "1/2", "--n-max", "10"),
        ("lah", "--n", "50", "--k", "2", "--r", "1/2", "--n-max", "10"),
        ("pmf", "--n", "50", "--k", "2", "--r", "1/2", "--n-max", "10"),
        ("stats", "--n", "50", "--k", "2", "--r", "1/2", "--n-max", "10"),
        ("pgf", "--n", "50", "--k", "2", "--r", "1/2", "--t", "1/3", "--n-max", "10"),
        ("faces", "--d", "5", "--n", "50", "--k", "2", "--n-max", "10"),
        ("recovery", "--d", "5", "--n", "50", "--k", "2", "--n-max", "10"),
        # pgf_eval's cost grows about as n^2, so past the cap this n would run about an hour
        ("pgf", "--n", "1000000", "--k", "1", "--r", "1/2", "--t", "1/2"),
    ],
    ids=["stirling", "lah", "pmf", "stats", "pgf", "faces", "recovery", "pgf-default-cap"],
)
def test_capacity_exit_code(capsys, argv):
    # every command that takes --n-max refuses a row past its cap before any work
    start = time.perf_counter()
    code, out = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.3
    assert code == 3
    n = argv[argv.index("--n") + 1]
    cap = argv[argv.index("--n-max") + 1] if "--n-max" in argv else 4096
    assert json.loads(out) == {"error": f"n={n} exceeds n_max={cap}", "kind": "CapacityExceeded"}


def test_bad_rational_exit_code(capsys):
    code, out = run_cli(capsys, "lah", "--n", "3", "--k", "1", "--r", "zebra")
    assert code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, _ = run_cli(
        capsys, "--out", str(target), "--format", "json", "lah", "--n", "3", "--k", "1", "--r", "1/2"
    )
    assert code == 0
    assert json.loads(target.read_text()) == {"value": "18"}


@pytest.mark.parametrize(
    "argv",
    [
        ("asymptotics", "--n", "1x", "--k", "1", "--r", "1/2"),
        ("asymptotics", "--n", "100", "--k", "1", "--r", "1/2", "--z", "abc"),
        ("faces", "--d-range", "2:", "--n-range", "4:10", "--k", "1"),
        ("faces", "--d-range", "2:3", "--n-range", "x", "--k", "1"),
        ("pmf", "--n", "x", "--k", "1", "--r", "1/2"),
        ("pmf", "--n", "3"),
        ("mc-cone", "--d", "2", "--n", "2", "--k", "1", "--seed", "1.5"),
    ],
)
def test_unparseable_arguments_exit_2_with_record(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["kind"] == "InvalidParameter"


@pytest.mark.parametrize("value", ["5", "abc"])
def test_row_cap_reads_no_environment(capsys, monkeypatch, value):
    # the cap is n_max or --n-max, else 4096: a variable named like it moves nothing
    monkeypatch.setenv("RLAH_N_MAX", value)
    assert stirling.stirling_r(stirling.StirlingKind.FIRST, 6, 1, F(1, 2)) == F(4881, 8)
    code, out = run_cli(capsys, "lah", "--n", "3", "--k", "1", "--r", "1/2")
    assert (code, out.splitlines()) == (0, ["value", "18"])


def test_out_file_in_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "result.json"
    code, out = run_cli(capsys, "--out", str(target), "lah", "--n", "3", "--k", "1", "--r", "1/2")
    assert code == 2
    assert json.loads(out)["kind"] == "InvalidParameter"
    assert not target.exists()


def test_huge_rational_literal_is_refused_at_once(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, "pmf", "--n", "3", "--k", "1", "--r", "1e999999")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert json.loads(out)["kind"] == "CapacityExceeded"


@pytest.mark.parametrize(
    "argv",
    [
        ("lah", "--n", "2000", "--k", "1", "--r", "1/2"),
        ("recovery", "--d", "18", "--n", "2500", "--k", "3"),
        ("pmf", "--n", "1500", "--k", "1", "--r", "1/2"),
        ("stats", "--n", "4096", "--k", "1", "--r", "1/2"),  # refused before the row is built
        ("faces", "--d", "6", "--n", "3000", "--k", "1"),
        ("--format", "json", "faces", "--d", "6", "--n", "3000", "--k", "1"),
        ("faces", "--d-range", "2:6", "--n-range", "3000:3000", "--k", "1"),
    ],
)
def test_output_past_the_int_to_str_limit_exits_3(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 3
    assert out.count("\n") == 1  # the error record alone: no header or rows before it
    assert json.loads(out)["kind"] == "CapacityExceeded"


@pytest.mark.parametrize("cdf", [(), ("--cdf",)])
def test_unprintable_pmf_is_refused_before_the_row(capsys, monkeypatch, cdf):
    rows = []
    monkeypatch.setattr(distribution, "_head_row", lambda *args: rows.append(args))
    code, out = run_cli(capsys, "pmf", "--n", "1500", "--k", "1", "--r", "1/2", *cdf)
    assert (code, rows) == (3, [])
    limit = sys.get_int_max_str_digits()
    assert json.loads(out) == {
        "error": f"exact output has more than {limit} decimal digits (the int-to-str limit)",
        "kind": "CapacityExceeded",
    }


def spy_stirling_kernels(monkeypatch):
    """Record every run of the two r-Stirling kernels, and let it run."""
    runs = []
    for name in ("_first_kind_prefix_scaled", "_second_kind_column_scaled"):
        kernel = getattr(stirling, name)
        monkeypatch.setattr(stirling, name, lambda *a, kernel=kernel, **kw: runs.append(a) or kernel(*a, **kw))
    return runs


@pytest.mark.parametrize("kind", ["first", "second"])
def test_unprintable_stirling_entry_is_refused_before_any_kernel(capsys, monkeypatch, kind):
    runs = spy_stirling_kernels(monkeypatch)
    start = time.perf_counter()
    code, out = run_cli(capsys, "stirling", "--kind", kind, "--n", "4096", "--k", "2048", "--r", "1/2")
    assert (code, runs) == (3, [])
    assert time.perf_counter() - start < 1.0
    limit = sys.get_int_max_str_digits()
    assert json.loads(out) == {
        "error": f"exact output has more than {limit} decimal digits (the int-to-str limit)",
        "kind": "CapacityExceeded",
    }


def test_stirling_lower_bound_never_refuses_a_printable_entry(capsys, monkeypatch):
    runs = spy_stirling_kernels(monkeypatch)
    entries = [("second", n, 10, r) for n in range(600, 680, 3) for r in ("1/2", "7/3", "0")]
    entries += [("first", n, k, r) for n in range(285, 335, 2) for k in (0, 1, 5) for r in ("1/2", "1/3", "0")]
    early = 0
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for kind, n, k, r in entries:
            runs.clear()
            code, out = run_cli(capsys, "stirling", "--kind", kind, "--n", str(n), "--k", str(k), "--r", r)
            early += not runs
            stirling_kind = stirling.StirlingKind.FIRST if kind == "first" else stirling.StirlingKind.SECOND
            value = stirling.stirling_r(stirling_kind, n, k, F(r))
            printable = max(value.numerator, value.denominator) < 10**640
            assert code == (0 if printable else 3), (kind, n, k, r)
    finally:
        sys.set_int_max_str_digits(saved)
    assert early > 20  # the bound refuses most unprintable entries before their kernel


def test_asymptotics_past_the_head_work_cap_exits_3(capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(distribution, "_first_kind_prefix_scaled", lambda *args: runs.append(args))
    code, out = run_cli(capsys, "asymptotics", "--n", "400000", "--k", "1", "--r", "1/2")
    assert (code, runs) == (3, [])
    assert json.loads(out) == {
        "error": "exact head window 75 x n=400000 exceeds the work cap; reduce n, z or the denominator of r",
        "kind": "CapacityExceeded",
    }


@pytest.mark.parametrize(
    "extra,code_want",
    [
        (("--r", "1/2", "--z", "5"), 0),  # Gamma((k+r) e^5 + r) overflows math.gamma
        (("--r", "0", "--z", "-800"), 2),  # (k+r) e^-800 + r underflows to the pole at 0
        (("--r", "1/2", "--x", "200"), 0),  # the tail approximant underflows to 0
        (("--r", "1/2", "--z", "800"), 2),  # math.exp(800) overflows binary64
        (("--r", "1/2", "--z", "709"), 2),  # e^709 is finite, lambda_n (e^709 - 1) is not
        (("--r", "1/2", "--z=-inf"), 2),
        (("--r", "1/2", "--x", "inf"), 0),  # x * lambda_n is not finite: the ldp row is skipped
        (("--r", "1/2", "--x", "nan"), 0),
        (("--r", "1/2", "--x", "1e308"), 0),
    ],
)
def test_asymptotics_overflow_inputs(capsys, extra, code_want):
    code, out = run_cli(capsys, "asymptotics", "--n", "100", "--k", "1", *extra)
    assert code == code_want
    if code:
        assert json.loads(out)["kind"] == "DomainError"
        return
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert rows and all(math.isfinite(float(v)) for row in rows for v in row[2:])
    if "--x" in extra:  # no --x here has a usable lattice point and approximant
        assert not any(row[1].startswith("ldp_tail") for row in rows)


def test_asymptotics_tail_window_past_binary64(capsys):
    # x * lambda_n is finite at n = 2, r = 0, but the window's e^z is not
    code, out = run_cli(capsys, "asymptotics", "--n", "2", "--k", "1", "--r", "0", "--x", "1.7e308")
    assert code == 0
    assert not any(line.split(",")[1].startswith("ldp_tail") for line in out.strip().splitlines()[1:])


# -- fuzzing the exit-code contract ------------------------------------------------

_BAD_VALUES = st.sampled_from([
    "", "x", "1.5", "1e3", "0x10", "--", "3 4", "-3", "0", "zebra", "1/0", "1/", "/2", "nan", "inf",
    "-1/2", "1e999999", "1//2", "9" * 1001, "2:", ":", "a:b", "1:2:3", "4:1", "1,,2",
])


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


_N = _ints(1, 300)
_K = st.one_of(_ints(0, 6), _ints(0, 300))
_R = st.one_of(st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 20), st.integers(1, 12)),
               st.sampled_from(["0", "0.5", "2.25", "1e-2"]))
_FLOATS = st.lists(st.floats(-3.0, 6.0, allow_nan=False).map(repr), min_size=1, max_size=3).map(",".join)
_N_MAX = _ints(1, 400)


def _span(lo, hi):
    return st.builds(lambda a, w: f"{a}:{a + w}", st.integers(lo, hi), st.integers(0, 4))


# Monte Carlo arguments stay small, or go past the walk size bound (n <= 64
# steps in d <= 63 dimensions), where they exit 3 at once.  mc-cone runs a
# face test, one exact LP, for each of binom(n, k) subsets per trial, so
# mc-cone at d = 8, n = 12, k = 4 with 3 trials takes seconds; its n stays at
# 10 or less, or past 64.
# mc-recovery runs one face test per trial, under 1 s for 3 trials at n = 64
# and d <= 4, so it takes every n up to 300.  Both draw d up to 4, or from
# 64 to 10^30.  --trials is never left out (its default is 1000) nor made
# large: a run takes every trial it is asked for, up to 10^6 face tests.
_D = st.one_of(_ints(1, 4), _ints(64, 10**30))
_MC = [("d", _D), ("n", st.one_of(_ints(1, 10), _ints(65, 300))), ("k", _ints(0, 4)),
       ("trials", _ints(1, 3)), ("seed?", _ints(0, 10**6))]
_MC_RECOVERY = [("d", _D), ("n", _N), ("k", _ints(0, 4)), ("trials", _ints(1, 3)),
                ("seed?", _ints(0, 10**6)), ("amplitudes?", st.sampled_from(["ones", "uniform"]))]

# subcommand -> [(flag, values)]; a trailing "?" marks an optional flag, and
# None values a bare switch
_SPECS = {
    "stirling": [("kind", st.sampled_from(["first", "second"])), ("n", _N), ("k", _K), ("r", _R),
                 ("n-max?", _N_MAX)],
    "lah": [("n", _N), ("k", _K), ("r", _R), ("n-max?", _N_MAX)],
    "pmf": [("n", _N), ("k", _K), ("r", _R), ("cdf?", None), ("n-max?", _N_MAX)],
    "stats": [("n", _N), ("k", _K), ("r", _R), ("n-max?", _N_MAX)],
    "pgf": [("n", _N), ("k", _K), ("r", _R), ("t", st.one_of(_R, st.just("-1/3")))],
    "asymptotics": [("n", st.lists(_ints(2, 300), min_size=1, max_size=3).map(",".join)), ("k", _ints(0, 4)),
                    ("r", _R), ("z?", _FLOATS), ("x?", _FLOATS)],
    "faces": [("d-range", _span(1, 12)), ("n-range", _span(1, 300)), ("k", _ints(0, 4)), ("n-max?", _N_MAX)],
    "threshold": [("k", _ints(0, 6)), ("gamma", st.one_of(_R, st.just("inf"))),
                  ("c?", st.one_of(st.floats(-5.0, 5.0, allow_nan=False), st.just(math.nan)).map(repr))],
    "recovery": [("d", _ints(1, 12)), ("n", _N), ("k", _ints(0, 12)), ("n-max?", _N_MAX)],
    "mc-cone": _MC,
    "mc-recovery": _MC_RECOVERY,
}


@st.composite
def _argvs(draw):
    """A valid command line, or one with a single flag dropped or malformed."""
    command = draw(st.sampled_from(sorted(_SPECS)))
    flags = []
    for flag, values in _SPECS[command]:
        if flag.endswith("?"):
            if not draw(st.booleans()):
                continue
            flag = flag[:-1]
        flags.append([flag, None if values is None else draw(values)])
    if command == "faces" and draw(st.booleans()):  # --d / --n instead of the ranges
        flags = [[flag.replace("-range", ""), value.split(":")[0] if flag.endswith("range") else value]
                 for flag, value in flags]
    fault = draw(st.sampled_from(["none", "none", "value", "drop"]))
    if fault != "none":
        i = draw(st.integers(0, len(flags) - 1))
        if fault == "drop" and flags[i][0] != "trials":
            del flags[i]
        elif flags[i][1] is not None:
            bad = _BAD_VALUES.filter(lambda v: not v.isdigit()) if flags[i][0] == "trials" else _BAD_VALUES
            flags[i][1] = draw(bad)
    argv = [f"--format={draw(st.sampled_from(['csv', 'json']))}"] if draw(st.booleans()) else []
    return argv + [command] + [f"--{flag}" if value is None else f"--{flag}={value}" for flag, value in flags]


@pytest.mark.parametrize(
    "argv,code_want",
    [
        (("lah", "--n=--", "--k", "1", "--r", "1/2"), 2),  # argparse would store [] for the "--"
        (("faces", "--d-range=", "--n-range", "1:1", "--k", "0"), 2),  # an empty range is not a missing one
        (("asymptotics", "--n", "4", "--k", "-3", "--r", "0"), 2),  # refused before lambda_n's square root
        (("asymptotics", "--n", "7", "--k", "0", "--r", "1e3"), 2),  # the residual at z = -0.5 is past binary64
        (("mc-cone", "--d", "1", "--n", "1", "--k", "0", "--trials", "1", "--seed", "-3"), 2),  # seeds are >= 0
        (("mc-cone", "--d", "9" * 30, "--n", "1", "--k", "0", "--trials", "1"), 3),  # past the walk size bound
        (("mc-recovery", "--d", "1", "--n", "9" * 30, "--k", "0", "--trials", "1"), 3),  # past the walk size bound
        (("threshold", "--k", "1", "--gamma", "2/3", "--c", "nan"), 2),  # a NaN limit is not JSON
    ],
)
def test_fuzz_found_inputs_keep_the_contract(capsys, argv, code_want):
    code, out = run_cli(capsys, *argv)
    assert code == code_want
    assert set(json.loads(out)) == {"error", "kind"}


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@given(_argvs())
@settings(max_examples=300, deadline=5000, suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_arguments_keep_the_exit_code_contract(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3)
    if code:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert set(record) == {"error", "kind"}
    elif out.getvalue().startswith("{"):  # a JSON record or table must be strict JSON: no NaN or Infinity
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
