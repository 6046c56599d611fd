"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Exact-identity criteria use zero tolerance (rational equality);
convergence criteria compare statistics of the exact distribution (computed
on certified support prefixes) against the limit-theorem predictions along
the n grid {1e2, 1e3, 1e4}; Monte Carlo criteria run 2000 fixed-seed trials
per grid point against the closed forms.
"""

from fractions import Fraction as F

from rlah.asymptotics import (
    kolmogorov_distance,
    llt_sup_gap,
    ldp_lattice_point,
    ldp_lower_tail,
    ldp_upper_tail,
    mod_poisson_residual,
    mode_prediction,
    psi_limit,
)
from rlah.cones import (
    ConeFaceQuery,
    expected_face_count,
    recovery_probability,
    strong_threshold_check,
    weak_threshold,
)
from rlah.distribution import (
    AdmissibleTriple,
    build_distribution,
    mode_exact,
    pgf_eval,
    pmf_head,
)
from rlah.montecarlo import (
    estimate_expected_faces,
    estimate_recovery_probability,
    is_unique_recovery,
    make_recovery_instance,
)
from rlah.stirling import StirlingKind, lah_r, stirling_r

import numpy as np

from law_oracle import expectation_alt, mean_via_pmf, pgf_via_pmf, stirling_r_poly

HALF = F(1, 2)
R_GRID = [F(0), HALF, F(1), F(7, 3)]
N_SMALL = 12
FIRST, SECOND = StirlingKind.FIRST, StirlingKind.SECOND


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {number:02d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _admissible_small():
    for r in R_GRID:
        for n in range(1, N_SMALL + 1):
            for k in range(0, n + 1):
                if k == 0 and r == 0:
                    continue
                yield n, k, r


def test_criterion_01_exact_identities():
    failures = []
    for r in R_GRID:
        for n in range(N_SMALL + 1):
            for k in range(n + 1):
                for kind in (FIRST, SECOND):
                    if stirling_r(kind, n, k, r) != stirling_r_poly(kind, n, k, r):
                        failures.append(("recurrence-vs-poly", kind, n, k, r))
    for n, k, r in _admissible_small():
        by_sum = sum(
            stirling_r(FIRST, n, j, r) * stirling_r(SECOND, j, k, r) for j in range(k, n + 1)
        )
        if lah_r(n, k, r) != by_sum:
            failures.append(("lah-closed-vs-sum", n, k, r))
        if k < n:
            alt = sum(
                (-1) ** (n - j) * stirling_r(FIRST, n, j, r) * stirling_r(SECOND, j, k, r)
                for j in range(k, n + 1)
            )
            if alt != 0:
                failures.append(("alternating-sum", n, k, r))
        dist = build_distribution(AdmissibleTriple(n, k, r))
        if dist.cdf(n) != 1:
            failures.append(("normalization", n, k, r))
        if k < n and dist.parity_probabilities() != (HALF, HALF):
            failures.append(("parity", n, k, r))
        if not dist.expectation() == expectation_alt(n, k, r) == mean_via_pmf(dist):
            failures.append(("expectation", n, k, r))
    _report(1, "exact identity suite", not failures, f"{len(failures)} violations")


def test_criterion_02_log_concavity():
    failures = []
    for r in R_GRID:
        for n in range(1, N_SMALL + 1):
            for kind in (FIRST, SECOND):
                row = [stirling_r(kind, n, k, r) for k in range(n + 1)]
                for k in range(1, n):
                    if not row[k] * row[k] > row[k - 1] * row[k + 1]:
                        failures.append(("row", kind, n, k, r))
    for n, k, r in _admissible_small():
        ok, witness = build_distribution(AdmissibleTriple(n, k, r)).certify_log_concavity()
        if not ok:
            failures.append(("pmf", n, k, r, witness))
    _report(2, "log-concavity suite", not failures, f"{len(failures)} violations")


def test_criterion_03_generating_function():
    ts = [F(-1), F(0), F(1, 3), F(1), F(2)]
    failures = []
    for n, k, r in _admissible_small():
        params = AdmissibleTriple(n, k, r)
        dist = build_distribution(params)
        for t in ts:
            if pgf_eval(params, t) != pgf_via_pmf(dist, t):
                failures.append((n, k, r, t))
    _report(3, "generating-function two-path agreement", not failures, f"{len(failures)} violations")


def test_criterion_04_mode_prediction():
    cases = [(1, HALF), (2, F(0)), (0, HALF)]
    hard_failures = []
    notes = []
    for n in (10**3, 10**4):
        for k, r in cases:
            exact = mode_exact(n, k, r)
            pair = set(mode_prediction(n, k, float(r)))
            contained = exact <= pair
            notes.append(f"n={n},k={k},r={r}: exact={sorted(exact)} pred={sorted(pair)}")
            if not contained:
                if n == 10**3:
                    # the location result is asymptotic; misses here are
                    # recorded as informational, not failed
                    notes.append(f"  informational miss at n={n}")
                else:
                    hard_failures.append((n, k, r, exact, pair))
    _report(4, "mode prediction containment", not hard_failures, "; ".join(notes))


def test_criterion_05_clt_trend():
    ns = (10**2, 10**3, 10**4)
    corrected = [kolmogorov_distance(n, 1, HALF) for n in ns]
    raw = [kolmogorov_distance(n, 1, HALF, continuity_correction=False) for n in ns]
    decreasing = corrected[0] > corrected[1] > corrected[2]
    small = corrected[-1] < 0.12
    detail = (
        "corrected=" + ",".join(f"{v:.4f}" for v in corrected)
        + " raw=" + ",".join(f"{v:.4f}" for v in raw)
    )
    _report(5, "CLT Kolmogorov trend", decreasing and small, detail)


def test_criterion_06_llt_trend():
    ns = (10**2, 10**3, 10**4)
    gaps = [llt_sup_gap(n, 1, HALF) for n in ns]
    ok = gaps[0] > gaps[1] > gaps[2]
    _report(6, "LLT scaled sup trend", ok, "gaps=" + ",".join(f"{v:.4f}" for v in gaps))


def test_criterion_07_mod_poisson_residual():
    ok = psi_limit(1, 0.5, 0.0) == 1.0 and abs(psi_limit(1, 0.5, 0.0) - 1.0) <= 1e-12
    details = [f"psi(0)={psi_limit(1, 0.5, 0.0)!r}"]
    for z in (-0.5, 0.3, 1.0):
        target = psi_limit(1, 0.5, z)
        gap_small_n = abs(mod_poisson_residual(10**2, 1, HALF, z) - target)
        gap_big_n = abs(mod_poisson_residual(10**4, 1, HALF, z) - target)
        ok = ok and gap_big_n < gap_small_n
        details.append(f"z={z}: {gap_small_n:.5f}->{gap_big_n:.5f}")
    _report(7, "mod-Poisson residual convergence", ok, "; ".join(details))


def test_criterion_08_ldp_ratio_trend():
    ok = True
    details = []
    for x in (2.0, 0.5):
        ratios = {}
        for n in (10**2, 10**4):
            j, _ = ldp_lattice_point(n, 1, 0.5, x)
            head = pmf_head(n, 1, HALF, max(j + 8, 40))
            if x > 1:
                exact = float(head.upper_tail(j))
                approx = ldp_upper_tail(n, 1, 0.5, x)
            else:
                exact = float(head.lower_tail(j))
                approx = ldp_lower_tail(n, 1, 0.5, x)
            ratios[n] = exact / approx
        improved = abs(ratios[10**4] - 1.0) < abs(ratios[10**2] - 1.0)
        ok = ok and improved
        details.append(f"x={x}: ratio {ratios[10**2]:.4f}->{ratios[10**4]:.4f}")
    _report(8, "LDP tail-ratio trend", ok, "; ".join(details))


def test_criterion_09_cone_monte_carlo():
    grid = [(2, 2, 1), (2, 4, 1), (3, 4, 1), (3, 4, 2), (3, 6, 2)]
    trials, seed = 2000, 42
    ok = True
    details = []
    for d, n, k in grid:
        est = estimate_expected_faces(d, n, k, trials, seed)
        exact = float(expected_face_count(ConeFaceQuery(d, n, k)))
        within = abs(est.mean - exact) <= 3 * est.stderr
        ok = ok and within
        details.append(f"({d},{n},{k}): mc={est.mean:.4f} exact={exact:.4f} se={est.stderr:.4f}")
        if (d, n, k) == (2, 2, 1):
            degenerate_ok = est.mean == 2.0 and est.stderr == 0.0
            ok = ok and degenerate_ok
            details.append(f"degenerate point exact in every trial: {degenerate_ok}")
    _report(9, "cone formula cross-check (MC)", ok, "; ".join(details))


def test_criterion_10_recovery_monte_carlo():
    grid = [(2, 3, 1), (2, 6, 1), (3, 6, 2)]
    trials, seed = 2000, 123
    ok = True
    details = []
    for d, n, k in grid:
        est = estimate_recovery_probability(d, n, k, trials, seed)
        exact = float(recovery_probability(d, n, k))
        within = abs(est.mean - exact) <= 3 * est.stderr
        ok = ok and within
        details.append(f"({d},{n},{k}): mc={est.mean:.4f} exact={exact:.4f} se={est.stderr:.4f}")
    violations = 0
    for idx in range(100):
        inst = make_recovery_instance(3, 6, 2, np.random.default_rng((777, idx)))
        base = is_unique_recovery(inst)
        scaled = inst.with_amplitudes([a * F(7, 3) for a in inst.amplitudes])
        if is_unique_recovery(scaled) != base:
            violations += 1
    ok = ok and violations == 0
    details.append(f"amplitude-invariance violations: {violations}/100")
    _report(10, "recovery cross-check (MC)", ok, "; ".join(details))


def test_criterion_11_threshold_classification():
    expected = {(0, F(1)): 1.0, (0, F(3)): 0.0, (1, F(1, 2)): 1.0, (1, F(1)): 0.0}
    ok = True
    details = []
    for (k, gamma), want in expected.items():
        got = weak_threshold(k, gamma).limit
        ok = ok and got == want
        details.append(f"(k={k},g={gamma})->{got}")
    for k in (0, 1, 2):
        boundary = weak_threshold(k, F(2, 2 * k + 1))
        ok = ok and boundary.regime == "critical"
    critical = weak_threshold(1, F(2, 3), c=0.0).limit
    ok = ok and abs(critical - 0.5) <= 1e-12
    details.append(f"critical(c=0)={critical}")
    _report(11, "weak-threshold classification", ok, "; ".join(details))


def test_criterion_12_strong_threshold_envelope():
    checked = 0
    violations = []
    for d in range(1, 11):
        for n in range(1, 21):
            for k in range(0, 3):
                result = strong_threshold_check(k, d, n)
                if not result.applies or result.exact_tail_bound is None:
                    continue
                checked += 1
                # exact comparison of 2 n^k P[Lah >= d] <= 2 n^(-1/2)
                lhs = result.exact_tail_bound
                if lhs * lhs * n > 4:
                    violations.append((d, n, k))
    ok = checked > 0 and not violations
    _report(
        12,
        "strong-threshold envelope",
        ok,
        f"checked={checked} violations={len(violations)}",
    )
