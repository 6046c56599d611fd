"""Floating-path tests: special functions against mpmath, log-space slices
against the exact r-Stirling numbers, and the limit-theorem approximants
against exact finite-n distributions."""

import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from rlah.asymptotics import (
    _gamma_ratio,
    clt_normalize,
    convergence_table,
    digamma,
    expectation_asymptotic,
    kolmogorov_distance,
    lambda_n,
    ldp_lattice_point,
    ldp_lower_tail,
    ldp_point,
    ldp_tail_ratio,
    ldp_upper_tail,
    llt_gaussian_pmf,
    llt_sup_gap,
    mod_poisson_residual,
    mode_prediction,
    normal_cdf,
    psi_limit,
)
from rlah.distribution import (
    AdmissibleTriple,
    build_distribution,
    expectation_exact,
    mode_exact,
)
from rlah.errors import CapacityExceeded, DomainError, InvalidParameter
from rlah.stirling import StirlingKind, stirling_r

from law_oracle import (
    log_first_kind_row,
    log_pmf_row,
    log_second_kind_column,
    residual_via_logspace,
    residual_via_pgf,
)

HALF = F(1, 2)


# -- special functions ----------------------------------------------------------

class TestGamma:
    """Gamma values as _gamma_ratio(x, 1), the one gamma route of the package."""

    def test_known_values(self):
        assert _gamma_ratio(0.5, 1.0) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert _gamma_ratio(1.0, 1.0) == 1.0
        assert _gamma_ratio(6.0, 1.0) == pytest.approx(120.0, rel=1e-14)

    def test_accuracy_contract_against_mpmath(self):
        for x in np.linspace(0.5, 50.0, 166):
            want = float(mpmath.gamma(x))
            assert abs(_gamma_ratio(x, 1.0) - want) <= 1e-12 * abs(want)

    def test_domain(self):
        with pytest.raises(DomainError):
            _gamma_ratio(0.0, 1.0)
        with pytest.raises(DomainError):
            _gamma_ratio(-2.5, 1.0)
        with pytest.raises(DomainError):
            _gamma_ratio(1.0, 0.0)
        with pytest.raises(DomainError):
            _gamma_ratio(200.0, 1.0)  # Gamma(200) is past binary64

    def test_log_gamma_large(self):
        # past math.gamma's range the ratio comes from lgamma differences
        for a, b in ((200.0, 199.25), (4096.0, 4093.5), (180.0, 175.0)):
            want = float(mpmath.gamma(a) / mpmath.gamma(b))
            assert _gamma_ratio(a, b) == pytest.approx(want, rel=1e-11)


class TestDigamma:
    def test_euler_mascheroni(self):
        assert digamma(1.0) == pytest.approx(-float(mpmath.euler), abs=1e-12)

    def test_against_mpmath(self):
        for x in (0.1, 0.5, 1.5, 2.0, 3.0, 7.7, 12.0, 100.0):
            assert digamma(x) == pytest.approx(float(mpmath.digamma(x)), abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0.0)


def test_normal_cdf():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)


# -- log-space slices of the float PMF row ------------------------------------------

@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kind", [StirlingKind.FIRST, StirlingKind.SECOND])
def test_logspace_matches_exact(kind, r):
    r_exact = F(r)
    for n in range(0, 65, 4):
        for k in range(n + 1):
            exact = stirling_r(kind, n, k, r_exact)
            if kind is StirlingKind.FIRST:
                got = log_first_kind_row(n, r)[k]
            else:
                got = log_second_kind_column(k, r, n)[n]
            if exact == 0:
                assert got == -math.inf
            else:
                want = math.log(exact.numerator) - math.log(exact.denominator)
                assert abs(got - want) <= max(1e-9 * abs(want), 1e-11)


def test_logspace_rows_unimodal():
    for n in (5, 20, 64):
        row = log_first_kind_row(n, 0.5)
        top = int(np.argmax(row))
        assert all(np.diff(row[: top + 1]) >= -1e-12)
        assert all(np.diff(row[top:]) <= 1e-12)


def test_logspace_capacity():
    with pytest.raises(CapacityExceeded):
        log_pmf_row(11, 2, 0.5, n_max=10)


def test_log_pmf_row_matches_exact():
    n, k, r = 200, 1, HALF
    row = log_pmf_row(n, k, float(r))
    dist = build_distribution(AdmissibleTriple(n, k, r))
    for j in range(k, n + 1):
        p = dist.pmf(j)
        want = math.log(p.numerator) - math.log(p.denominator)
        assert abs(row[j] - want) <= max(1e-9 * abs(want), 1e-10)
    assert row[0] == -math.inf
    # normalized in float
    finite = row[np.isfinite(row)]
    assert np.exp(finite).sum() == pytest.approx(1.0, abs=1e-12)


def test_log_pmf_row_guards():
    with pytest.raises(CapacityExceeded):
        log_pmf_row(100, 1, 0.5, n_max=50)
    with pytest.raises(InvalidParameter):
        log_pmf_row(10, 0, 0.0)


# -- approximants ------------------------------------------------------------------

def test_lambda_and_psi():
    assert lambda_n(100, 1, 0.5) == pytest.approx(1.5 * math.log(100), rel=1e-15)
    for k, r in ((1, 0.5), (0, 0.5), (2, 0.0), (3, 1.25)):
        if k == 0 and r == 0:
            continue
        assert psi_limit(k, r, 0.0) == 1.0
    # spec example: k=1, r=1/2 limit at z = 0.3
    want = math.gamma(2.0) / math.gamma(1.5 * math.exp(0.3) + 0.5)
    assert psi_limit(1, 0.5, 0.3) == pytest.approx(want, rel=1e-14)


def test_gamma_ratio_goes_to_log_space_only_on_overflow():
    assert psi_limit(1, 0.5, 1.0) == math.gamma(2.0) / math.gamma(1.5 * math.exp(1.0) + 0.5)
    big = 1.5 * math.exp(5.0) + 0.5  # math.gamma(big) overflows
    assert psi_limit(1, 0.5, 5.0) == math.exp(math.lgamma(2.0) - math.lgamma(big))
    assert 0.0 < psi_limit(1, 0.0, -720.0) < 1e-300  # a subnormal argument near the pole at 0
    with pytest.raises(DomainError):
        psi_limit(1, 0.0, -800.0)  # argument underflows to the pole itself
    with pytest.raises(DomainError):
        psi_limit(200, 0.0, -3.0)  # the ratio itself overflows
    with pytest.raises(DomainError):
        ldp_tail_ratio(100, 1, HALF, 200.0)  # approximant underflows to 0


@pytest.mark.parametrize("z", [800.0, 709.0, math.inf, -math.inf, math.nan])
def test_mod_poisson_refuses_z_past_binary64(z):
    # math.exp(800) overflows; e^709 is finite but lambda_n (e^709 - 1) is not
    with pytest.raises(DomainError):
        mod_poisson_residual(100, 1, HALF, z)
    if z != -math.inf:
        with pytest.raises(DomainError):
            psi_limit(1, 0.5, z)


class TestExpectationAsymptotic:
    def test_branches(self):
        n = 1000
        assert expectation_asymptotic(n, 0.5, k=1) == pytest.approx(1.5 * math.log(n))
        assert expectation_asymptotic(n, 0.5, linear=True) == n
        assert expectation_asymptotic(n, 0.5, alpha=0.5) == pytest.approx(n * math.log(2.0))

    def test_branch_validation(self):
        with pytest.raises(InvalidParameter):
            expectation_asymptotic(100, 0.5, alpha=1.5)
        with pytest.raises(InvalidParameter):
            expectation_asymptotic(100, 0.5)
        with pytest.raises(InvalidParameter):
            expectation_asymptotic(100, 0.5, k=1, linear=True)

    def test_fixed_k_ratio_improves(self):
        gaps = []
        for n in (100, 5000):
            exact = float(expectation_exact(n, 1, HALF))
            gaps.append(abs(exact / expectation_asymptotic(n, 0.5, k=1) - 1.0))
        assert gaps[1] < gaps[0]


def test_clt_normalize_trivials():
    lam = lambda_n(5000, 1, 0.5)
    assert clt_normalize(lam, 5000, 1, 0.5) == 0.0
    assert clt_normalize(lam + math.sqrt(lam), 5000, 1, 0.5) == pytest.approx(1.0, rel=1e-12)


def test_llt_gaussian_values():
    n, k, r = 1000, 1, 0.5
    lam = lambda_n(n, k, r)
    peak = llt_gaussian_pmf(round(lam), n, k, r)
    assert peak == pytest.approx(1.0 / math.sqrt(2 * math.pi * lam), rel=0.05)
    far = llt_gaussian_pmf(lam + 10 * math.sqrt(lam), n, k, r)
    assert far < math.exp(-50) / math.sqrt(2 * math.pi * lam)


@pytest.mark.parametrize("k,r", [(1, HALF), (2, F(0)), (0, HALF)])
def test_mode_prediction_contains_exact_mode(k, r):
    n = 1000
    lo, hi = mode_prediction(n, k, float(r))
    exact = mode_exact(n, k, r)
    assert exact <= {lo, hi}


def test_mode_prediction_domain():
    with pytest.raises(DomainError):
        mode_prediction(100, 0, 0.0)


# -- residuals and distances -------------------------------------------------------

def test_residual_at_zero_is_one():
    assert mod_poisson_residual(100, 1, HALF, 0.0) == 1.0
    assert residual_via_pgf(100, 1, HALF, 0.0) == 1.0


def test_residual_methods_agree():
    for z in (-0.5, 0.3, 1.0):
        exact = mod_poisson_residual(100, 1, HALF, z)
        via_pgf = residual_via_pgf(100, 1, HALF, z)
        via_log = residual_via_logspace(100, 1, HALF, z)
        assert via_pgf == pytest.approx(exact, rel=1e-9)
        assert via_log == pytest.approx(exact, rel=1e-8)


def test_residual_converges_toward_psi():
    for z in (-0.5, 0.3, 1.0):
        target = psi_limit(1, 0.5, z)
        gap_small = abs(mod_poisson_residual(100, 1, HALF, z) - target)
        gap_big = abs(mod_poisson_residual(1000, 1, HALF, z) - target)
        assert gap_big < gap_small


def test_residual_guards():
    # the pgf route is exact-rational in n; the residual itself has one route
    with pytest.raises(CapacityExceeded):
        residual_via_pgf(1000, 1, HALF, 0.5)
    with pytest.raises(TypeError):
        mod_poisson_residual(100, 1, HALF, 0.5, method="pgf")
    with pytest.raises(DomainError):
        mod_poisson_residual(100, 1, HALF, math.inf)


def test_standardized_cdf_at_zero():
    # P[X <= lambda_n] against Phi(0) = 1/2 at n = 1e4; the exact head gives
    # 0.5537, so the gap sits at 0.054 (the CLT bites at 1/sqrt(log n) speed)
    from rlah.distribution import pmf_head

    n = 10**4
    lam = lambda_n(n, 1, 0.5)
    head = pmf_head(n, 1, HALF, int(lam) + 40)
    value = float(head.head_cdf(math.floor(lam)))
    assert value == pytest.approx(0.5537, abs=5e-4)
    assert abs(value - 0.5) < 0.06


def test_kolmogorov_distance_conventions():
    # frozen from an independent prototype of the same statistics
    assert kolmogorov_distance(100, 1, HALF) == pytest.approx(0.1286, abs=2e-3)
    assert kolmogorov_distance(100, 1, HALF, continuity_correction=False) == pytest.approx(
        0.2038, abs=2e-3
    )
    assert kolmogorov_distance(1000, 1, HALF) < kolmogorov_distance(100, 1, HALF)


def test_llt_sup_gap_decreases():
    g100 = llt_sup_gap(100, 1, HALF)
    g1000 = llt_sup_gap(1000, 1, HALF)
    assert g100 == pytest.approx(0.1052, abs=2e-3)
    assert g1000 < g100


# -- large deviations ----------------------------------------------------------------

def test_ldp_lattice_point_integrality():
    j, x_n = ldp_lattice_point(1000, 1, 0.5, 2.0)
    assert isinstance(j, int)
    assert x_n * lambda_n(1000, 1, 0.5) == pytest.approx(j, rel=1e-12)


def test_ldp_branch_domains():
    with pytest.raises(DomainError):
        ldp_upper_tail(1000, 1, 0.5, 0.9)
    with pytest.raises(DomainError):
        ldp_lower_tail(1000, 1, 0.5, 1.5)
    with pytest.raises(DomainError):
        ldp_point(1000, 1, 0.5, -1.0)
    for x in (math.inf, math.nan, 1e308):  # round() of x * lambda_n would raise, not DomainError
        with pytest.raises(DomainError):
            ldp_lattice_point(100, 1, 0.5, x)


def test_ldp_point_reduction_at_x_one():
    n, k, r = 1000, 1, 0.5
    lam = lambda_n(n, k, r)
    j, x_n = ldp_lattice_point(n, k, r, 1.0)
    # gamma factor degenerates to 1 at x = 1, leaving the lattice-corrected
    # Gaussian-height formula
    want = math.exp(-(k + r) * (x_n * math.log(x_n) - x_n + 1.0) * math.log(n)) / math.sqrt(
        2 * math.pi * lam
    )
    assert ldp_point(n, k, r, 1.0) == pytest.approx(want, rel=1e-12)


def test_ldp_tail_ratios_improve():
    from rlah.asymptotics import ldp_tail_ratio

    for x in (2.0, 0.5):
        _, _, ratio_small = ldp_tail_ratio(100, 1, HALF, x)
        _, _, ratio_big = ldp_tail_ratio(1000, 1, HALF, x)
        assert abs(ratio_big - 1.0) < abs(ratio_small - 1.0)


def test_convergence_table_shape():
    rows = convergence_table([100], 1, HALF, zs=[0.3], ldp_xs=[2.0])
    names = {row["statistic"] for row in rows}
    assert {"clt_kolmogorov", "llt_sup_gap", "mod_poisson_residual[z=0.3]", "mode", "ldp_tail[x=2]"} <= names
    for row in rows:
        assert set(row) == {"n", "statistic", "exact", "approximant", "gap"}
