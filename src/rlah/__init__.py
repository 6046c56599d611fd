"""Exact and asymptotic computation of the r-Lah distribution.

Building blocks (r-Stirling numbers of both kinds, r-Lah numbers) are exact,
and every PMF value is read from one kind of scaled integer row.
Limit-theorem approximants (mod-Poisson, CLT, local limit, mode location,
precise large deviations) live on the floating side and are compared
against certified exact prefixes of the distribution.  Two application
layers consume the exact core: expected face counts of cones generated by
random walks, and unique-recovery probabilities for sparse monotone signals,
each with a Monte Carlo verifier built on exact integer elimination and an
exact phase-1 simplex (one Farkas LP per face test) on a fraction-free
integer tableau.
"""

from .asymptotics import (
    clt_normalize,
    digamma,
    expectation_asymptotic,
    kolmogorov_distance,
    ldp_lower_tail,
    ldp_point,
    ldp_upper_tail,
    llt_gaussian_pmf,
    llt_sup_gap,
    mod_poisson_residual,
    mode_prediction,
    psi_limit,
)
from .cones import (
    ConeFaceQuery,
    expected_face_count,
    face_ratio,
    recovery_probability,
    strong_threshold_check,
    weak_threshold,
)
from .distribution import (
    AdmissibleTriple,
    LahDistribution,
    build_distribution,
    expectation_exact,
    mode_exact,
    pgf_eval,
    pmf_head,
)
from .errors import (
    CapacityExceeded,
    DegenerateSample,
    DomainError,
    InadmissibleParameters,
    InvalidParameter,
    RLahError,
)
from .montecarlo import (
    ConeClass,
    MCEstimate,
    RecoveryInstance,
    WalkSample,
    classify_cone,
    count_faces,
    estimate_expected_faces,
    estimate_recovery_probability,
    face_certificate,
    generate_walk,
    is_k_face,
    is_pointed,
    is_unique_recovery,
    make_recovery_instance,
)
from .rational import as_rational, format_rational
from .stirling import (
    DEFAULT_N_MAX,
    StirlingKind,
    first_kind_prefix,
    gen_binomial,
    harmonic_diff,
    lah_r,
    stirling_r,
)

__version__ = "0.1.0"
