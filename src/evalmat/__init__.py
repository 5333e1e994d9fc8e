"""Exact determinants of bivariate polynomial evaluation matrices.

Builds the n x n matrix [p(a_r, b_s)] for homogeneous p (or [f(a_r + b_s)]
for sum-form f) over arbitrary-precision rationals or a prime field, and
computes its determinant by closed forms, minor expansions, and an
elimination oracle that cross-checks everything (fraction-free, or over
Q, where n^3 times the bits of the matrix's Hadamard bound reaches
kernel.MULTIMODULAR_MIN_SIZE, modulo products of up to
kernel.MULTIMODULAR_GROUP primes, joined by CRT).
"""

from .scalar import (
    RATIONAL,
    DomainMismatchError,
    FpElement,
    PrimeField,
    RationalDomain,
    SingularChangeError,
    SizeMismatchError,
    binomial,
    format_scalar,
    is_prime,
    parse_domain,
    parse_scalar,
)
from .poly import (
    HomogeneousPoly,
    UnivariatePoly,
    all_ones_poly,
    alternating_poly,
    complete_homogeneous,
    complete_homogeneous_all,
    poly_from_json,
    poly_to_json,
    sum_power_poly,
)
from .matrix import (
    DenseMatrix,
    PointVectors,
    bareiss_det,
    evaluation_matrix,
    factorization_parts,
    matrix_from_json,
    matrix_to_json,
    minor_det,
    pascal_core,
    rank,
    vandermonde_asc,
    vandermonde_desc,
    vandermonde_product,
)
from .det import (
    BORDERLINE,
    CAUCHY_BINET,
    DIRECT,
    H_ROUTE,
    ORACLE,
    SUM_FORM,
    VANISH_RANK,
    DetReport,
    LinearChange,
    det_borderline,
    det_cauchy_binet,
    det_structured,
    det_sum_form,
    oracle_det,
    pascal_core_det,
    predict_equivariant_det,
    rank_upper_bound,
    report_to_json,
    schur_minor,
)
from .ffprob import (
    ExperimentConfig,
    ExperimentResult,
    SplitMix64,
    estimate_zero_probability,
    exact_borderline_probability,
    mix64,
    sz_bound,
    trial_stream,
)
from .bench import BenchMismatchError, BenchRecord, run_bench
