"""Exact sphere and ball cardinalities in symmetric groups under
right-invariant metrics, cross-validated against a brute-force oracle."""

from .enumeration import CountReport, count_report
from .growth import (
    NOT_COVERED,
    BinomialPoly,
    RationalPoly,
    ball_polynomial,
    closed_form_beta,
    hamming_sphere,
    q_polynomial,
    r_polynomial,
    series_coefficients,
    sphere_polynomial,
    to_rational,
)
from .metrics import (
    CAYLEY,
    HAMMING,
    KENDALL,
    L1,
    LINF,
    MetricId,
    distance,
    distance_to_identity,
    lp,
)
from .oracle import oracle_ball, oracle_sphere
from .perm import (
    Permutation,
    SplitType,
    concatenate,
    count_embeddings,
    guarded_binom,
    parse,
)
from .pipeline import BetaTable, beta, connected_beta, pipeline_ball, pipeline_sphere

__all__ = [
    "BetaTable",
    "BinomialPoly",
    "CountReport",
    "MetricId",
    "NOT_COVERED",
    "Permutation",
    "RationalPoly",
    "SplitType",
    "ball_polynomial",
    "beta",
    "closed_form_beta",
    "concatenate",
    "connected_beta",
    "count_embeddings",
    "count_report",
    "distance",
    "distance_to_identity",
    "guarded_binom",
    "hamming_sphere",
    "lp",
    "oracle_ball",
    "oracle_sphere",
    "parse",
    "pipeline_ball",
    "pipeline_sphere",
    "q_polynomial",
    "r_polynomial",
    "series_coefficients",
    "sphere_polynomial",
    "to_rational",
    "CAYLEY",
    "HAMMING",
    "KENDALL",
    "L1",
    "LINF",
]
