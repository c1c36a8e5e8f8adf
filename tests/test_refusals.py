"""Each library entry point refuses an out-of-domain argument with a
ValueError and the message it has always given."""
from functools import partial

import pytest

from permsphere import (
    L1,
    MetricId,
    Permutation,
    SplitType,
    closed_form_beta,
    count_embeddings,
    count_report,
    hamming_sphere,
    oracle_ball,
    oracle_sphere,
    pipeline_ball,
    pipeline_sphere,
    q_polynomial,
    r_polynomial,
    series_coefficients,
)
from permsphere.growth import derangements
from permsphere import pipeline
from permsphere.oracle import group_histogram
from permsphere.pipeline import ball_terms, sphere_terms

REFUSALS = {
    "count-report-method": (partial(count_report, method="bogus"), (L1, 5, 2), "unknown method 'bogus'"),
    "closed-form-k": (closed_form_beta, (0, 2, 1), "k must be positive"),
    "q-polynomial-k": (q_polynomial, (0,), "k must be positive"),
    "r-polynomial-k": (r_polynomial, (0,), "k must be positive"),
    "series-k": (series_coefficients, (0, 3), "k must be positive"),
    "series-count": (series_coefficients, (1, -1), "count must be nonnegative"),
    "derangements-j": (derangements, (-1,), "j must be nonnegative"),
    "hamming-sphere-n": (hamming_sphere, (-1, 0), "n and j must be nonnegative"),
    "metric-exponent": (MetricId, ("l1", 2), "metric 'l1' takes no exponent"),
    "group-histogram-n": (group_histogram, (L1, 0), "n must be positive"),
    "oracle-sphere-radius": (oracle_sphere, (L1, 3, -1), "radius must be nonnegative"),
    "oracle-ball-radius": (oracle_ball, (L1, 3, -1), "radius must be nonnegative"),
    "position-zero": (Permutation((2, 1)), (0,), "positions are 1-based, got 0"),
    "count-embeddings-n": (count_embeddings, (-1, SplitType(())), "n must be nonnegative"),
    "sphere-terms-radius": (sphere_terms, (L1, -1, 4), "radius must be nonnegative"),
    "ball-terms-radius": (ball_terms, (L1, -1, 4), "radius must be nonnegative"),
    "pipeline-n": (pipeline_sphere, (L1, 0, 2), "n must be positive"),
    "pipeline-radius": (pipeline_sphere, (L1, 3, -1), "radius must be nonnegative"),
    "pipeline-ball-n": (pipeline_ball, (L1, 0, 2), "n must be positive"),
    "pipeline-ball-radius": (pipeline_ball, (L1, 3, -1), "radius must be nonnegative"),
}


@pytest.mark.parametrize("call, args, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused(call, args, message):
    with pytest.raises(ValueError) as refused:
        call(*args)
    assert str(refused.value) == message


def test_n_is_checked_before_the_stored_form():
    # at radius 0, n = 1 stores the forms under top = 0, the key n = 0 maps to
    assert pipeline_sphere(L1, 1, 0) == pipeline_ball(L1, 1, 0) == 1
    assert {(L1, 0, 0, False), (L1, 0, 0, True)} <= pipeline._forms.keys()
    for query in (pipeline_sphere, pipeline_ball):
        with pytest.raises(ValueError) as refused:
            query(L1, 0, 0)
        assert str(refused.value) == "n must be positive"


@pytest.mark.parametrize("query, kind", [(pipeline_sphere, "Sphere"), (pipeline_ball, "Ball")])
def test_queries_keep_their_names(query, kind):
    name = f"pipeline_{kind.lower()}"
    assert (query.__name__, query.__qualname__, query.__module__) == (name, name, "permsphere.pipeline")
    assert query.__doc__ == f"{kind} cardinality via the split-type sum, exact for every n >= 1."
