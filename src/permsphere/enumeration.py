"""Where the two counting routes meet: ``count_report`` runs the pipeline,
the oracle or both (``--method both``) and pairs their counts.

Cross-validating the two is the whole point of the package, so each lives
in its own module, ``oracle`` and ``pipeline``, and neither imports the
other or this one.
"""
from __future__ import annotations

from .metrics import MetricId
from .oracle import DEFAULT_MAX_DEGREE, group_histogram, oracle_ball, oracle_sphere
from .perm import Frozen
from .pipeline import BetaTable, connected_histogram, pipeline_ball, pipeline_sphere

# The benchmark harness (perfbench/child.py, and LAYERS in perfbench/tracer.py)
# addresses group_histogram, connected_histogram and BetaTable, and the four
# counts that count_report runs, as permsphere.enumeration.*: keep those seven
# names here.


# -- reports --------------------------------------------------------------


class CountReport(Frozen):
    """A pipeline count paired with an optional oracle count and verdict."""

    __slots__ = ("metric", "n", "radius", "pipeline_count", "oracle_count")
    metric: str
    n: int
    radius: int
    pipeline_count: int | None
    oracle_count: int | None

    def __init__(
        self, metric: str, n: int, radius: int, pipeline_count: int | None, oracle_count: int | None
    ) -> None:
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "pipeline_count", pipeline_count)
        object.__setattr__(self, "oracle_count", oracle_count)

    @property
    def match(self) -> bool | None:
        if self.pipeline_count is None or self.oracle_count is None:
            return None
        return self.pipeline_count == self.oracle_count

    def as_dict(self) -> dict:
        return {
            "metric": self.metric,
            "n": self.n,
            "radius": self.radius,
            "pipeline": None if self.pipeline_count is None else str(self.pipeline_count),
            "oracle": None if self.oracle_count is None else str(self.oracle_count),
            "match": self.match,
        }


def count_report(
    metric: MetricId, n: int, radius: int, *, ball: bool = False, method: str = "pipeline",
    cap: int = DEFAULT_MAX_DEGREE,
) -> CountReport:
    """Run the requested counting method(s) and package the result."""
    if method not in ("pipeline", "oracle", "both"):
        raise ValueError(f"unknown method {method!r}")
    pipeline = oracle = None
    if method in ("pipeline", "both"):
        fn = pipeline_ball if ball else pipeline_sphere
        pipeline = fn(metric, n, radius)
    if method in ("oracle", "both"):
        fn = oracle_ball if ball else oracle_sphere
        oracle = fn(metric, n, radius, cap=cap)
    return CountReport(metric.name, n, radius, pipeline, oracle)
