"""One unit of a benchmark workload, run in a fresh interpreter.

Reads a JSON spec on stdin and writes one JSON line on stdout: the monotonic
clock at the end of set-up (``ready``) and of the timed part (``done``), the
timed part's wall and CPU time, the answers, the values the checker needs,
the machine-speed calibration, and the tracer's report when the spec asks
for tracing. Checks and the values they need are computed after the timed
part, with tracing and calibration off.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

CALIBRATION_INTERVAL_S = 0.05


def calibration_s() -> float:
    """Wall time of a fixed piece of pure-Python work like the program's:
    permutations scored with tuple arithmetic, the scores counted in a dict."""
    start = time.perf_counter()
    counts: dict = {}
    for w in itertools.permutations(range(6)):
        key = (sum(abs(v - i) for i, v in enumerate(w)), w[0])
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


class Calibration:
    """Times ``calibration_s`` every CALIBRATION_INTERVAL_S, from a SIGALRM
    handler, while the program runs.

    The machine is shared, and its speed drifts by a fifth or more over
    seconds to minutes, for every kind of Python work alike. Samples taken
    in the gaps of the program's own work measure the machine's speed while
    that work ran; their time is subtracted from every interval measured."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.total_s = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)

    def _tick(self, signum, frame) -> None:
        spent = calibration_s()
        self.samples.append(spent)
        self.total_s += spent

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def clock(self) -> float:
        """``time.perf_counter`` with the time spent calibrating left out."""
        return time.perf_counter() - self.total_s

    def spent(self, since: int) -> float:
        """Time spent calibrating since sample index ``since``."""
        return sum(self.samples[since:])

    def mean(self, since: int = 0, until: int | None = None) -> float | None:
        """Mean of ``samples[since:until]``; None if there is none. The mean,
        not the median, because the program's time is the sum over all the
        moments it ran, slow ones included."""
        window = self.samples[since:until]
        return statistics.fmean(window) if window else None


def run_cli(spec: dict, cal: Calibration) -> dict:
    import permsphere.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = permsphere.cli.main(spec["argv"])
    return {"rc": rc, "stdout": out.getvalue()}


def run_oracle(spec: dict, cal: Calibration) -> dict:
    from permsphere import enumeration
    from permsphere.metrics import MetricId

    metric, n = MetricId.parse(spec["metric"]), spec["n"]
    size = 1 + max(r for _, r in spec["queries"])
    answers = {"sphere": [None] * size, "ball": [None] * size}
    for kind, r in spec["queries"]:
        fn = enumeration.oracle_sphere if kind == "sphere" else enumeration.oracle_ball
        answers[kind][r] = fn(metric, n, r)
    return {"answers": answers}


def run_table(spec: dict, cal: Calibration) -> dict:
    """Passes over the same queries until ``spec["seconds"]`` have passed.

    Only the first pass's answers are kept; each later pass lists the
    queries where it differs, so memory does not grow with the pass count."""
    from permsphere import enumeration
    from permsphere.metrics import MetricId

    metrics = {name: MetricId.parse(name) for name, _, _ in spec["warm"]}
    queries = [(metrics[name], n, r) for name, n, r in spec["queries"]]
    clock = time.perf_counter
    latencies = [0.0] * len(queries)
    first, passes = None, []
    begin = clock()
    while not passes or clock() - begin < spec["seconds"]:
        answers = [None] * len(queries)
        mark, cpu, wall = len(cal.samples), time.process_time(), clock()
        for i, (metric, n, r) in enumerate(queries):
            start = clock()
            answers[i] = enumeration.pipeline_ball(metric, n, r)
            latencies[i] = clock() - start
        wall, cpu, end = clock() - wall, time.process_time() - cpu, len(cal.samples)
        spent = sum(cal.samples[mark:end])
        ordered = sorted(latencies)
        passes.append({
            "wall_s": wall - spent,
            "cpu_s": cpu - spent,
            "calibration_s": cal.mean(mark, end),
            "p50_s": ordered[len(ordered) // 2],
            "p99_s": ordered[int(0.99 * len(ordered))],
            "differs": [] if first is None else [i for i, (a, b) in enumerate(zip(answers, first)) if a != b],
        })
        if first is None:
            first = answers
    return {"answers": first, "passes": passes}


def warm_table(spec: dict) -> None:
    from permsphere import enumeration
    from permsphere.metrics import MetricId

    for name, n, r in spec["warm"]:
        enumeration.pipeline_ball(MetricId.parse(name), n, r)


def checker_inputs(spec: dict) -> dict:
    """Values the checker compares with references: base totals per degree,
    and ``oracle_ball`` for the ball-table queries with small n."""
    from permsphere import enumeration
    from permsphere.metrics import MetricId

    out = {
        "connected": {
            name: [
                sum(enumeration.connected_histogram(MetricId.parse(name), m).values())
                for m in range(2, m_max + 1)
            ]
            for name, m_max in spec.get("connected", {}).items()
        }
    }
    if spec["kind"] == "table":
        out["oracle"] = {
            f"{name} {n} {r}": enumeration.oracle_ball(MetricId.parse(name), n, r)
            for name, n, r in spec["queries"]
            if n <= spec["oracle_max_n"]
        }
    return out


TIMED = {"cli": run_cli, "oracle": run_oracle, "table": run_table}


def main() -> int:
    spec = json.load(sys.stdin)
    cal = Calibration()
    start = time.perf_counter()
    import permsphere.cli  # noqa: F401  (every workload starts from the full import)

    import_s = time.perf_counter() - start - cal.spent(0)
    src = Path(spec["src"]).resolve()
    origin = Path(sys.modules["permsphere"].__file__).resolve()
    if src not in origin.parents:
        print(f"error: permsphere was imported from {origin}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(clock=cal.clock)
        tracer.install()

    def phase(name, fn, *args):
        return tracer.run(name, fn, *args) if tracer else fn(*args)

    if spec["kind"] == "table":
        phase("setup", warm_table, spec)
    mark = len(cal.samples)
    result = {"import_s": import_s, "ready": time.monotonic()}
    cpu, wall = time.process_time(), time.perf_counter()
    result.update(phase("timed", TIMED[spec["kind"]], spec, cal))
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    result["done"] = time.monotonic()
    cal.stop()
    spent = cal.spent(mark)
    result["wall_s"], result["cpu_s"] = wall - spent, cpu - spent
    result["calibration"] = {
        "mean_s": cal.mean(),
        "setup_spent_s": cal.spent(0) - spent,
        "timed_spent_s": spent,
    }
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.update(checker_inputs(spec))
    if tracer:
        result["trace"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
